"""Small exact linear algebra over the Constant field."""

from __future__ import annotations

from .constants import Constant

Matrix = tuple  # tuple of row tuples of Constant


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _rref(rows: list[list[Constant]], ncols: int) -> tuple[list[int], Constant]:
    """Bring ``rows`` to reduced row echelon form over its first ``ncols``
    columns, in place, by Gauss-Jordan elimination.  Returns the pivot
    columns and the product of the pivots, negated once per row swap: the
    determinant when the first ``ncols`` columns are square and all pivots."""
    pivots: list[int] = []
    det = Constant.one()
    for col in range(ncols):
        r = len(pivots)
        pivot = next((k for k in range(r, len(rows)) if not rows[k][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        det = det * (rows[r][col] if pivot == r else -rows[r][col])
        inv = rows[r][col].inverse()
        rows[r] = [entry * inv for entry in rows[r]]
        for k, row in enumerate(rows):
            if k != r and not row[col].is_zero():
                factor = row[col]
                rows[k] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return pivots, det


def mat_det(m: Matrix) -> Constant:
    """Determinant by Gauss-Jordan elimination."""
    pivots, det = _rref([list(r) for r in m], len(m))
    return det if len(pivots) == len(m) else Constant.zero()


def mat_inv(m: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises ValueError when singular."""
    n = len(m)
    rows = [list(r) + [Constant.one() if i == j else Constant.zero() for j in range(n)]
            for i, r in enumerate(m)]
    if len(_rref(rows, n)[0]) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def left_kernel(m: Matrix) -> list[tuple[Constant, ...]]:
    """Basis of {x : x*m = 0} via reduced row echelon form of the transpose."""
    nrows = len(m)
    # transpose: one equation per column of m over the x coordinates
    rows = [list(col) for col in zip(*m)]
    pivots, _det = _rref(rows, nrows)
    basis = []
    for f in (c for c in range(nrows) if c not in pivots):
        vec = [Constant.zero()] * nrows
        vec[f] = Constant.one()
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        basis.append(tuple(vec))
    return basis


def mat_vec(m: Matrix, v) -> tuple[Constant, ...]:
    return tuple(Constant.sum(a * b for a, b in zip(row, v)) for row in m)
