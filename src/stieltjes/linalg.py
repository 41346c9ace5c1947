"""Small exact linear algebra over the Constant field."""

from __future__ import annotations

from .constants import Constant

Matrix = tuple  # tuple of row tuples of Constant


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_det(m: Matrix) -> Constant:
    """Determinant by fraction-full Gaussian elimination."""
    n = len(m)
    rows = [list(r) for r in m]
    det = Constant.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return Constant.zero()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor.is_zero():
                continue
            for c in range(col, n):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return det


def mat_inv(m: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises ValueError when singular."""
    n = len(m)
    rows = [list(r) + [Constant.one() if i == j else Constant.zero() for j in range(n)]
            for i, r in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [entry * inv for entry in rows[col]]
        for r in range(n):
            if r == col or rows[r][col].is_zero():
                continue
            factor = rows[r][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def left_kernel(m: Matrix) -> list[tuple[Constant, ...]]:
    """Basis of {x : x*m = 0} via reduced row echelon form of the transpose."""
    nrows = len(m)
    if nrows == 0:
        return []
    ncols = len(m[0])
    # transpose: ncols x nrows system over the x coordinates
    rows = [[m[j][i] for j in range(nrows)] for i in range(ncols)]
    pivots: list[int] = []
    r = 0
    for col in range(nrows):
        pivot = next((k for k in range(r, len(rows)) if not rows[k][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [entry * inv for entry in rows[r]]
        for k in range(len(rows)):
            if k == r or rows[k][col].is_zero():
                continue
            factor = rows[k][col]
            rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(nrows) if c not in pivots]
    basis = []
    for f in free:
        vec = [Constant.zero()] * nrows
        vec[f] = Constant.one()
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        basis.append(tuple(vec))
    return basis


def mat_vec(m: Matrix, v) -> tuple[Constant, ...]:
    return tuple(Constant.sum(a * b for a, b in zip(row, v)) for row in m)
