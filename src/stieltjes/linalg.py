"""Small exact linear algebra over the Constant field: determinants and inverses
from tables of minors, kernels by Gauss-Jordan elimination."""

from __future__ import annotations

from itertools import combinations

from .constants import Constant

Matrix = tuple  # tuple of row tuples of Constant


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _last_row_cofactors(w) -> list:
    """The cofactors of the last row of the square matrix ``w`` over a ring
    with ``type(x).sum``, ``.one()``, ``*``, ``-x`` and ``is_zero``.

    Cofactor j is the signed minor of the first n-1 rows without column j.
    The minors of the top k rows on every k-set of columns are expanded along
    row k from those for k-1: about n 2^(n-1) products instead of n * n!."""
    n, ring = len(w), type(w[-1][0])
    minors = {(): ring.one()}
    for k, row in enumerate(w[:-1]):
        minors = {cols: ring.sum(_signed(row[c] * minors[cols[:t] + cols[t + 1:]], k + t)
                                 for t, c in enumerate(cols) if not row[c].is_zero())
                  for cols in combinations(range(n), k + 1)}
    return [_signed(minors[tuple(c for c in range(n) if c != j)], n - 1 + j) for j in range(n)]


def _signed(f, k: int):
    """(-1)^k f."""
    return -f if k % 2 else f


def _last_row_expansion(w, cofactors):
    """det w: the last row of ``w`` times its cofactors."""
    return type(w[-1][0]).sum(a * c for a, c in zip(w[-1], cofactors))


def mat_det(m: Matrix) -> Constant:
    """Determinant: the last row times its cofactors."""
    return _last_row_expansion(m, _last_row_cofactors(m))


def mat_inv(m: Matrix) -> Matrix:
    """adj M / det M, cofactor (i, j) being (-1)^(n-1-i) cofactor (n-1, j) of M with
    row i moved last: one inverse and no elimination; ValueError when singular."""
    n = len(m)
    cofactors = [[_signed(c, n - 1 - i)
                  for c in _last_row_cofactors(m[:i] + m[i + 1:] + m[i:i + 1])]
                 for i in range(n)]
    if (det := _last_row_expansion(m, cofactors[-1])).is_zero():
        raise ValueError("singular matrix")
    inv = det.inverse()
    return tuple(tuple(cofactors[i][j] * inv for i in range(n)) for j in range(n))


def left_kernel(m: Matrix) -> list[tuple[Constant, ...]]:
    """Basis of {x : x*m = 0}: Gauss-Jordan elimination brings the transpose
    to reduced row echelon form, and each free column gives one vector."""
    nrows = len(m)
    # transpose: one equation per column of m over the x coordinates
    rows = [list(col) for col in zip(*m)]
    pivots: list[int] = []
    for col in range(nrows):
        r = len(pivots)
        pivot = next((k for k in range(r, len(rows)) if not rows[k][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [entry * inv for entry in rows[r]]
        for k, row in enumerate(rows):
            if k != r and not row[col].is_zero():
                factor = row[col]
                rows[k] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
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
