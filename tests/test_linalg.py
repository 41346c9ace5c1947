"""``mat_det`` and ``mat_inv`` read ``(det M, adj M)`` off tables of minors,
with no elimination; each is checked against definitions that share nothing
with it: the Leibniz formula and the reference elimination
``conftest.gauss_jordan``."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from conftest import gauss_jordan
from test_certificate import document_problems, suite_problems

from stieltjes import Constant, evaluation_matrix
from stieltjes.cli import parse_problem
from stieltjes.linalg import mat_det, mat_from_rows, mat_inv, mat_vec


def c(q):
    return Constant.from_rational(F(q))


E = Constant.e_power(1)

MATRICES = {
    # the first pivot needs a row swap, and so does the second
    "swaps": [[c(0), c(1), c(2)], [c(0), c(0), c(3)], [c(4), c(5), c(6)]],
    "exponential": [[E, c(1)], [c(1), E]],
    "one-swap": [[c(0), E], [c(2), c(1)]],
    "singular": [[c(1), c(2), c(3)], [c(2), c(4), c(6)], [E, c(0), c(1)]],
}


def leibniz_det(m):
    n = len(m)
    terms = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        product = Constant.one()
        for i, j in enumerate(perm):
            product = product * m[i][j]
        terms.append(-product if inversions % 2 else product)
    return Constant.sum(terms)


@pytest.mark.parametrize("name", MATRICES)
def test_det_is_the_leibniz_formula(name):
    m = mat_from_rows(MATRICES[name])
    assert mat_det(m) == leibniz_det(m)


@pytest.mark.parametrize("name", ["swaps", "exponential", "one-swap"])
def test_inverse_times_matrix_is_the_identity(name):
    m = mat_from_rows(MATRICES[name])
    inv = mat_inv(m)
    n = len(m)
    for j in range(n):
        column = mat_vec(inv, [m[i][j] for i in range(n)])
        assert column == tuple(c(1) if i == j else c(0) for i in range(n))


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ValueError, match="singular matrix"):
        mat_inv(mat_from_rows(MATRICES["singular"]))


def _local_problem(coeffs, conditions):
    """The problem with operator ``coeffs`` and one local condition per
    (point, order) pair, coefficient 1."""
    return parse_problem({"operator": {"coeffs": coeffs}, "conditions": [
        {"local": [{"point": p, "order": k, "coeff": "1"}]} for p, k in conditions]})


# R2: the roots +-1, +-2 and four far points; O10: the roots -5..4,
# u^(k)(0) = 0 for k < 9 and u(1) = 0 (the order-10 CI problem)
R2 = _local_problem(["4", "0", "-5", "0", "1"], [("0", 0), ("1/2", 0), ("1", 0), ("40", 0)])
O10_ROOTS = range(4, -6, -1)  # in the order of the fundamental system
O10 = _local_problem(["0", "2880", "576", "-4100", "-820", "1365", "273", "-150", "-30", "5", "1"],
                     [("0", k) for k in range(9)] + [("1", 0)])


def problem_matrices(problems):
    return [evaluation_matrix(p.conditions, p.system()) for p in problems]


def o10_det():
    """det M of O10 expanded along its last row ``e^r_j``: the first nine
    rows are ``r_j^k``, so each minor is a Vandermonde determinant."""
    roots = list(O10_ROOTS)
    terms = []
    for j, r in enumerate(roots):
        rest = roots[:j] + roots[j + 1:]
        vandermonde = 1
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                vandermonde *= rest[b] - rest[a]
        terms.append(Constant.e_power(r, (-1) ** (9 + j) * vandermonde))
    return Constant.sum(terms)


ENTRY_POOL = [c(0), c(0), c(0), c(1), c(-2), c(F(1, 3)), E, Constant.e_power(-1, 2),
              Constant.e_power(F(1, 2)), E - c(1), E * E + c(3)]


def random_matrix(rng: random.Random, n: int, singular: bool):
    """A seeded n x n matrix from ``ENTRY_POOL``: a singular one has one row a
    combination of the others (a zero row when n = 1), and a regular one is
    drawn until its Leibniz determinant is not zero."""
    rows = [[rng.choice(ENTRY_POOL) for _ in range(n)] for _ in range(n)]
    if singular:
        i = rng.randrange(n)
        weights = [rng.choice(ENTRY_POOL) for _ in range(n)]
        rows[i] = [Constant.sum(weights[k] * rows[k][j] for k in range(n) if k != i)
                   for j in range(n)]
    elif leibniz_det(rows).is_zero():
        return random_matrix(rng, n, singular)
    return mat_from_rows(rows)


def random_matrices():
    """Four regular and four singular matrices of each order 1..6."""
    rng = random.Random(27)
    return [random_matrix(rng, n, singular) for n in range(1, 7) for singular in (False, True)
            for _ in range(4)]


def test_mat_vec_is_the_row_times_column_sum():
    # one sum of unfinished products per entry, zero entries skipped
    rng = random.Random(39)
    for m in random_matrices():
        v = [rng.choice(ENTRY_POOL) for _ in m]
        assert mat_vec(m, v) == tuple(Constant.sum([a * b for a, b in zip(row, v)]) for row in m)


MATRIX_SETS = {
    "suite": lambda: problem_matrices(suite_problems()),
    "documents": lambda: problem_matrices(document_problems()),
    "R2": lambda: problem_matrices([R2]),
    "O10": lambda: problem_matrices([O10]),
    "random": random_matrices,
}


@pytest.mark.parametrize("name", MATRIX_SETS)
def test_det_and_inverse_agree_with_the_references(name):
    matrices = MATRIX_SETS[name]()
    for m in matrices:
        n = len(m)
        det, inverse = gauss_jordan(m, [[c(i == j) for j in range(n)] for i in range(n)])
        assert mat_det(m) == det
        assert det == (leibniz_det(m) if n <= 6 else o10_det())
        if det.is_zero():
            with pytest.raises(ValueError, match="singular matrix"):
                mat_inv(m)
        else:
            assert mat_inv(m) == tuple(inverse)
    sizes = {len(m) for m in matrices}
    assert sizes == {"suite": {1, 2, 3}, "documents": {2}, "R2": {4}, "O10": {10},
                     "random": set(range(1, 7))}[name]
    if name == "random":
        assert [mat_det(m).is_zero() for m in matrices] == ([False] * 4 + [True] * 4) * 6
