"""``mat_det``, ``mat_inv`` and ``left_kernel`` share one Gauss-Jordan
routine; each is checked against a definition that shares nothing with it."""

from fractions import Fraction as F
from itertools import permutations

import pytest

from stieltjes import Constant
from stieltjes.linalg import left_kernel, mat_det, mat_from_rows, mat_inv, mat_vec


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


@pytest.mark.parametrize("name, dimension", [("swaps", 0), ("singular", 1)])
def test_left_kernel_spans_the_relations(name, dimension):
    m = mat_from_rows(MATRICES[name])
    basis = left_kernel(m)
    assert len(basis) == dimension
    for x in basis:
        assert all(Constant.sum(x[i] * m[i][j] for i in range(len(m))).is_zero()
                   for j in range(len(m[0])))


def test_left_kernel_of_a_wide_matrix():
    # three rows in two columns: at least one relation, here x = (1, 1, -1)
    m = mat_from_rows([[c(1), c(0)], [c(0), c(1)], [c(1), c(1)]])
    assert left_kernel(m) == [(c(-1), c(-1), c(1))]
