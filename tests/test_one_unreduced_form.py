"""One unreduced form for the whole calculus.

Until ``exppoly._accumulate`` reduces it, a function is a list of
(monomial, part) pairs, the part being a ``_sum`` summand ``(c, p, q, k,
m)``.  Derivatives come from one rule, ``exppoly._derived``, and definite
integrals from one routine, ``exppoly._integral``; ``ExpPoly.derive``,
``ExpPoly.integrate_from`` and the three rewrites of the operator product
share them, and the product builds no intermediate ``ExpPoly``.

- The texts of 440 operator products are pinned by one digest: ``uv``,
  ``(uv)w`` and ``u(vw)`` of the 100 seed-4096 triples of the ``ring``
  workload, then ``beta_i * T_inv`` of the 50 seed-2024 ``suite`` problems
  and the 15 ``documents`` problems.
- ``_derived`` agrees with a stepwise reference, one derivative at a time.
- ``_integral`` agrees with ``antiderivative() - F(a)``.
- ``_compose`` runs with ``ExpPoly.__mul__``, ``derive``, ``derivatives``,
  ``integrate_from`` and ``eval_at`` refused.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from test_certificate import document_problems, suite_problems

from stieltjes import Constant, ExpPoly, boundary
from stieltjes.exppoly import _accumulate, _derived, _freq, _integral, _scaled

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# sha256 of the concatenated to_text() of the 440 products, computed before
# the product emitted (monomial, part) pairs
PRODUCTS_SHA256 = "c390aa0d105b97ad40caeec3593e7b6311158c5ce7f4304e135cc1f02f8d2153"

E = Constant.e_power(1)


def ring_triples():
    return [triple for triple, _tests in workloads.build_ring()]


def product_texts() -> list[str]:
    texts = []
    for u, v, w in ring_triples():
        uv = u * v
        texts += [uv.to_text(), (uv * w).to_text(), (u * (v * w)).to_text()]
    for problem in suite_problems() + document_problems():
        fri = boundary.fundamental_right_inverse(
            problem.system(), min(problem.evaluation_points(), default=0))
        texts += [(cond.as_operator() * fri).to_text() for cond in problem.conditions]
    return texts


def test_the_products_are_unchanged():
    texts = product_texts()
    assert len(texts) == 440
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == PRODUCTS_SHA256


def stepwise_derive(f: ExpPoly, times: int) -> ExpPoly:
    """d^times f, one derivative at a time:
    d/dx(x^n e^{lx}) = n x^{n-1} e^{lx} + l x^n e^{lx}."""
    for _ in range(times):
        terms = f._terms.items()
        f = _accumulate([((l, n - 1), (c, n, 1, 0, 1)) for (l, n), c in terms if n]
                        + [((l, n), (c, l.numerator, l.denominator, 0, 1))
                           for (l, n), c in terms if l])
    return f


FREQUENCIES = [0, 1, -2, F(1, 2), F(-3, 4), F(5, 3)]
COEFFICIENTS = [Constant.from_rational(F(-3, 4)), Constant.from_rational(7),
                Constant.e_power(F(1, 3), 2), 1 / (E - 1), (E + 2) / (E * E - 3)]


def random_exppoly(rng: random.Random) -> ExpPoly:
    return ExpPoly.sum(ExpPoly.monomial(rng.choice(FREQUENCIES), rng.randint(0, 5),
                                        rng.choice(COEFFICIENTS))
                       for _ in range(rng.randint(1, 5)))


def random_pairs(rng: random.Random, f: ExpPoly) -> list:
    """The terms of f as parts under random units ``p/q e^(k/m)``, some of
    them split into two parts of one monomial."""
    pairs = []
    for key, c in f._terms.items():
        for _ in range(rng.randint(1, 2)):
            p, q = rng.choice([(1, 1), (-2, 3), (5, 7), (-1, 1)])
            k, m = rng.choice([(0, 1), (1, 2), (-2, 3)])
            pairs.append((key, (c, p, q, k, m)))
    return pairs


@pytest.mark.parametrize("seed", range(6))
def test_derived_is_the_stepwise_derivative(seed):
    rng = random.Random(seed)
    for _ in range(8):
        f = random_exppoly(rng)
        pairs = random_pairs(rng, f)
        g = _accumulate(pairs)
        for i in range(5):
            for scale in (1, -3):
                assert _accumulate(_derived(_scaled(f), i, scale)) == stepwise_derive(f, i) * scale
                assert _accumulate(_derived(pairs, i, scale)) == stepwise_derive(g, i) * scale
            assert f.derive(i) == stepwise_derive(f, i)


@pytest.mark.parametrize("seed", range(4))
def test_integral_is_the_antiderivative_less_its_value(seed):
    rng = random.Random(100 + seed)
    for _ in range(8):
        f = random_exppoly(rng)
        pairs = random_pairs(rng, f)
        g = _accumulate(pairs)
        for a in (0, -1, F(1, 2), F(-5, 3)):
            anti = g.antiderivative()
            expected = anti - ExpPoly.const(anti.eval_at(a))
            assert _accumulate(_integral(pairs, _freq(a))) == expected
            anti = f.antiderivative()
            assert f.integrate_from(a) == anti - ExpPoly.const(anti.eval_at(a))


def test_the_product_builds_no_intermediate_exppoly(monkeypatch):
    triples = ring_triples()
    expected = []
    for u, v, w in triples:
        uv, vw = u * v, v * w
        expected.append((uv, vw, uv * w, u * vw))

    def refuse(*_args):
        raise AssertionError("the operator product reduced an intermediate ExpPoly")

    for name in ("__mul__", "derive", "derivatives", "integrate_from", "eval_at"):
        monkeypatch.setattr(ExpPoly, name, refuse)
    for (u, v, w), (uv, vw, uvw, u_vw) in zip(triples, expected):
        assert u * v == uv and v * w == vw
        assert uv * w == uvw and u * vw == u_vw
