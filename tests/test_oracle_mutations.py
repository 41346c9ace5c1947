"""What the independent numeric oracles catch in the one accumulation path.

Every sum, product, derivative and definite integral of ``ExpPoly``, and
every product of scalars, runs through a few shared routines: the finisher
``exppoly._accumulate``, the product generator ``exppoly._products``, the
derivative rule ``_derived``, the antiderivative and the definite integral
``_integral``, ``constants._times_units`` with ``_cross_product``, and
``constants._sum`` with ``_numerator`` and ``_part_value``.  Their summand
is the unit multiple ``(c, p, q, k, m)``, which ``_numerator`` scales and
shifts where ``_sum`` adds it, and ``_part_value`` where it finishes a lone
one; ``_scaled`` lifts a unit coefficient into its unit slot, under the
coefficient 1.  A fault in one of them is a fault of every caller, so each
row below mutates one of them, by ``test_certificate_mutations.install``,
and requires the mpmath oracle of ``test_exppoly_oracle`` or of
``test_constant_oracle``, whose operands are plain rational descriptions,
to fail under it.

A name that another module imported is rebound there too, so that
``ExpPoly`` arithmetic sees a mutated ``_times_units`` as ``Constant.__mul__``
does.  Every row changes an output, so no row is exempt.  Unmutated, both
oracles pass in their own modules.
"""

from __future__ import annotations

import pytest

from test_certificate_mutations import install
from test_constant_oracle import check_random_operations
from test_exppoly_oracle import check_algebra_and_calculus

from stieltjes import constants, exppoly, operators

# (label, owner, function name, snippet, replacement)
ROWS = [
    ("_accumulate keeps only each monomial's first part", exppoly, "_accumulate",
     "_sum(parts)", "_sum(parts[:1])"),
    ("derive drops its factor n", exppoly, "_derived",
     "perm(n, j)", "1"),
    ("integrate_from drops the -F(a) multiples", exppoly, "_integral",
     "_derived(_values(F, a), 0, -1)", "[]"),
    ("_times_units inverts the folded unit", constants, "_times_units",
     "(c, a, d._den[0][1], j, d._n)",
     "(c, d._den[0][1] if a > 0 else -d._den[0][1], abs(a), -j, d._n)"),
    ("_part_value takes p/q = 1 for the unit 1", constants, "_part_value",
     "if p == q == 1 and not k:", "if p == q == 1:"),
    ("_cross_product squares the first denominator", constants, "_cross_product",
     "_pmul(d1, d2)", "_pmul(d1, d1)"),
    ("_products drops the frequency of g", exppoly, "_products",
     "_freq(l1 + l2)", "_freq(l1)"),
    ("_antiderivative drops the sign (-1)^(P-n)", exppoly, "_antiderivative",
     "(-t) ** (power - n)", "t ** (power - n)"),
    ("_sum adds rationals without their common denominator", constants, "_sum",
     "a * (m // b)", "a"),
    ("_sum drops a member's shift k", constants, "_numerator",
     "e * f + k, a * s", "e * f, a * s"),
    ("_sum drops a member's factor p", constants, "_numerator",
     "m // cont * p", "m // cont"),
    ("_sum divides an integer-denominator total by 1 in place of the lcm", constants, "_sum",
     "((0, m),))", "((0, 1),))"),
    ("_scaled drops a lifted unit's exponent j", exppoly, "_scaled",
     "c._num[0][0], c._n)", "0, c._n)"),
    ("_products drops p on the path of the coefficient 1", exppoly, "_products",
     "(c1, p, q, k, m) if", "(c1, 1, q, k, m) if"),
    ("_part_value swaps p and q of a lone part under the coefficient 1", constants,
     "_part_value", "_stored(m, ((k, p),), ((0, q),))", "_stored(m, ((k, q),), ((0, p),))"),
    ("_derived drops the sign of order 0", exppoly, "_derived",
     "p * scale, q", "p, q"),
]


def install_shared(monkeypatch, owner, name: str, snippet: str, replacement: str) -> None:
    """``install``, with the mutated function also bound wherever the
    original was imported by name."""
    original = owner.__dict__[name]
    install(monkeypatch, owner, name, snippet, replacement)
    for module in (constants, exppoly, operators):
        if module.__dict__.get(name) is original and module is not owner:
            monkeypatch.setattr(module, name, owner.__dict__[name])


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_an_oracle_fails_under_the_mutation(monkeypatch, row):
    _label, *mutation = row
    install_shared(monkeypatch, *mutation)
    with pytest.raises(AssertionError):
        check_algebra_and_calculus()
        check_random_operations()
