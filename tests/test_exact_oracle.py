"""The exact core against sympy, on the c4, c6 and Delta of every fixture surface.

Skipped when sympy is not installed (`pip install k3cm[test]` brings it in).
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from k3cm.exact import QQ, Polynomial, resultant  # noqa: E402
from k3cm.surfaces import rational_roots, squarefree_decomposition  # noqa: E402

T = sp.Symbol("t")


def to_sympy(f: Polynomial):
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                   T, domain=sp.QQ)


def from_sympy(f) -> Polynomial:
    return Polynomial(QQ, [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])


def rational(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_rational_roots(f) -> dict:
    """{root: multiplicity} of the linear factors of f over Q."""
    return {
        rational(-g.monic().nth(0)): mult
        for g, mult in f.factor_list()[1]
        if g.degree() == 1
    }


def invariants(certified):
    """(surface name, [c4, c6, Delta] without zero polynomials)."""
    for name, surf, _ in certified:
        yield name, [f for f in (surf.c4, surf.c6, surf.delta) if not f.is_zero()]


def test_products_and_division_match_sympy(certified):
    for name, polys in invariants(certified):
        for f in polys:
            for g in polys:
                sf, sg = to_sympy(f), to_sympy(g)
                assert f * g == from_sympy(sf * sg), name
                q, r = f.divrem(g)
                sq, sr = sp.div(sf, sg)
                assert (q, r) == (from_sympy(sq), from_sympy(sr)), name


def test_gcd_and_resultant_match_sympy(certified):
    for name, polys in invariants(certified):
        for f in polys + [polys[-1].derivative()]:
            for g in polys:
                sf, sg = to_sympy(f), to_sympy(g)
                assert f.gcd(g) == from_sympy(sp.gcd(sf, sg)), name
                # sympy 1.14 returns Res(g, f), not Sylvester's Res(f, g), when
                # deg f < deg g; the swap rule covers that order
                if f.degree >= g.degree:
                    assert resultant(f, g) == rational(sp.resultant(sf, sg)), name
                assert resultant(g, f) == (-1) ** (f.degree * g.degree) * resultant(f, g), name


def test_roots_valuations_and_squarefree_parts_match_sympy(certified):
    for name, polys in invariants(certified):
        expected = [sympy_rational_roots(to_sympy(f)) for f in polys]
        points = set().union(*expected)
        for f, roots in zip(polys, expected):
            assert rational_roots(f) == roots, name
            for pt in points:
                assert f.valuation_at(pt) == roots.get(pt, 0), (name, pt)
            lead, parts = squarefree_decomposition(f)
            s_lead, s_parts = to_sympy(f).sqf_list()
            assert lead == rational(s_lead), name
            assert {i: g for g, i in parts} == {i: from_sympy(g) for g, i in s_parts}, name
