"""The exact core against sympy: over Q on the c4, c6 and Delta of every
fixture surface, and over Q(sqrt m) on seeded random polynomials (products,
division, gcd, and the squarefree decomposition that the reference
`_square_cofactor` in `tests/oracles.py` runs, against `sqf_list` over QQ<sqrt(m)>).

Skipped when sympy is not installed (`pip install k3cm[test]` brings it in).
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from k3cm.exact import QQ, Polynomial, QuadField, QuadNum, resultant  # noqa: E402
from k3cm.surfaces import squarefree_decomposition  # noqa: E402
from oracles import rational_roots  # noqa: E402

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


def quad_to_sympy(f: Polynomial):
    """f over QQ<sqrt(m)>, each coefficient built as b*sqrt(m) + a in that field."""
    K = sp.QQ.algebraic_field(sp.sqrt(f.domain.m))
    q = lambda x: sp.QQ(x.numerator, x.denominator)  # noqa: E731
    return sp.Poly.from_list([K([q(c.b), q(c.a)]) for c in reversed(f.coeffs)] or [K(0)], T, domain=K)


def quad_from_element(c, m: int) -> QuadNum:
    """An element of QQ<sqrt(m)> read in the basis 1, sqrt(m)."""
    b, a = ([0, 0] + [Fraction(int(x.numerator), int(x.denominator)) for x in c.to_list()])[-2:]
    return QuadNum(a, b, m)


def quad_from_sympy(f, m: int) -> Polynomial:
    """Read each coefficient of f over QQ<sqrt(m)> in the basis 1, sqrt(m)."""
    assert f.domain.ext.as_expr() == sp.sqrt(m)
    return Polynomial(QuadField(m), [quad_from_element(c, m) for c in reversed(f.rep.to_list())])


def random_quad_poly(rng, m: int, degree: int) -> Polynomial:
    """A polynomial of the given degree over Q(sqrt m) with sparse parts."""
    def part():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) if rng.random() < 0.7 else 0

    lead = QuadNum(part(), Fraction(rng.choice((-3, -1, 1, 2)), rng.randrange(1, 5)), m)
    return Polynomial(QuadField(m), [QuadNum(part(), part(), m) for _ in range(degree)] + [lead])


def test_quadratic_field_arithmetic_matches_sympy():
    rng = random.Random(53)
    for m in (-1, 2, 21, -23, 85):
        for _ in range(3):
            f, g, h = (random_quad_poly(rng, m, rng.randrange(*span)) for span in ((5,), (4,), (1, 3)))
            sf, sg, sh = quad_to_sympy(f), quad_to_sympy(g), quad_to_sympy(h)
            assert f * g == quad_from_sympy(sf * sg, m), (m, f, g)
            q, r = f.divrem(g)
            sq, sr = sp.div(sf, sg)
            assert (q, r) == (quad_from_sympy(sq, m), quad_from_sympy(sr, m)), (m, f, g)
            assert (f * h).gcd(g * h) == quad_from_sympy(sp.gcd(sf * sh, sg * sh), m), (m, f, g, h)



def test_squarefree_decomposition_over_quadratic_fields_matches_sympy():
    # oracles.reference_square_cofactor, the check on `monic_sqrt`, decomposes over Q(sqrt m)
    rng = random.Random(59)
    for m in (-23, 21, 85, 2):
        for _ in range(2):
            g1, g2, g3 = (random_quad_poly(rng, m, deg) for deg in (1, 2, 3))
            f = g1 * g2 ** 2 * g3 ** 3 * random_quad_poly(rng, m, 2)
            lead, parts = squarefree_decomposition(f)
            sf = quad_to_sympy(f)
            s_lead, s_parts = sf.sqf_list()
            assert lead == quad_from_element(sf.domain.from_sympy(s_lead), m), (m, f)
            assert {i: g for g, i in parts} == {i: quad_from_sympy(g, m) for g, i in s_parts}, (m, f)
