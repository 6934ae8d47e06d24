import random
import re
from fractions import Fraction

import pytest

from k3cm.exact import GF, QQ, DomainError, PadicRing, Polynomial, QuadField
from k3cm.families import _Member
from k3cm.fixtures import registry
from k3cm.surfaces import (
    SurfaceError,
    UnsupportedFiberError,
    WeierstrassSurface,
    _discriminant_polys,
    _good_prime,
    classify_fibers,
    node_series,
    squarefree_decomposition,
)

from oracles import (
    Series,
    from_fractions,
    node_series_newton,
    poly_series,
    rational_roots,
    reference_discriminant_polys,
)


@pytest.fixture(scope="module")
def fam():
    return registry().family("xlm")


def P(*coeffs):
    return from_fractions(QQ, coeffs)


def test_family_member_fibers(fam):
    surf = fam.specialize(Fraction(5, 32))
    fibers = {str(f) for f in classify_fibers(surf)}
    assert fibers == {"I5@0", "I3@1", "I2@35/32", "I1@-5/1024", "I7@inf", "I0*@5/32"}


def test_family_splitting_classes_match_declared(fam):
    # tangent square classes against the declared lambda-expressions
    from k3cm.exact import squarefree_part

    decl_i5 = Polynomial.from_text(QQ, fam.splitting["i5"])
    decl_i3 = Polynomial.from_text(QQ, fam.splitting["i3"])
    decl_i7 = Polynomial.from_text(QQ, fam.splitting["i7"])
    for lam in (Fraction(5, 32), Fraction(7, 13), Fraction(539, 512), Fraction(-1, 7)):
        fibers = classify_fibers(fam.specialize(lam))
        by = {f.label(): f for f in fibers}
        kernel = lambda q: squarefree_part(q.numerator * q.denominator)
        assert by["I5"].split_class == kernel(decl_i5(lam))
        assert by["I3"].split_class == kernel(decl_i3(lam))
        assert by["I7"].split_class == kernel(decl_i7(lam))


def test_family_i0_cubic_matches_declared_up_to_scaling(fam):
    # residual cubic of the I0* fiber equals the declared splitting cubic
    # after the x-rescaling x -> s x (coefficients scale by s^i)
    lam = Fraction(7, 13)
    fibers = classify_fibers(fam.specialize(lam))
    cubic = next(f for f in fibers if f.kind == "I*").residual_cubic
    decl = [
        Polynomial.from_text(QQ, fam.splitting[f"i0cubic_x{i}"])(lam) for i in range(4)
    ]
    # find s from the quadratic coefficients, then check all of them
    s = cubic.coeffs[2] / decl[2]
    assert s != 0
    for i in range(4):
        assert cubic.coeffs[3 - i] == decl[3 - i] * s ** i


def test_extremal_merges_are_im_star(fam):
    from k3cm.families import INFINITY

    cases = {
        Fraction(-5, 1024): "I1*",
        Fraction(35, 32): "I2*",
        Fraction(1): "I3*",
        Fraction(0): "I5*",
        INFINITY: "I7*",
    }
    for lam, label in cases.items():
        fibers = classify_fibers(fam.specialize(lam))
        assert label in {f.label() for f in fibers}
        assert sum(f.euler * f.cusp.degree for f in fibers) == 24


def test_euler_sum_is_24_on_all_fixtures(fam):
    reg = registry()
    for name, fx in reg.surfaces.items():
        surf = fx.build_surface(reg)
        fibers = classify_fibers(surf)
        assert sum(f.euler * f.cusp.degree for f in fibers) == 24, name


def test_conjugate_pair_cusp_detected():
    reg = registry()
    surf = reg.surfaces["ex_5460"].build_surface(reg)
    fibers = classify_fibers(surf)
    orbit = [f for f in fibers if f.cusp.kind == "orbit"]
    assert len(orbit) == 1
    assert orbit[0].label() == "I2" and orbit[0].cusp.degree == 2


def test_unsupported_fiber_type_raises():
    # y^2 = x^3 + t: type II at t = 0
    surf = WeierstrassSurface(P(0), P(0), P(0, 1) + P(1) * P(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises((UnsupportedFiberError, SurfaceError)):
        classify_fibers(surf)


def test_classify_fibers_rejects_surfaces_not_over_q():
    reg = registry()
    surf = reg.surfaces["ex_3003"].build_surface(reg).map_domain(QuadField(21))
    with pytest.raises(SurfaceError, match=r"Q\(sqrt\(21\)\)"):
        classify_fibers(surf)


def test_chart_at_infinity_and_fibers_are_derived_once(fam, monkeypatch):
    import k3cm.surfaces

    calls = []
    original = k3cm.surfaces.classify_fibers
    monkeypatch.setattr(k3cm.surfaces, "classify_fibers", lambda s: calls.append(s) or original(s))
    member = fam.specialize(Fraction(5, 32))
    surf = WeierstrassSurface(member.a2, member.a4, member.a6)
    for model in (member, surf):
        assert model.flipped() is model.flipped()
        assert model.fibers is model.fibers
    # a family member takes its fibers from g, with no classify_fibers of its own
    assert calls == [surf]
    assert member.fibers == surf.fibers


def test_derived_models_carry_their_own_invariants(certified):
    # the chart at infinity and each mapped model take c4, c6 and Delta from
    # their parent; they must equal those computed from the model's own a_i
    def own(model):
        return _discriminant_polys(model.a2, model.a4, model.a6)

    fields = set()
    for name, surf, secs in certified:
        domains = {sec.u.domain for sec in secs} - {QQ}
        fields |= domains
        models = [surf.flipped(), surf.map_domain(GF(10007))]
        for K in domains:
            models += [surf.map_domain(K), surf.map_domain(K).flipped()]
        for model in models:
            assert (model.c4, model.c6, model.delta) == own(model), (name, model.domain)
    assert fields == {QuadField(21), QuadField(23), QuadField(85)}


def test_closed_form_invariants_equal_the_b_invariant_formula(fam, certified):
    # c4 = 16 a2^2 - 48 a4, c6 = -64 a2^3 + 288 a2 a4 - 864 a6, Delta = (c4^3 - c6^2)/1728
    # against b2, b4, b6, b8: on g, the 7 direct fixtures and seeded random models
    direct = [surf for _, surf, _ in certified if not isinstance(surf, _Member)]
    assert len(direct) == 7
    models = [(s.a2, s.a4, s.a6) for s in [fam.untwisted] + direct]
    rng = random.Random(1728)
    scalars = {QQ: lambda: Fraction(rng.randint(-60, 60), rng.randint(1, 12))}
    scalars.update({GF(p): (lambda p=p: rng.randrange(p)) for p in (7, 11, 13, 10007)})
    for domain, scalar in scalars.items():
        for _ in range(12):
            models.append(tuple(Polynomial(domain, [scalar() for _ in range(rng.randint(0, deg) + 1)])
                                for deg in (4, 8, 12)))
    for a2, a4, a6 in models:
        assert _discriminant_polys(a2, a4, a6) == reference_discriminant_polys(a2, a4, a6), a2.domain


@pytest.mark.parametrize("domain", [GF(2), GF(3), PadicRing(2, 4), PadicRing(3, 2)])
def test_invariants_refuse_a_domain_where_1728_is_not_a_unit(domain):
    a = Polynomial(domain, [domain.one, domain.one])
    with pytest.raises(DomainError, match=re.escape(f"1728, which is not a unit in {domain!r}")):
        _discriminant_polys(a, a, a)
    with pytest.raises(DomainError, match="1728"):
        WeierstrassSurface(a, a, a)


def test_mapped_model_with_vanishing_delta_is_rejected():
    # Delta is 16 times an integral expression in the a_i: it vanishes mod 2
    surf = WeierstrassSurface(P(1), P(0, 1), P(0, 0, 1))
    assert not surf.delta.is_zero()
    with pytest.raises(SurfaceError, match="Delta = 0"):
        surf.map_domain(GF(2))
    assert not surf.map_domain(GF(3)).delta.is_zero()


def test_degree_bounds_enforced():
    with pytest.raises(SurfaceError):
        WeierstrassSurface(P(*([1] * 6)), P(1), P(1))


def test_rational_roots_with_huge_coefficients():
    f = (P(-5, 1024) ** 2) * P(Fraction(3), 1) * P(1, 0, 1)
    roots = rational_roots(f)
    assert roots == {Fraction(5, 1024): 2, Fraction(-3): 1}


def test_rational_root_beyond_any_fixed_lift():
    # a has 800 bits: no fixed lift to p^128 with p < 3000 (under 1480 bits)
    # reconstructs it; the lift bound 2 max(|c|, |lc|)^2 is read off g
    a = Fraction(2**800 + 1, 3)
    assert rational_roots(P(-a, 1) * P(1, 0, 1)) == {a: 1}


def test_root_prime_skips_bad_reductions():
    # 1 = 6 mod 5 and 7t^2 + 11 = 7t^2 mod 11 give double roots, and 7 | lc;
    # at 13, the first good prime, 7t^2 + 11 has two roots that lift to no rational
    f = P(-1, 1) * P(-6, 1) * P(11, 0, 7)
    assert _good_prime(f.int_coeffs[0]) == 13
    assert rational_roots(f) == {Fraction(1): 1, Fraction(6): 1}


def test_squarefree_decomposition_roundtrip():
    f = P(1, 1) ** 3 * P(-2, 1) * P(1, 0, 1) ** 2
    lead, sq = squarefree_decomposition(f)
    rebuilt = Polynomial.constant(QQ, lead)
    for g, e in sq:
        rebuilt = rebuilt * g ** e
    assert rebuilt == f
    assert sorted(e for _, e in sq) == [1, 2, 3]


def test_node_series_tracks_critical_point(fam):
    surf = fam.specialize(Fraction(5, 32))
    x = Series(QQ, node_series(surf, Fraction(0), Fraction(0), 6), 6)
    # f'(x(t)) = 3x^2 + 2 a2 x + a4 vanishes to working precision
    a2s = poly_series(surf.a2, Fraction(0), 6)
    a4s = poly_series(surf.a4, Fraction(0), 6)
    three = Series(QQ, [Fraction(3)], 6)
    two = Series(QQ, [Fraction(2)], 6)
    assert (three * x * x + two * a2s * x + a4s).is_zero_to_prec()


def test_node_series_matches_the_series_newton_at_every_table1_node(fam):
    # the square-root recurrence against the Newton iteration in the series ring
    # it replaced, at every I_n node (n >= 2) of the 26 Table 1 members, in the
    # chart at infinity for the node there, as `lift._contact_rows` reads them
    checked = 0
    for row in registry().table1:
        surf = fam.specialize(row.lam)
        for f in surf.fibers:
            if f.kind != "I" or f.n < 2:
                continue
            chart, t0 = (surf.flipped(), Fraction(0)) if f.cusp.kind == "infinity" else (surf, f.cusp.value)
            for prec in (3, 8):
                got = node_series(chart, t0, f.node_x, prec)
                assert got == node_series_newton(chart, t0, f.node_x, prec).coeffs, (row.disc, str(f), prec)
                checked += 1
    assert checked == 208


def test_node_series_refuses_a_degenerate_or_missing_node():
    # at t = 0 the fiber cubic is x^3: f'(0) = f''(0) = 0
    surf = WeierstrassSurface(P(0, 1), P(0, 1), P(0, 0, 1))
    with pytest.raises(SurfaceError, match="degenerate node"):
        node_series(surf, Fraction(0), Fraction(0), 4)
    with pytest.raises(SurfaceError, match="not a critical point"):
        node_series(surf, Fraction(0), Fraction(1), 4)
