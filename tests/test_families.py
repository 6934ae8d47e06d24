"""A family's fixed fibers, bad primes and degenerate lambdas, all read off g over Q."""

import dataclasses
import random
import re
from fractions import Fraction
from importlib import resources

import pytest

from k3cm.counting import TwistTable
from k3cm.exact import GF, QQ, Polynomial, primes_up_to, roots_mod_p
from k3cm.families import INFINITY, Family
from k3cm.fixtures import family_from_text, parse_blocks, registry
from k3cm.surfaces import WeierstrassSurface, _discriminant_polys, _square_class, classify_fibers
from oracles import reduces_cleanly, untwisted_mod
from test_counting import I0_STAR_AT_0, I0_STAR_AT_INF, I1_STAR_AT_0

FAMILY_TEXT = resources.files("k3cm").joinpath("data/family_xlm.fam").read_text()


@pytest.fixture(scope="module")
def fam():
    return registry().family("xlm")


def fresh(fam, **changes):
    """A copy of the family with nothing derived yet."""
    return dataclasses.replace(fam, **changes)


def stale(fam):
    """xlm at mu = 81/10, where Delta_g = c t^5 (t-1)^3 (an irreducible cubic)."""
    return fresh(fam, mu=Fraction(81, 10))


def test_delta_of_g_is_decomposed_once(fam, monkeypatch):
    # the bad-prime rule and the fixed fibers read one squarefree decomposition of Delta_g
    import k3cm.surfaces as surfaces

    decomposed, real = [], surfaces.squarefree_decomposition
    monkeypatch.setattr(surfaces, "squarefree_decomposition", lambda f: decomposed.append(f) or real(f))
    family = fresh(fam)
    family.bad_primes(200)
    assert family.fixed_fibers and family.degenerate_lambdas(13)
    TwistTable.build(family, 13)
    assert decomposed == [family.untwisted.delta]


def test_bad_primes_follow_the_reduction_of_g(fam, monkeypatch):
    def no_member(*args, **kwargs):
        raise AssertionError("a member was specialized")

    monkeypatch.setattr(Family, "specialize", no_member)
    for family in (fresh(fam), stale(fam)):
        want = {p for p in primes_up_to(400) if not reduces_cleanly(family, p)}
        assert family.bad_primes(400) == want, family.mu
    assert fresh(fam).bad_primes(400) == {2, 3, 5, 7}
    assert stale(fam).bad_primes(400) == {2, 3, 5, 7, 11, 13}


def test_bad_primes_respect_their_bound(fam):
    assert fam.bad_primes(2000) == {2, 3, 5, 7}
    assert fam.bad_primes(7) == {2, 3, 5, 7}
    assert fam.bad_primes(6) == {2, 3, 5}
    assert fam.bad_primes(1) == set()
    good = fam.good_primes(13)
    assert good == [11, 13]


def test_twist_tables_carry_the_fibers_of_g_over_q(fam):
    for family in (fresh(fam), stale(fam)):
        g = family.untwisted
        inf = [f for f in family.fixed_fibers if f.cusp.kind == "infinity"]
        for p in family.good_primes(199):
            table = TwistTable.build(family, p)
            degenerate = family.degenerate_lambdas(p)
            # the cusps are the roots of Delta_g mod p, recomputed from g's reduced coefficients
            delta_p = _discriminant_polys(*untwisted_mod(family, p))[2]
            assert set(table.cusps) == set(degenerate) == roots_mod_p(delta_p), (family.mu, p)
            for t0, f in table.cusps.items():
                over_q = degenerate[t0]
                assert (f.kind, f.n) == (over_q.kind, over_q.n), (family.mu, p, t0)
                assert delta_p.valuation_at(t0) == over_q.n, (family.mu, p, t0)
            assert (table.inf_fiber.kind, table.inf_fiber.n) == (inf[0].kind, inf[0].n)
            assert 18 - g.delta.degree == inf[0].n


def test_the_declared_cusp_block_matches_the_derived_fibers(fam):
    declared = dict(kv for name, block in parse_blocks(FAMILY_TEXT) if name == "cusps" for kv in block.items())
    assert declared == {"i5": "0", "i3": "1", "i2": "35/32", "i1": "-5/1024", "i7": "inf", "i0*": "lambda"}
    derived = {f.label().lower(): str(f.cusp) for f in fam.fixed_fibers}
    assert declared == {**derived, "i0*": "lambda"}
    # a member has the fixed fibers and the I0* at t = lambda, and nothing else
    lam = Fraction(7, 13)
    member = {(f.label(), str(f.cusp)) for f in fam.specialize(lam).fibers}
    assert member == {(f.label(), str(f.cusp)) for f in fam.fixed_fibers} | {("I0*", "7/13")}


def test_a_family_of_another_shape_is_refused(fam):
    # a2 = t A: the (t-lambda) exponents become (0, 2, 3), so lambda no longer enters as a twist
    with pytest.raises(ValueError, match=r"\(0, 2, 3\)"):
        dataclasses.replace(fam, pre_a2=(1, 0, 0))
    text = FAMILY_TEXT.replace("pre_a2 = 0,0,1", "pre_a2 = 1,0,0")
    assert text != FAMILY_TEXT
    with pytest.raises(ValueError, match=r"\(0, 2, 3\)"):
        family_from_text(text)


def test_degenerate_lambdas_name_orbit_cusps(fam):
    # at p = 23 the cubic factor of the stale family's Delta_g has the root 4
    family = stale(fam)
    degenerate = family.degenerate_lambdas(23)
    cubic = [f for f in family.fixed_fibers if f.cusp.kind == "orbit"]
    assert len(cubic) == 1 and cubic[0].cusp.value.degree == 3 and cubic[0].label() == "I1"
    assert degenerate[4] is cubic[0]
    assert set(degenerate) == {0, 1} | roots_mod_p(cubic[0].cusp.value.map_domain(GF(23)))
    assert 9 not in degenerate and 13 not in degenerate
    assert set(family.degenerate_lambdas(19)) == {0, 1}


def member_lambdas(family, seed: int, spread: int = 12) -> list:
    """INFINITY, every finite cusp of g, every Table 1 lambda and a seeded spread."""
    rng = random.Random(seed)
    cusps = [f.cusp.value for f in family.fixed_fibers if f.cusp.kind == "finite"]
    table1 = [row.lam for row in registry().table1]
    spread = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(spread)]
    return [INFINITY] + cusps + table1 + spread


def assembled(family, lam, mu) -> tuple:
    """t^i (t-1)^j (t-lambda)^k times each block at mu, with (t-lambda)^k = (-1)^k at INFINITY."""
    t, one = Polynomial.x(QQ), Polynomial.constant(QQ, Fraction(1))
    lin = -one if lam == INFINITY else t - Polynomial.constant(QQ, lam)
    out = []
    for block, (i, j, k) in ((family.A, family.pre_a2), (family.B, family.pre_a4), (family.C, family.pre_a6)):
        out.append(Polynomial(QQ, [c(mu) for c in block]) * t ** i * (t - one) ** j * lin ** k)
    return tuple(out)


def test_members_take_their_invariants_and_fibers_from_g(fam):
    """Each member equals the surface built from its own coefficients, classified on its own."""
    # (family, mu): each family at its fixed mu, and xlm at ex_1155's mu 9/130 passed to
    # `specialize`, where g's I1 cusps are an orbit and a rational lambda can merge into none
    cases = [(family, family.mu) for family in (fam, stale(fam), I0_STAR_AT_0, I0_STAR_AT_INF, I1_STAR_AT_0)]
    cases.append((fam, Fraction(9, 130)))
    checked = raised = 0
    for seed, (family, mu) in enumerate(cases):
        for lam in member_lambdas(fresh(family, mu=mu), seed):
            member = family.specialize(lam, mu=mu)
            assert (member.a2, member.a4, member.a6) == assembled(family, lam, mu), (family.name, mu, lam)
            own = WeierstrassSurface(member.a2, member.a4, member.a6)
            assert (member.c4, member.c6, member.delta) == (own.c4, own.c6, own.delta), (family.name, mu, lam)
            try:
                want = classify_fibers(own)
            except ValueError as exc:   # a non-minimal merge: the member raises the same error
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    member.fibers
                raised += 1
                continue
            assert member.fibers == want, (family.name, mu, lam)
            checked += 1
    assert checked >= 240 and raised <= 5   # 242 and 3 with these seeds


def certified_members(reg):
    """(name, member) for the non-defective Table 1 rows, then the 5 extremal rows, each built anew."""
    fixtures = [row.fixture() for row in reg.table1 if row.status != "defective"] + reg.extremal
    return [(fx.name, fx.build_surface(reg)) for fx in fixtures]


def test_certified_members_classify_only_at_a_cusp_of_g(monkeypatch):
    """Where Delta_g(lambda) != 0 the fiber at t = lambda is g's I0*, built with no classify_at."""
    import k3cm.families

    reg = registry()
    xlm = reg.family("xlm")
    xlm.fixed_fibers   # g's own fibers, classified once per family
    calls = []
    original = k3cm.families.classify_at
    monkeypatch.setattr(k3cm.families, "classify_at", lambda *a: calls.append(a) or original(*a))
    members = certified_members(reg)
    assert len(members) == 30
    for name, member in members:
        del calls[:]
        own = WeierstrassSurface(member.a2, member.a4, member.a6)
        assert member.fibers == classify_fibers(own), name
        assert len(calls) == (1 if name.startswith("extremal_") else 0), name
        if name.startswith("table1_"):
            at_lam = next(f for f in member.fibers if f.cusp.value == member.lam)
            assert (at_lam.kind, at_lam.n) == ("I*", 0)
            assert at_lam.residual_cubic == xlm.untwisted.fiber_cubic(member.lam)


def test_the_chart_of_g_is_g_reversed_at_weight_3(fam):
    """g.flipped() is g in the chart s = 1/t, X' = X/t^3: a2, a4, a6 reversed to degrees 3, 6, 9
    and c4, c6, Delta to 6, 9, 18, named as g's chart at infinity."""
    for family in (fresh(fam), stale(fam), I0_STAR_AT_0, I0_STAR_AT_INF, I1_STAR_AT_0):
        g = family.untwisted
        chart = g.flipped()
        assert (g.weight, chart.weight, chart.name) == (3, 3, f"{family.name}~untwisted~inf")
        assert (chart.a2, chart.a4, chart.a6) == (g.a2.reverse(3), g.a4.reverse(6), g.a6.reverse(9)), family.name
        assert (chart.c4, chart.c6, chart.delta) == (g.c4.reverse(6), g.c6.reverse(9), g.delta.reverse(18))
        assert (chart.c4, chart.c6, chart.delta) == _discriminant_polys(chart.a2, chart.a4, chart.a6)


def test_twisted_equals_the_replaced_descriptor(fam):
    """`FiberDescriptor.twisted` builds each field as a `dataclasses.replace` of the fiber would."""
    def replaced(f, c):
        times = lambda x: None if x is None else c * x
        cubic = f.residual_cubic
        return dataclasses.replace(
            f, node_x=times(f.node_x), double_root=times(f.double_root),
            split_class=None if f.split_class is None else _square_class(QQ, c * f.split_class),
            residual_cubic=None if cubic is None else Polynomial(
                QQ, [c ** (3 - i) * r for i, r in enumerate(cubic.coeffs)]))

    seen = 0
    for family in (fresh(fam), stale(fam), I0_STAR_AT_0, I0_STAR_AT_INF, I1_STAR_AT_0):
        for f in family.fixed_fibers:
            for c in (Fraction(-1), Fraction(3), Fraction(-5, 32), Fraction(7, 4)):
                assert f.twisted(c) == replaced(f, c), (family.name, str(f), c)
                seen += 1
    assert seen >= 4 * 15
