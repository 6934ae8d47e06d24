import dataclasses
from fractions import Fraction

import pytest

import k3cm.counting as counting
from k3cm.counting import (
    CountCache,
    CountingError,
    FpFiber,
    algebraic_trace,
    analyze_fibers_mod_p,
    count_family_member,
    count_surface,
    count_weierstrass,
    lefschetz_candidates,
    smooth_correction,
    twist_table,
)
from k3cm.exact import GF, Polynomial
from k3cm.fixtures import registry
from k3cm.newforms import NewformOracle
from k3cm.surfaces import SurfaceError, UnsupportedFiberError, WeierstrassSurface, classify_fibers


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def fam(reg):
    return reg.family("xlm")


def test_single_fiber_brute_force():
    # constant fiber y^2 = x^3 - x over F_5: 7 affine points + infinity
    F = GF(5)
    surf = WeierstrassSurface(
        Polynomial(F, []), Polynomial(F, [4]), Polynomial(F, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
        name="const",
    )
    total = count_weierstrass(surf)
    # every fiber over F_5 and the flip chart contributes; spot check one fiber
    chi = [0, 1, -1, -1, 1]
    fiber0 = 5 + 1 + sum(chi[(x**3 - x) % 5] for x in range(5))
    assert fiber0 == 8  # 7 affine + infinity


def test_fixed_component_tables():
    p = 13
    assert FpFiber(0, "I", 5, split=True).fixed_components == 4
    assert FpFiber(0, "I", 3, split=False).fixed_components == 0
    assert FpFiber(0, "I", 4, split=False).fixed_components == 1
    assert FpFiber(0, "I*", 0, r3=3).fixed_components == 4
    assert smooth_correction([FpFiber(0, "I", 5, True)], p) == 4 * p
    with pytest.raises(CountingError):
        FpFiber(0, "I*", 2).fixed_components


def test_algebraic_trace_generic_member():
    # all fibers split, three rational I0* legs, no extra section: 19
    fibers = [
        FpFiber(0, "I", 5, True),
        FpFiber(1, "I", 3, True),
        FpFiber(2, "I", 2, True),
        FpFiber(3, "I", 1, True),
        FpFiber(None, "I", 7, True),
        FpFiber(4, "I*", 0, r3=3),
    ]
    assert algebraic_trace(fibers, 0) == 19


def test_lefschetz_candidates_algebra():
    p = 23
    n = 1 + p * p + 20 * p + 42
    assert set(lefschetz_candidates(n, p, 19)) == {42, 42 + 2 * p}


def test_mod_p_analysis_agrees_with_char0(reg, fam):
    surf = fam.specialize(Fraction(5, 32), name="d88")
    fibers0 = classify_fibers(surf)
    for p in (13, 19, 23):
        fibers_p = analyze_fibers_mod_p(surf.map_domain(GF(p)))
        # same multiset of (kind, n) after reducing rational cusps
        want = sorted((f.kind, f.n) for f in fibers0 for _ in range(f.cusp.degree))
        got = sorted((f.kind, f.n) for f in fibers_p)
        assert got == want


def test_fibers_outside_the_tables_are_counting_errors():
    # the Kodaira classifier's rejections come back as CountingError, which scan_prime skips
    F = GF(7)
    P = lambda *cs: Polynomial(F, [c % 7 for c in cs])
    cases = [
        (P(), P(), P(0, 1), UnsupportedFiberError),           # y^2 = x^3 + t: type II at t = 0
        (P(-3), P(3, 0, 1), P(-1, 0, -1, 1), SurfaceError),    # I_0* at t = 0, node at x = 1
        (P(0, 1), P(), P(0, 0, 0, 0, 1), None),                # I_1* at t = 0
    ]
    for a2, a4, a6, cause in cases:
        with pytest.raises(CountingError, match="t=0") as info:
            analyze_fibers_mod_p(WeierstrassSurface(a2, a4, a6, name="additive"))
        if cause is None:
            assert "I1*" in str(info.value)
        else:
            assert isinstance(info.value.__cause__, cause)


def test_closed_loop_disc88(reg, fam):
    surf = fam.specialize(Fraction(5, 32), name="d88")
    oracle = NewformOracle(-88)
    for p in (13, 19, 23, 29, 31):
        smooth, t_alg, cands = count_surface(surf, p)
        vals = oracle.eigenvalue_abs(p)
        assert any(abs(c) in vals for c in cands), (p, cands, vals)


def test_supersingular_pattern_flagged():
    # Weil-window integrity check on the record type
    from k3cm.counting import CountRecord

    with pytest.raises(CountingError):
        CountRecord("f", 7, 0, count=10**6, t_alg=0)


def test_count_cache_semantics(tmp_path):
    path = tmp_path / "counts.cache"
    c = CountCache(str(path))
    c.put("fam", 7, 3, 120)
    c.put("fam", 7, 3, 120)  # idempotent
    assert c.get("fam", 7, 3) == 120
    with pytest.raises(CountingError):
        c.put("fam", 7, 3, 121)
    # reload from disk reproduces the value bit-exactly
    c2 = CountCache(str(path))
    assert c2.get("fam", 7, 3) == 120


def test_family_member_counts_bounded(fam):
    p = 23
    for lam in range(1, p):
        if lam in (0, 1):
            continue
        try:
            n, t_alg, _ = count_family_member(fam, p, lam)
        except CountingError:
            continue
        assert abs(n - 1 - p * p - p * t_alg) <= 3 * p


# ---------------------------------------------------------------------------
# twist path against the brute-force path (the oracle)
# ---------------------------------------------------------------------------

def brute_force_member(fam, p, lam):
    """((smooth, t_alg, candidates), fibers) by specialize + analyze + count,
    or the type of the error that path raises."""
    try:
        surf = fam.specialize_mod(p, lam)
        fibers = analyze_fibers_mod_p(surf)
    except CountingError as e:
        return type(e)
    smooth = count_weierstrass(surf) + smooth_correction(fibers, p)
    t_alg = algebraic_trace(fibers, 0)
    return (smooth, t_alg, lefschetz_candidates(smooth, p, t_alg)), fibers


def count_or_error(fam, p, lam):
    try:
        return count_family_member(fam, p, lam)
    except CountingError as e:
        return type(e)


class CallCounter:
    """Counts calls of the general path's counting functions."""

    def __init__(self, monkeypatch):
        self.calls = {"analyze": 0, "count": 0}
        for key, name in (("analyze", "analyze_fibers_mod_p"), ("count", "count_weierstrass")):
            monkeypatch.setattr(counting, name, self._wrap(key, getattr(counting, name)))

    def _wrap(self, key, fn):
        def wrapped(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped


def test_twist_path_matches_brute_force(fam):
    for p in fam.good_primes(61):
        table = twist_table(fam, p)
        assert table is not None, p
        for lam in range(p):
            if lam in table.cusps:
                continue
            want, want_fibers = brute_force_member(fam, p, lam)
            assert count_family_member(fam, p, lam) == want, (p, lam)
            assert table.fibers(lam) == want_fibers, (p, lam)


def test_lambdas_on_cusps_of_g_take_the_general_path(fam, monkeypatch):
    spy = CallCounter(monkeypatch)
    for p in fam.good_primes(61):
        table = twist_table(fam, p)
        # Delta_g(lambda) = 0 exactly on the family's degenerate lambdas
        assert set(table.cusps) == set(fam.degenerate_lambdas(p)), p
        for lam in range(p):
            before = dict(spy.calls)
            got = count_or_error(fam, p, lam)
            general = spy.calls["analyze"] > before["analyze"]
            assert general == (lam in table.cusps), (p, lam)
            if general:
                assert got == CountingError     # the member leaves the fiber tables
                assert brute_force_member(fam, p, lam) == CountingError


def test_non_twist_family_takes_the_general_path(fam, monkeypatch):
    # a2 = t A: the (t-lambda) exponents become (0, 2, 3), so no twist table
    other = dataclasses.replace(fam, name="xlm_t", pre_a2=(1, 0, 0))
    assert other.twist_exponents == (0, 2, 3)
    spy = CallCounter(monkeypatch)
    p = other.good_primes(30)[0]
    for lam in range(p):
        want = brute_force_member(other, p, lam)
        got = count_or_error(other, p, lam)
        assert got == (want if want == CountingError else want[0]), lam
    assert other.twist_tables == {p: None}
    assert spy.calls["analyze"] == p          # every member went through the general path
    assert fam.twist_tables.get(p, "unbuilt") is not None
