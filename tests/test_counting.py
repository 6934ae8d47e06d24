import dataclasses
import re
import sys
from array import array
from fractions import Fraction

import pytest

import k3cm.counting as counting
import k3cm.surfaces as surfaces
from k3cm.counting import (
    CountCache,
    CountingError,
    TwistTable,
    analyze_fibers_mod_p,
    count_family_member,
    count_surface,
    count_weierstrass,
    depressed_cubic_sums,
    fixed_components,
    lefschetz_candidates,
    log_key,
    twist_table,
)
from k3cm.exact import GF, Polynomial, primes_up_to
from k3cm.families import Family
from k3cm.fixtures import family_from_text, registry
from k3cm.newforms import NewformOracle
from k3cm.search import scan_prime
from k3cm.surfaces import (
    Cusp,
    FiberDescriptor,
    SurfaceError,
    UnsupportedFiberError,
    WeierstrassSurface,
    _discriminant_polys,
    classify_fibers,
)
from oracles import (
    classified_fibers_of_g,
    depressed_per_t,
    fiber_rows,
    raw_count_per_member,
    reference_cache_load,
    table_fibers,
    twist_fibers,
    twist_sums,
)


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def fam(reg):
    return reg.family("xlm")


def twist_family(name, A, B, C, pre=("1,0,1", "2,0,2", "3,0,3")):
    """A (1, 2, 3)-twist family at mu = 1 with the given blocks and (t, t-1, t-lambda) exponents."""
    return family_from_text(f"[family]\nname = {name}\nA = {A}\nB = {B}\nC = {C}\n"
                            f"pre_a2 = {pre[0]}\npre_a4 = {pre[1]}\npre_a6 = {pre[2]}\nmu = 1\n")


# g with an I0* fiber at t = 0, at infinity, and an I1* fiber at t = 0, at infinity;
# the rest of Delta_g is I1 orbits
I0_STAR_AT_0 = twist_family("i0star_at_0", "1|2|-1", "-3|1|0|2|1", "5|-1|3|0|1|-2|1")
I0_STAR_AT_INF = twist_family("i0star_at_inf", "-1|2|1", "1|2|0|1|-3", "1|-2|1|0|3|-1|5",
                              pre=("0,0,1", "0,0,2", "0,0,3"))
I1_STAR_AT_0 = twist_family("i1star_at_0", "0|2|-1", "-3|1|0|2|1", "2|-1|3|0|1|-2|1")
I1_STAR_AT_INF = twist_family("i1star_at_inf", "-1|2", "1|2|0|1|-3", "1|-2|1|0|3|-1|2",
                              pre=("0,0,1", "0,0,2", "0,0,3"))


@pytest.fixture(scope="module")
def families(fam):
    """xlm (I_n nodes at its cusps of g) and the two families whose g has an I0* fiber."""
    return [fam, I0_STAR_AT_0, I0_STAR_AT_INF]


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


P13 = 13           # 3 is a square mod 13, 2 is not
THREE_ROOTS = Polynomial(GF(P13), [-6 % P13, 11, -6 % P13, 1])   # (x - 1)(x - 2)(x - 3)


def fiber_mod_13(t0, kind, n, **data) -> FiberDescriptor:
    return FiberDescriptor(Cusp.infinity() if t0 is None else Cusp.finite(t0), kind, n, **data)


def test_fixed_component_tables():
    assert fixed_components(fiber_mod_13(0, "I", 5, split_class=3), P13) == 4       # split
    assert fixed_components(fiber_mod_13(0, "I", 3, split_class=2), P13) == 0       # non-split, odd
    assert fixed_components(fiber_mod_13(0, "I", 4, split_class=2), P13) == 1       # non-split, even
    assert fixed_components(fiber_mod_13(0, "I*", 0, residual_cubic=THREE_ROOTS), P13) == 4
    with pytest.raises(UnsupportedFiberError, match="I2\\*"):
        fixed_components(fiber_mod_13(0, "I*", 2), P13)


def test_algebraic_trace_generic_member():
    # all fibers split, three rational I0* legs, no extra section: 19
    fibers = [
        fiber_mod_13(0, "I", 5, split_class=1),
        fiber_mod_13(1, "I", 3, split_class=3),
        fiber_mod_13(2, "I", 2, split_class=4),
        fiber_mod_13(3, "I", 1),
        fiber_mod_13(None, "I", 7, split_class=9),
        fiber_mod_13(4, "I*", 0, residual_cubic=THREE_ROOTS),
    ]
    assert 2 + sum(fixed_components(f, P13) for f in fibers) == 19


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
        (P(0, 1), P(), P(0, 0, 0, 0, 1), UnsupportedFiberError),   # I_1* at t = 0
    ]
    for a2, a4, a6, cause in cases:
        with pytest.raises(CountingError, match="t=0") as info:
            analyze_fibers_mod_p(WeierstrassSurface(a2, a4, a6, name="additive"))
        assert isinstance(info.value.__cause__, cause)
    assert "I1* fibers are outside the counting tables" in str(info.value)


def test_closed_loop_disc88(reg, fam):
    surf = fam.specialize(Fraction(5, 32), name="d88")
    oracle = NewformOracle(-88)
    for p in (13, 19, 23, 29, 31):
        smooth, t_alg, cands = count_surface(surf, p)
        vals = oracle.eigenvalue_abs(p)
        assert any(abs(c) in vals for c in cands), (p, cands, vals)


def test_surface_count_matches_brute_force(reg, fam):
    # count_surface off the S sums against the O(p^2) count plus p per fixed component of the
    # surface's fiber list, at every good prime <= 61; fibers the tables reject raise on both sides
    rows = {row.disc: row for row in reg.table1}
    surfaces = [fam.specialize(rows[disc].lam, name=f"d{disc}") for disc in (-88, -660)]
    surfaces += [reg.surfaces[name].build_surface(reg) for name in ("ex_5460", "ex_1155")]
    surfaces.append(reg.extremal[0].build_surface(reg))
    counted = raised = 0
    for surf in surfaces:
        for p in primes_up_to(61):
            if surf.is_bad_prime(p):
                continue
            try:
                want = brute_force(surf.map_domain(GF(p)), p)[0]
            except CountingError:
                with pytest.raises(CountingError, match=f"mod {p} at t=") as info:
                    count_surface(surf, p)
                assert isinstance(info.value.__cause__, UnsupportedFiberError), (surf.name, p)
                raised += 1
                continue
            assert count_surface(surf, p) == want, (surf.name, p)
            counted += 1
    assert (counted, raised) == (34, 25)    # ex_1155 and the extremal row have an I1* fiber


def test_count_surface_refuses_a_bad_prime(reg):
    # Delta of ex_5460 changes shape mod these primes: the count there is not the surface's
    surf = reg.surfaces["ex_5460"].build_surface(reg)
    for p in (11, 13, 23, 41, 61):
        with pytest.raises(CountingError, match=f"ex_5460: p = {p} is a bad prime"):
            count_surface(surf, p)
    assert [p for p in primes_up_to(113) if surf.is_bad_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 23, 41, 61]
    assert count_surface(surf, 19)[1] >= 2


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


PUTS = [("fam", 7, 3, 120), ("fam", 7, 5, 98), ("other", 11, 2, 150), ("fam", 7, 3, 120)]


def test_a_member_count_is_checked_against_the_cache_not_read_from_it(fam, tmp_path, capsys):
    # a wrong count already in the cache file is a conflict, never the member's count
    from k3cm.cli import main

    path, key = tmp_path / "counts.cache", log_key(fam)
    smooth = count_family_member(fam, 13, 3)[0]
    path.write_text(f"{key} 13 3 {smooth + 91}\n")
    count = ["--cache", str(path), "count", "--prime", "13"]
    assert main(count + ["--lambda", "3"]) == 2
    assert capsys.readouterr() == (
        "", f"input error: cache conflict for ('{key}', 13, 3): {smooth + 91} vs {smooth} (determinism breach)\n")
    assert main(count) == 2
    assert capsys.readouterr() == ("", f"input error: cache conflict for ('{key}', 13, 3): "
                                       f"{smooth + 91} vs {smooth} (determinism breach)\n")
    assert main(count + ["--lambda", str(4 + 13)]) == 0
    smooth, t_alg, (c1, c2) = count_family_member(fam, 13, 4)
    assert capsys.readouterr().out == f"4\t{smooth}\t{t_alg}\t{c1}\t{c2}\n"
    assert CountCache(str(path)).get(key, 13, 4) == smooth    # keyed on lambda mod p


def test_batch_writes_the_lines_of_separate_puts(tmp_path):
    one, batched = tmp_path / "one.cache", tmp_path / "batched.cache"
    c = CountCache(str(one))
    for put in PUTS:
        c.put(*put)
    b = CountCache(str(batched))
    with b.batch():
        for put in PUTS:
            b.put(*put)
        assert b.get("fam", 7, 5) == 98 and not batched.exists()   # in data, not yet on disk
        with pytest.raises(CountingError):
            b.put("fam", 7, 5, 99)
    assert batched.read_text() == one.read_text()
    assert len(one.read_text().splitlines()) == 3
    assert CountCache(str(batched)).data == b.data == c.data


def test_batch_writes_its_puts_when_an_error_ends_it(tmp_path, monkeypatch):
    path = tmp_path / "counts.cache"
    c = CountCache(str(path))
    opens = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda f, *a, **k: opens.append(f) or real_open(f, *a, **k))
    with pytest.raises(RuntimeError):
        with c.batch():
            c.put(*PUTS[0])
            c.put(*PUTS[1])
            assert opens == []
            raise RuntimeError("member loop interrupted")
    assert opens == [str(path)]
    assert path.read_text() == "fam 7 3 120\nfam 7 5 98\n"
    with c.batch():                             # a batch with no new put writes nothing
        c.put(*PUTS[0])
    assert opens == [str(path)]


def test_load_skips_corrupt_lines_and_rejects_conflicts(tmp_path, capsys):
    path = tmp_path / "counts.cache"
    path.write_text("# comment\n\nfam 7 3 120\n  fam 7 3 120  \nfam 7 4\nfam 7 5 98\n")
    c = CountCache(str(path))
    assert c.data == {"fam 7 3": "120", "fam 7 5": "98"}
    assert capsys.readouterr().err == "cache: skipping corrupt line 'fam 7 4'\n"
    with open(path, "a") as fh:
        fh.write("fam 7 5 97\n")
    with pytest.raises(CountingError, match=r"cache conflict for \('fam', 7, 5\): 98 vs 97"):
        CountCache(str(path))


HAND_WRITTEN_LOGS = [
    "# comment\n\n   \nfam 7 3 120\n  # an indented comment\n#fam 7 4 1\n",
    "  fam 7 3 120  \n\tfam 7 5 98\t\nfam 7 3 120\r\nfam 7 6 -4\n",
    "fam 7 4\nfam 7 5 98\nfam 7\nfam 7 3 120 5\n",
    "fam 7 4\nfam 7 5 98\nfam 7 5 98\nfam 7 5 97\nfam 7 6\nfam 7 5 96\n",   # clash after a corrupt line
    "fam 7 5 98\nfam 7 4",                                                  # no newline at the end
    " \t# comment\n\t\n  fam 7 3 120 \t\n   \n\t#fam 7 4 1",                     # padding before a comment
    "",
]


def _read_log(reader, path, capsys):
    """(entries as (KEY, p, lambda) -> count, or the error raised; stderr) of one reader."""
    try:
        out = reader(path)
    except (CountingError, ValueError) as exc:
        out = (type(exc), str(exc))
    return out, capsys.readouterr().err


def _bulk_reader(path):
    """`CountCache`'s entries in the reference reader's form."""
    out = {}
    for key, n in CountCache(str(path)).data.items():
        fam, p, lam = key.split(" ")
        out[fam, int(p), int(lam)] = int(n)
    return out


def test_the_bulk_reader_matches_the_line_by_line_reference(tmp_path, capsys):
    from k3cm.cli import main

    real = tmp_path / "search.cache"
    assert main(["--cache", str(real), "search", "--disc", "-1540", "--primes", "6"]) == 0
    capsys.readouterr()
    logs = [real.read_text()] + HAND_WRITTEN_LOGS
    assert len(logs[0].splitlines()) > 200
    for i, text in enumerate(logs):
        path = tmp_path / f"{i}.cache"
        path.write_text(text)
        assert _read_log(_bulk_reader, path, capsys) == _read_log(reference_cache_load, path, capsys), text[:40]
    clash, err = _read_log(_bulk_reader, tmp_path / "4.cache", capsys)
    assert clash == (CountingError, "cache conflict for ('fam', 7, 5): 98 vs 97 (determinism breach)")
    assert err == "cache: skipping corrupt line 'fam 7 4'\n"


def test_a_line_not_in_the_canonical_form_is_corrupt_where_it_was_read_or_raised(tmp_path, capsys):
    # the one intended divergence from the line-by-line reader: a field that is not a
    # canonical integer, or fields not one space apart, make the line corrupt; that reader
    # raised ValueError on "x", and read "+120", "-0" and "fam  7" as integers and a key
    path, read = tmp_path / "counts.cache", {("fam", 7, 3): 120, ("fam", 7, 5): 98}
    for line, reference in (("fam 7 x 120", (ValueError, "invalid literal for int() with base 10: 'x'")),
                            ("fam 7 3 +120", read), ("fam  7 3 120", read),
                            ("fam 7 -0 120", {("fam", 7, 0): 120, ("fam", 7, 5): 98})):
        path.write_text(f"{line}\nfam 7 5 98\n")
        assert _read_log(_bulk_reader, path, capsys) == (
            {("fam", 7, 5): 98}, f"cache: skipping corrupt line {line!r}\n")
        assert _read_log(reference_cache_load, path, capsys) == (reference, "")


def test_the_log_grammar_uses_no_syntax_newer_than_python_3_10():
    # possessive quantifiers and atomic groups arrived in 3.11's re; on 3.10 the module would not import
    for pattern in (counting._ENTRIES.pattern, counting._CORRUPT.pattern):
        assert re.search(r"[*+?}]\+|\(\?>", pattern) is None, pattern


def test_a_non_canonical_line_is_never_read_under_a_second_key(tmp_path, capsys):
    # "03" is not how `put` writes 3: the line is corrupt, not a count of a key "fam 7 03"
    path = tmp_path / "counts.cache"
    path.write_text("fam 7 3 120\nfam 7 03 121\n")
    cache = CountCache(str(path))
    assert cache.data == {"fam 7 3": "120"}
    assert capsys.readouterr().err == "cache: skipping corrupt line 'fam 7 03 121'\n"
    with pytest.raises(CountingError, match=r"\('fam', 7, 3\): 120 vs 121"):
        cache.put("fam", 7, 3, 121)
    cache.put("fam", 7, 4, 98)
    assert path.read_text() == "fam 7 3 120\nfam 7 03 121\nfam 7 4 98\n"


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

def brute_force(surf, p):
    """((smooth, t_alg, candidates), fiber rows) of a GF(p) surface by analyze + brute-force count."""
    rows = fiber_rows(analyze_fibers_mod_p(surf), p)
    fixed = sum(row[2] for row in rows)
    smooth = count_weierstrass(surf) + p * fixed
    return (smooth, 2 + fixed, lefschetz_candidates(smooth, p, 2 + fixed)), rows


def brute_force_member(fam, p, lam):
    """`brute_force` of the member specialized mod p, or the type of the error that path raises."""
    try:
        return brute_force(fam.specialize_mod(p, lam), p)
    except CountingError as e:
        return type(e)


def count_or_error(fam, p, lam):
    try:
        return count_family_member(fam, p, lam)
    except CountingError as e:
        return type(e)


class CallCounter:
    """Counts calls of the brute-force counting functions."""

    def __init__(self, monkeypatch):
        self.calls = {"specialize": 0, "analyze": 0, "count": 0}
        for key, owner, name in (("specialize", Family, "specialize_mod"),
                                 ("analyze", counting, "analyze_fibers_mod_p"),
                                 ("count", counting, "count_weierstrass")):
            monkeypatch.setattr(owner, name, self._wrap(key, getattr(owner, name)))

    def _wrap(self, key, fn):
        def wrapped(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped


def test_twist_path_matches_brute_force(families):
    for fam in families:
        for p in fam.good_primes(61):
            table = twist_table(fam, p)
            for lam in range(p):
                if lam in table.cusps:
                    continue
                want, want_fibers = brute_force_member(fam, p, lam)
                assert count_family_member(fam, p, lam) == want, (fam.name, p, lam)
                assert twist_fibers(table, lam) == want_fibers, (fam.name, p, lam)


def test_all_members_from_one_correlation(families):
    # the table's members (one product for every lambda) against the O(p) sum per member and brute force
    for fam in families:
        for p in fam.good_primes(31):
            table = twist_table(fam, p)
            members = table.members
            assert set(members) == set(range(p)) - set(table.cusps), (fam.name, p)
            for lam, got in members.items():
                assert got == count_family_member(fam, p, lam), (fam.name, p, lam)
                assert got == brute_force_member(fam, p, lam)[0], (fam.name, p, lam)


def test_raw_counts_equal_the_sum_per_member(families):
    for fam in families:
        for p in (199, 307):
            table = twist_table(fam, p)
            assert table.raw_counts == [raw_count_per_member(table, lam) for lam in range(p)], (fam.name, p)


def test_candidates_read_off_the_raw_count_alone(families):
    # smooth = raw + p fixed and t_alg = 2 + fixed, so smooth - p t_alg = raw - 2p: the fixed
    # components cancel and the candidates are r -+ p with r = raw - (p+1)^2
    for fam in families:
        good = fam.good_primes(320)
        for p in (good[0], good[len(good) // 2], good[-1]):
            table = twist_table(fam, p)
            for lam in set(range(p)) - set(table.cusps):
                smooth, t_alg, cands = count_family_member(fam, p, lam)
                r = table.raw_counts[lam] - (p + 1) ** 2
                assert cands == lefschetz_candidates(smooth, p, t_alg) == (r - p, r + p), (fam.name, p, lam)


def test_lambdas_on_cusps_of_g_raise_naming_the_cusp(families, monkeypatch):
    degenerate = []
    spy = CallCounter(monkeypatch)
    for fam in families:
        for p in fam.good_primes(61):
            table = twist_table(fam, p)
            # Delta_g(lambda) = 0 exactly on the family's degenerate lambdas
            assert set(table.cusps) == set(fam.degenerate_lambdas(p)), (fam.name, p)
            for lam, fib in fam.degenerate_lambdas(p).items():
                words = f"lambda = {lam} lies on the cusp {fib.label()} = {fib.cusp} mod {p}"
                with pytest.raises(CountingError, match=re.escape(words)):
                    count_family_member(fam, p, lam)
                degenerate.append((fam, p, lam))
    assert spy.calls == {"specialize": 0, "analyze": 0, "count": 0}
    monkeypatch.undo()
    # brute force leaves the fiber tables there too: both raise
    for fam, p, lam in degenerate:
        assert brute_force_member(fam, p, lam) == CountingError, (fam.name, p, lam)


def test_fixed_components_in_closed_form(families):
    # the integer off the table equals the per-fiber sum, on the oracle fibers and the general path
    for fam in families:
        for p in fam.good_primes(61):
            table = twist_table(fam, p)
            for lam in range(p):
                if lam in table.cusps:
                    continue
                fixed = table.members[lam][1] - 2
                assert fixed == sum(row[2] for row in twist_fibers(table, lam)), (p, lam)
                general = analyze_fibers_mod_p(fam.specialize_mod(p, lam))
                assert fixed == sum(fixed_components(f, p) for f in general), (fam.name, p, lam)


def test_scan_raises_once_where_g_has_a_fiber_outside_the_tables(monkeypatch):
    # g's I1* fiber at t = 0 has no twist table at any good prime: the scan names g, p and
    # the cusp instead of counting each member another way and dropping it
    oracle = NewformOracle(-88)
    spy = CallCounter(monkeypatch)
    for p in (13, 19):
        with pytest.raises(CountingError, match=f"i1star_at_0~untwisted mod {p} at t=0: I1\\*"):
            scan_prime(I1_STAR_AT_0, p, oracle)
        with pytest.raises(CountingError, match=f"i1star_at_0~untwisted mod {p} at t=0: I1\\*"):
            twist_table(I1_STAR_AT_0, p).members
    assert spy.calls == {"specialize": 0, "analyze": 0, "count": 0}


def test_twist_chart_takes_its_invariants_from_g(fam, monkeypatch):
    # g's chart at infinity (`flipped()`, of g's weight 3) is given c4, c6, Delta reversed from g,
    # not recomputed, and built once per family: its fixed fibers and every twist table read the one chart
    charts = []

    class Spy(WeierstrassSurface):
        def __init__(self, a2, a4, a6, name="", weight=4, _invariants=None):
            if name.endswith("~untwisted~inf"):
                charts.append(((a2, a4, a6), weight, _invariants))
            super().__init__(a2, a4, a6, name, weight, _invariants)

    monkeypatch.setattr(surfaces, "WeierstrassSurface", Spy)
    family = dataclasses.replace(fam)   # nothing derived yet
    assert family.fixed_fibers[-1].cusp.kind == "infinity"
    for p in family.good_primes(199):
        counting.TwistTable.build(family, p)
    assert len(charts) == 1
    coeffs, weight, invariants = charts[0]
    assert weight == 3 and invariants is not None
    assert invariants == _discriminant_polys(*coeffs)


MU_ORBIT = Fraction(81, 10)   # xlm's g at this mu has an orbit cusp, an irreducible cubic factor of Delta_g


def test_twist_tables_read_the_fibers_of_g_off_q(fam):
    # at every good p, g's fibers over Q reduced mod p are g's fibers classified over GF(p):
    # cusps, labels, fixed components, the node flips, the shared part and the fiber at infinity
    for family in (fam, dataclasses.replace(fam, mu=MU_ORBIT), I0_STAR_AT_0, I0_STAR_AT_INF):
        for p in family.good_primes(199):
            want = classified_fibers_of_g(family, p)
            assert table_fibers(TwistTable.build(family, p)) == want, (family.name, family.mu, p)
    for family in (I1_STAR_AT_0, I1_STAR_AT_INF):   # an I1* of g: both routes raise, in the same words
        for p in family.good_primes(61):
            with pytest.raises(CountingError) as classified:
                classified_fibers_of_g(family, p)
            with pytest.raises(CountingError, match=re.escape(str(classified.value))):
                TwistTable.build(family, p)


def test_twist_tables_build_no_surface_and_classify_no_fiber(fam, monkeypatch):
    families = [dataclasses.replace(fam), dataclasses.replace(fam, mu=MU_ORBIT), I0_STAR_AT_0, I0_STAR_AT_INF]
    for family in families:
        assert family.fixed_fibers   # g, its chart and its fibers over Q, derived once per family

    def forbidden(*args, **kwargs):
        raise AssertionError("a twist table built a surface or classified a fiber")

    monkeypatch.setattr(WeierstrassSurface, "__init__", forbidden)
    for module, name in ((surfaces, "_classify"), (surfaces, "classify_at"), (counting, "classify_at")):
        monkeypatch.setattr(module, name, forbidden)
    for family in families:
        for p in family.good_primes(199):
            TwistTable.build(family, p)


def test_members_are_computed_once_per_table(fam, tmp_path, monkeypatch):
    from k3cm.cli import _log_members

    family, p, computed = dataclasses.replace(fam), 13, []
    member = counting._member

    def counted(table, lam, raw):
        computed.append(lam)
        return member(table, lam, raw)

    monkeypatch.setattr(counting, "_member", counted)
    path = tmp_path / "counts.cache"
    members = twist_table(family, p).members
    assert twist_table(family, p).members is members
    assert len(computed) == p - len(twist_table(family, p).cusps) == 9
    _log_members(CountCache(path), family, [(p, members)])   # as `count --prime 13` logs them
    # a fresh file gets the lines the counting wrote before members were kept on the table
    counts = {2: 296, 3: 240, 4: 248, 5: 314, 7: 282, 9: 222, 10: 270, 11: 298, 12: 226}
    assert path.read_text().splitlines() == [f"4684c1aa4cde 13 {lam} {n}" for lam, n in counts.items()]
    with pytest.raises(TypeError):
        members[2] = members[3]


def test_twist_sums_match_the_reference_loop(fam):
    # S and Z themselves, not only the counts: a constant added to every S(t)
    # leaves each member count unchanged, since sum_t chi(t - lambda) = 0
    for p in fam.good_primes(113):
        table = twist_table(fam, p)
        assert (table.S, table.Z) == twist_sums(fam, p), p


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23])
def test_class_tables_match_direct_sums(p):
    # every (A, B) in F_p^2, the A = 0 and B = 0 rows included; the primes
    # cover p = 1 and 3 mod 4, p = 1 and 2 mod 3, and 2 a residue or not
    chi = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    pairs = [(a, b) for a in range(p) for b in range(p)]
    S, Z = depressed_cubic_sums(p, chi, [a for a, _ in pairs], [b for _, b in pairs])
    for (a, b), s, z in zip(pairs, S, Z):
        vals = [chi[(x * x * x + a * x + b) % p] for x in range(p)]
        assert (s, z) == (sum(vals), vals.count(0)), (p, a, b)


@pytest.mark.parametrize("p", [5, 7, 13, 101])
def test_correlation_kernel_on_any_non_negative_values(p):
    # values far above the point counts' 3 widen the slots; zeros and one lone large value
    # check the fold of the linear product's two halves into the cyclic correlation;
    # the rows share one packing of chi, at the slot width of the largest total
    chi = counting._character_table(p)
    rows = [[0] * p, [0] * (p - 1) + [10**6], [(7 * v * v + 3) % 1000 for v in range(p)]]
    want = [[sum(values[v] * chi[(v + b) % p] for v in range(p)) for b in range(p)] for values in rows]
    assert counting._correlate_with_chi(rows, chi, p) == want, p
    for values, row_want in zip(rows, want):
        assert counting._correlate_with_chi([values], chi, p) == [row_want], (p, values[:3])


def test_build_needs_p_above_3(fam):
    for p in (2, 3):
        with pytest.raises(CountingError, match=f"p = {p}"):
            TwistTable.build(fam, p)


# ---------------------------------------------------------------------------
# the list-level kernels against the per-t and O(p^2) references
# ---------------------------------------------------------------------------

def test_depressed_coefficients_of_g_match_the_per_t_depression(fam):
    # A = -c4/48 and B = -c6/864 at every t and, off the t^6 and t^9 coefficients, at infinity
    for family in (fam, dataclasses.replace(fam, mu=MU_ORBIT), I0_STAR_AT_0, I0_STAR_AT_INF):
        g = family.untwisted
        for p in family.good_primes(199):
            assert counting._depressed_coefficients(g, p) == depressed_per_t(g, 3, p), (family.name, p)


def test_depressed_coefficients_of_the_direct_surfaces_match_the_per_t_depression(reg):
    # the weight-4 chart of `count_surface`: the t^8 and t^12 coefficients at infinity
    direct = [fx.build_surface(reg) for fx in reg.surfaces.values() if fx.kind == "direct"]
    assert len(direct) == 7
    compared = 0
    for surf in direct:
        for p in primes_up_to(199):
            if not surf.is_bad_prime(p):
                assert counting._depressed_coefficients(surf, p) == depressed_per_t(surf, 4, p), (surf.name, p)
                compared += 1
    assert compared == 249


@pytest.mark.parametrize("scale, width", [(1, 1), (100, 2), (10**6, 4), (10**12, 8)])
def test_correlation_slots_of_each_width_match_the_direct_sum(scale, width):
    # values whose 2 * total needs 1, 2, 4 and 8 bytes, against the O(p^2) sum
    p = 13
    chi = counting._character_table(p)
    values = [scale * ((7 * v * v + 3) % 10) for v in range(p)]
    assert 8 * width // 2 < (2 * sum(values)).bit_length() <= 8 * width
    want = [sum(values[v] * chi[(v + b) % p] for v in range(p)) for b in range(p)]
    assert counting._correlate_with_chi([values], chi, p) == [want]


def test_correlation_refuses_a_total_beyond_8_byte_slots():
    p = 13
    chi = counting._character_table(p)
    fits = [2**63 - 1] + [0] * (p - 1)      # 2 * total = 2^64 - 2, the largest that fits
    assert counting._correlate_with_chi([fits], chi, p) == [[fits[0] * chi[b] for b in range(p)]]
    with pytest.raises(CountingError, match="p = 13"):
        counting._correlate_with_chi([[2**63] + [0] * (p - 1)], chi, p)


def test_correlation_slots_are_little_endian_on_either_host(monkeypatch):
    # slot k holds item k, least significant byte first; an array holds its items in
    # sys.byteorder, so the bytes a host of the other order holds are swapped back
    want = b"\x01\x00\x02\x01"                 # 1 and 258 = 0x0102 in 2-byte slots
    assert counting._little(array("H", [1, 258])).tobytes() == want
    other_host = array("H", [1, 258])
    other_host.byteswap()
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    assert counting._little(other_host).tobytes() == want


def test_vectorized_fixed_counts_equal_the_per_member_formula(fam):
    # `members` takes every lambda's fixed components as one list; `twist_fibers` sums them per member
    for family in (fam, dataclasses.replace(fam, mu=MU_ORBIT), I0_STAR_AT_0, I0_STAR_AT_INF):
        for p in family.good_primes(199):
            table = TwistTable.build(family, p)
            assert set(table.members) == set(range(p)) - set(table.cusps), (family.name, p)
            for lam, (_, t_alg, _) in table.members.items():
                assert t_alg == 2 + sum(row[2] for row in twist_fibers(table, lam)), (family.name, p, lam)
