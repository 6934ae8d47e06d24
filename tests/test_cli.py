import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from k3cm.cli import main
from k3cm.counting import count_family_member, log_key
from k3cm.exact import QQ, QuadField
from k3cm.fixtures import registry


def run(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_discs_table():
    code, out = run(["discs", "--max", "300"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("1\t-3 -4 -7 -8")
    assert "-235" in out and "-280" in out


def test_ap_lines():
    code, out = run(["ap", "--disc", "-88", "--primes", "25"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows["23"] == "42"
    assert rows["7"] == "0"      # inert
    assert rows["11"] == "ram"   # ramified


def test_count_single_lambda(tmp_path):
    cache = tmp_path / "c.cache"
    code, out = run(["--cache", str(cache), "count", "--family", "xlm",
                     "--prime", "19", "--lambda", "15"])
    assert code == 0
    lam, n, t_alg, c1, c2 = out.strip().split("\t")
    assert lam == "15"
    # 5/32 = 15 mod 19 is the disc -88 member: one candidate is +-|a_19| = 6
    assert "6" in (c1.lstrip("-"), c2.lstrip("-"))
    key = log_key(registry().family("xlm"))
    assert cache.exists() and cache.read_text().startswith(f"{key} 19 15 ")


def test_count_reads_a_family_file(tmp_path):
    # the registry's own family file, with its keys upper-cased
    from importlib import resources

    text = resources.files("k3cm").joinpath("data/family_xlm.fam").read_text()
    path = tmp_path / "xlm.fam"
    path.write_text("\n".join(
        line.split("=", 1)[0].upper() + "=" + line.split("=", 1)[1] if "=" in line else line
        for line in text.splitlines()
    ))
    assert path.read_text() != text
    member = ["--prime", "19", "--lambda", "15"]
    assert run(["count", "--family", str(path)] + member) == run(["count", "--family", "xlm"] + member)


def test_cache_keys_on_the_family_data_not_its_name(tmp_path):
    # a family file named xlm with another mu shares a cache with the registry's xlm
    from importlib import resources

    text = resources.files("k3cm").joinpath("data/family_xlm.fam").read_text()
    assert "mu = 243/10" in text
    path = tmp_path / "other.fam"
    path.write_text(text.replace("mu = 243/10", "mu = 81/10"))
    cache = tmp_path / "shared.cache"
    member = ["count", "--prime", "19", "--lambda", "15"]
    own = run(member[:1] + ["--family", str(path)] + member[1:])
    assert own[0] == 0 and own != run(member)
    registry_count = run(["--cache", str(cache)] + member)
    assert registry_count == run(member)
    assert run(["--cache", str(cache), "count", "--family", str(path)] + member[1:]) == own
    assert run(["--cache", str(cache), "count", "--family", str(path)] + member[1:]) == own
    assert run(["--cache", str(cache)] + member) == registry_count
    keys = [line.split()[0] for line in cache.read_text().splitlines()]
    assert len(keys) == 2 and len(set(keys)) == 2 and "xlm" not in keys


def test_count_skips_degenerate_lambdas():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["count", "--family", "xlm", "--prime", "19"])
    assert code == 0
    # 0, 1, 35/32 = 10 and -5/1024 = 12 mod 19 sit on the fixed cusps
    assert [int(line.split("\t")[0]) for line in out.splitlines()] == [
        lam for lam in range(19) if lam not in (0, 1, 10, 12)
    ]
    skipped = err.getvalue().splitlines()
    assert len(skipped) == 4
    assert "I5 = 0" in skipped[0] and "I3 = 1" in skipped[1]
    assert "I2 = 35/32" in skipped[2] and "I1 = -5/1024" in skipped[3]


def test_count_degenerate_lambda_is_input_error():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["count", "--family", "xlm", "--prime", "19", "--lambda", "0"])
    assert code == 2 and out == ""
    assert "I5 = 0" in err.getvalue() and "19" in err.getvalue()


def stale_family_file(tmp_path):
    """The registry's family file at mu = 81/10, whose [cusps] block no longer holds.

    There Delta_g = c t^5 (t-1)^3 times an irreducible cubic: the declared
    I2 = 35/32 and I1 = -5/1024 do not exist.
    """
    from importlib import resources

    text = resources.files("k3cm").joinpath("data/family_xlm.fam").read_text()
    path = tmp_path / "stale.fam"
    path.write_text(text.replace("mu = 243/10", "mu = 81/10"))
    return path


def test_count_skips_the_roots_of_delta_g_not_the_declared_cusps(tmp_path):
    from k3cm.exact import roots_mod_p
    from k3cm.fixtures import family_from_text
    from k3cm.surfaces import _discriminant_polys
    from oracles import untwisted_mod

    path = stale_family_file(tmp_path)
    fam = family_from_text(path.read_text())
    # 4 is a root of the cubic mod 23; 9 and 13 (35/32, -5/1024) and 10 and 12 mod 19 are not cusps
    for p, cusps in ((23, [0, 1, 4]), (19, [0, 1])):
        assert sorted(roots_mod_p(_discriminant_polys(*untwisted_mod(fam, p))[2])) == cusps
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(["count", "--family", str(path), "--prime", str(p)])
        assert code == 0, err.getvalue()
        assert [int(line.split("\t")[0]) for line in out.splitlines()] == [
            lam for lam in range(p) if lam not in cusps
        ]
        skipped = err.getvalue().splitlines()
        assert [int(line.split()[3]) for line in skipped] == cusps
        assert "I5 = 0" in skipped[0] and "I3 = 1" in skipped[1]
        if p == 23:
            assert skipped[2].startswith("skipped lambda = 4 lies on the cusp I1 = orbit(")


def test_count_refuses_a_family_of_another_shape(tmp_path):
    from importlib import resources

    text = resources.files("k3cm").joinpath("data/family_xlm.fam").read_text()
    path = tmp_path / "shape.fam"
    path.write_text(text.replace("pre_a2 = 0,0,1", "pre_a2 = 1,0,0"))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["count", "--family", str(path), "--prime", "19"])
    assert (code, out) == (2, "")
    assert "(0, 2, 3)" in err.getvalue()


def test_count_excluded_prime():
    code, _ = run(["count", "--family", "xlm", "--prime", "5"])
    assert code == 2


def test_verify_fixture_surface():
    code, out = run(["verify", "--surface", "ex_627"])
    assert code == 0
    assert "disc NS = -627" in out
    assert "T(X) = [22,11,34]" in out


GOLDEN = Path(__file__).parent / "golden" / "outputs"


def recorded_verify(names):
    # `k3cm verify --surface X` stdout against tests/golden/outputs/verify_X.txt,
    # with every exit code 0
    got, want = "", ""
    for name in names:
        code, out = run(["verify", "--surface", name])
        got += f"# k3cm verify --surface {name} -> exit {code}\n{out}"
        want += f"# k3cm verify --surface {name} -> exit 0\n"
        want += (GOLDEN / f"verify_{name}.txt").read_text()
    return got, want


def test_verify_examples_match_golden_output():
    # the 9 example surfaces, as recorded before sections were built and
    # normalized in one place
    got, want = recorded_verify(sorted(registry().surfaces))
    assert got == want


def test_verify_certified_family_members_match_golden_output():
    # the 25 Table 1 and 5 extremal surfaces, in the registry's order, as recorded
    # before a member's I0* at t = lambda was read off g; with the 9 examples
    # above, every surface a certify pass checks
    names = [fx.name for fx in registry().certified
             if fx.name.startswith(("table1_", "extremal_"))]
    assert len(names) == 30
    got, want = recorded_verify(names)
    assert got == want


def test_verify_lifts_sections_once(monkeypatch):
    import k3cm.sections
    import k3cm.surfaces

    verified, classified = [], []
    verify, classify = k3cm.sections.verify_section, k3cm.surfaces.classify_fibers
    monkeypatch.setattr(k3cm.sections, "verify_section",
                        lambda surf, u, name="P": verified.append(u.domain) or verify(surf, u, name))
    monkeypatch.setattr(k3cm.surfaces, "classify_fibers",
                        lambda surf: classified.append(surf) or classify(surf))
    code, out = run(["verify", "--surface", "ex_3003"])
    assert code == 0 and "disc NS = -3003" in out
    # verified over Q once each, then carried into Q(sqrt 21) with no second verification
    assert verified == [QQ, QQ]
    assert len(classified) == 1


def test_verify_and_tlattice_take_the_names_of_certified_surfaces():
    code, out = run(["verify", "--surface", "table1_88"])
    assert code == 0
    assert "disc NS = -88" in out.splitlines() and "T(X) = [4,0,22]" in out.splitlines()
    assert run(["tlattice", "--surface", "extremal_1"]) == (0, "-280\t[4,0,70]\n")
    assert run(["verify", "--surface", "extremal_inf"])[0] == 0


def test_verify_rejects_dependent_sections(tmp_path):
    # P, Q and P + Q of ex_3003, written over Q(sqrt 21) and read back by --sections
    from k3cm.sections import build_sections
    from oracles import section_sum

    reg = registry()
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P, Q = build_sections(surf, fx.sections)
    path = tmp_path / "dependent.sections"
    path.write_text("".join(
        f"[sections]\nname = {name}\nfield = quadratic:21\nu = {u.to_text()}\n\n"
        for name, u in (("P", P.u), ("Q", Q.u), ("S", section_sum(surf, P, Q)))))
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run(["verify", "--surface", "ex_3003", "--sections", str(path)])
    assert code == 2
    assert "sections are dependent" in err.getvalue()


def test_verify_exits_1_on_a_wrong_expectation_and_prints_the_same_lines(tmp_path):
    # the -268 Table 1 row as a surface file; its printed T is an erratum, replaced by derived_t
    row = next(r for r in registry().table1 if r.disc == -268)
    form = lambda f: f"{2 * f.a},{f.b},{2 * f.c}"
    right = {"expected_height": str(row.height), "disc": "-268", "derived_t": form(row.derived_T)}

    def verify(**expect):
        e = {**right, **expect}
        path = tmp_path / "table1_268.surf"
        path.write_text(
            f"[surface]\nname = table1_268\nfamily = xlm\nlambda = {row.lam}\n\n"
            f"[sections]\nname = P\nu = {row.u_text}\nexpected_height = {e['expected_height']}\n\n"
            f"[expect]\ndisc = {e['disc']}\nt = {form(row.T)}\nderived_t = {e['derived_t']}\n")
        return run(["verify", "--surface", str(path)])

    code, out = verify()
    assert code == 0 and "disc NS = -268" in out and "T(X) = [4,2,68]" in out
    for wrong in ({"expected_height": "67/211"}, {"disc": "-272"}, {"derived_t": "4,2,84"}):
        assert verify(**wrong) == (1, out), wrong


def test_tlattice_output():
    code, out = run(["tlattice", "--surface", "ex_715"])
    assert code == 0
    assert out.strip() == "-715\t[22,11,38]"


EX_3315_P = """[sections]
name = P
field = rational
u = 85184 * 2415744/221;-58882;88179
expected_height = 17/8
"""

EX_3315_Q = """[sections]
name = Q
field = rational
u = -5/208 * -289;741 * 5454297;-379180711;503840883;1960038171
expected_height = 13/4
"""


def test_tlattice_reads_sections_file(tmp_path):
    both = tmp_path / "pq.sections"
    both.write_text(EX_3315_P + "\n" + EX_3315_Q)
    code, out = run(["tlattice", "--surface", "ex_3315", "--sections", str(both)])
    assert code == 0
    assert out.strip() == "-3315\t[2,1,1658]"
    # P alone spans a rank-19 lattice of det 1020: no transcendental lattice
    only_p = tmp_path / "p.sections"
    only_p.write_text(EX_3315_P)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["tlattice", "--surface", "ex_3315", "--sections", str(only_p)])
    assert code == 2 and out == ""
    assert "determinant must be negative" in err.getvalue()


def test_section_declared_twice_is_input_error(tmp_path):
    # a second section named P used to replace the first without a word
    ex_715_p = "[sections]\nname = P\nu = 15/11776 * -1;1 * -1058529;11995075;-35970275;44289025\n"
    twice = tmp_path / "pp.sections"
    twice.write_text(ex_715_p + "\n" + ex_715_p.replace("name = P", "name = p"))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["verify", "--surface", "ex_715", "--sections", str(twice)])
    assert code == 2 and out == ""
    assert "section p is declared twice" in err.getvalue()


def test_conjugate_of_an_undeclared_section_is_input_error(tmp_path):
    # ex_1012's Psigma alone: the P it is the conjugate of is not declared before it
    only_conjugate = tmp_path / "psigma.sections"
    only_conjugate.write_text("[sections]\nname = Psigma\nfield = quadratic:23\nconjugate_of = P\n")
    code, out, err = run_with_stderr(["verify", "--surface", "ex_1012", "--sections", str(only_conjugate)])
    assert (code, out) == (2, "")
    assert err == "input error: section Psigma is the conjugate of P, which is not declared before it\n"


@pytest.mark.parametrize("block", ["sections", "expect"])
def test_a_block_before_the_surface_block_is_input_error(tmp_path, block):
    # the block used to be read into a fixture not yet made: an AttributeError, exit 1
    first = {"sections": "[sections]\nname = P\nu = 0;1\n", "expect": "[expect]\ndisc = -627\n"}[block]
    path = tmp_path / "early.surf"
    path.write_text(f"{first}\n[surface]\nname = early\nfamily = xlm\nlambda = 5/32\n")
    for command in ("verify", "tlattice"):
        code, out, err = run_with_stderr([command, "--surface", str(path)])
        assert (code, out, err) == (2, "", f"input error: [{block}] block before the [surface] block\n")


def test_regression_subset():
    code, out = run(["regression", "--subset", "extremal"])
    assert code == 0
    assert "PASS" in out


def test_search_small():
    code, out = run(["search", "--disc", "-88", "--primes", "3"])
    assert code == 0
    assert out.splitlines()[0].startswith("5/32\t32\t3")


def test_search_takes_as_many_usable_primes_as_asked():
    # -1540 has 17 usable split primes below 200; asking for 20 scans 20, the last three above 200
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["search", "--disc", "-1540", "--primes", "20"])
    assert err.getvalue() == ""
    assert code == 0 and out.splitlines()[0] == "539/512\t539\t20"


def run_with_stderr(args):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(args)
    return code, out, err.getvalue()


def test_count_refuses_a_bad_prime_alone(monkeypatch):
    # the rule at p itself: `Family.bad_primes` (a sieve of every prime up to p) is not asked
    from k3cm.families import Family

    def sieve(*args):
        raise AssertionError("the primes up to p were sieved")

    monkeypatch.setattr(Family, "bad_primes", sieve)
    for p in (5, 7):
        assert run_with_stderr(["count", "--prime", str(p)]) == (2, "", f"p = {p} is excluded for this family\n")


def test_count_refuses_a_non_prime_first():
    # 49 = 7^2 was called excluded for the family, and 221 = 13 * 17 failed inside GF(p)
    for p in (49, 221, 1, 0):
        assert run_with_stderr(["count", "--prime", str(p)]) == (2, "", f"p = {p} is not prime\n")
        assert run_with_stderr(["count", "--prime", str(p), "--lambda", "3"]) == (2, "", f"p = {p} is not prime\n")


def test_search_without_small_residue_sets_says_so_and_exits_1():
    # -132: at five of its first six usable primes no lambda matches, so no
    # two primes have 1 to 5 residues; that is a search outcome, not an input error
    from k3cm.newforms import NewformOracle
    from k3cm.search import scan_prime, usable_primes

    fam, oracle = registry().family("xlm"), NewformOracle(-132)
    primes = usable_primes(fam, oracle, 200)[:6]
    sizes = ", ".join(f"{len(scan_prime(fam, p, oracle))} at p = {p}" for p in primes)
    code, out, err = run_with_stderr(["search", "--disc", "-132", "--primes", "6"])
    assert (code, out) == (1, "")
    assert err == ("no candidate: not enough primes with small residue sets "
                   f"(a prime lifts with 1 to 5 residues): {sizes}\n")


def test_search_without_a_candidate_says_what_it_scanned():
    code, out, err = run_with_stderr(["search", "--disc", "-7"])
    assert (code, out) == (1, "")
    assert err == ("no candidate: scanned p = 11, 23, 29, 37; no lambda of height "
                   "<= 1000000 (--height-bound) lifted\n")
    code, _, err = run_with_stderr(["search", "--disc", "-7", "--height-bound", "50"])
    assert code == 1 and "height <= 50 (--height-bound)" in err


I1_STAR_FAMILY = ("[family]\nname = i1star_at_0\nA = 0|2|-1\nB = -3|1|0|2|1\nC = 2|-1|3|0|1|-2|1\n"
                  "pre_a2 = 1,0,1\npre_a4 = 2,0,2\npre_a6 = 3,0,3\nmu = 1\n")


def test_an_unsupported_fiber_has_its_own_exit_status(tmp_path):
    # g has an I1* fiber at t = 0, which the counting tables do not carry: that is not bad input
    path = tmp_path / "i1star.fam"
    path.write_text(I1_STAR_FAMILY)
    # without --lambda the table is built before any lambda: no skip line for lambda = 0 on I1*
    for args, p in ((["search", "--disc", "-88"], 13), (["count", "--prime", "19", "--lambda", "2"], 19),
                    (["count", "--prime", "19"], 19)):
        code, out, err = run_with_stderr(args[:1] + ["--family", str(path)] + args[1:])
        assert (code, out) == (3, ""), args
        assert err == (f"unsupported fiber type: i1star_at_0~untwisted mod {p} at t=0: "
                       "I1* fibers are outside the counting tables\n")


def test_a_wrong_count_in_the_cache_stops_a_search(tmp_path):
    # the cache is a conflict-checked log: every count is computed, and one that
    # differs from the file's is a determinism breach, not a hit that changes the search
    cache = tmp_path / "counts.cache"
    search = ["--cache", str(cache), "search", "--disc", "-88", "--primes", "4"]
    code, out, err = run_with_stderr(search)
    assert code == 0 and out.startswith("5/32\t32\t")
    key = log_key(registry().family("xlm"))
    lines = cache.read_text().splitlines()
    assert f"{key} 13 3 240" in lines
    cache.write_text("".join(line.replace(" 13 3 240", " 13 3 331") + "\n" for line in lines))
    code, out, err = run_with_stderr(search)
    assert (code, out) == (2, "")
    assert err == f"input error: cache conflict for ('{key}', 13, 3): 331 vs 240 (determinism breach)\n"
    code, out, err = run_with_stderr(search[:2] + ["count", "--prime", "13", "--lambda", "3"])
    assert (code, out) == (2, "") and "331 vs 240 (determinism breach)" in err


@pytest.mark.parametrize("disc", ["-88", "-1540"])
def test_the_cache_does_not_change_search_output(tmp_path, disc):
    # no cache, a cold one and a warm one print the same; the warm run appends nothing
    search, cache = ["search", "--disc", disc, "--primes", "4"], tmp_path / "counts.cache"
    plain = run_with_stderr(search)
    cold = run_with_stderr(["--cache", str(cache)] + search)
    log = cache.read_bytes()
    warm = run_with_stderr(["--cache", str(cache)] + search)
    assert plain[0] == 0 and plain[1] and plain == cold == warm
    assert log and cache.read_bytes() == log


def _members_of(fam, primes):
    """(p, lambda, smooth count) of every member off the cusps of g at each prime, in order."""
    return [(p, lam, count_family_member(fam, p, lam)[0])
            for p in primes for lam in range(p) if lam not in fam.degenerate_lambdas(p)]


def test_a_cached_command_appends_to_the_log_once(tmp_path, monkeypatch):
    # a --cache command reads its log once and appends its new counts in one write, however
    # many primes it scanned; a command with no new count appends nothing
    from k3cm.newforms import NewformOracle
    from k3cm.search import first_usable_primes

    log, opens = tmp_path / "counts.cache", []
    real_open = open

    def logged_open(f, *a, **k):
        if str(f) == str(log):
            opens.append(k.get("mode", a[0] if a else "r"))
        return real_open(f, *a, **k)

    monkeypatch.setattr("builtins.open", logged_open)
    fam = registry().family("xlm")
    primes = first_usable_primes(fam, NewformOracle(-88), 4)
    search = ["--cache", str(log), "search", "--disc", "-88", "--primes", "4"]
    assert run(search)[0] == 0
    assert opens == ["r", "a"]
    assert len(log.read_text().splitlines()) == len(_members_of(fam, primes))
    assert run(search)[0] == 0 and opens == ["r", "a", "r"]
    q = next(p for p in fam.good_primes(100) if p not in primes)
    assert run(["--cache", str(log), "count", "--prime", str(q)])[0] == 0
    assert opens == ["r", "a", "r", "r", "a"]
    assert len(log.read_text().splitlines()) == len(_members_of(fam, primes + [q]))


def test_a_cached_search_logs_every_member_of_each_scanned_prime(tmp_path):
    # the scan forms no smooth count; the log gets every member of each scanned prime, in
    # scan order, whether or not a plain search built the tables first (a family file loads
    # a fresh family)
    from importlib import resources

    from k3cm.newforms import NewformOracle
    from k3cm.search import first_usable_primes

    path = tmp_path / "xlm.fam"
    path.write_text(resources.files("k3cm").joinpath("data/family_xlm.fam").read_text())
    search = ["search", "--disc", "-88", "--primes", "4"]
    plain = run(search)
    logs = [tmp_path / "after-plain.cache", tmp_path / "fresh.cache"]
    assert run(["--cache", str(logs[0])] + search) == plain
    assert run(["--cache", str(logs[1]), "search", "--family", str(path)] + search[1:]) == plain
    fam = registry().family("xlm")
    want = [f"{log_key(fam)} {p} {lam} {n}" for p, lam, n in
            _members_of(fam, first_usable_primes(fam, NewformOracle(-88), 4))]
    assert [log.read_text().splitlines() for log in logs] == [want, want]


@pytest.mark.parametrize("disc, primes, lines, why", [
    (-132, 6, 142, "not enough primes with small residue sets"),
    (-7, 4, 84, "no lambda of height <= 1000000"),
], ids=["disc-132", "disc-7"])
def test_a_search_with_no_candidate_logs_the_members_it_scanned(tmp_path, disc, primes, lines, why):
    # exit 1 comes after the scans: the log still gets every member of each scanned prime
    from k3cm.newforms import NewformOracle
    from k3cm.search import first_usable_primes

    log = tmp_path / "counts.cache"
    code, out, err = run_with_stderr(["--cache", str(log), "search", "--disc", str(disc), "--primes", str(primes)])
    assert (code, out) == (1, "") and err.startswith("no candidate: ") and why in err
    fam = registry().family("xlm")
    got = [line.split(" ") for line in log.read_text().splitlines()]
    assert len(got) == lines and len({key for key, *_ in got}) == 1
    scanned = first_usable_primes(fam, NewformOracle(disc), primes)
    assert [tuple(map(int, rest)) for _, *rest in got] == _members_of(fam, scanned)


def test_lift_system_file(tmp_path):
    system = tmp_path / "sq.system"
    system.write_text("[system]\nvars = x\neq1 = 1:2 + -4/9:0\n")
    code, out = run(["lift", "--system", str(system), "--prime", "7"])
    assert code == 0
    assert out.strip() in ("x\t2/3", "x\t-2/3")


def test_missing_file_is_input_error():
    code, _ = run(["verify", "--surface", "/nonexistent.surf"])
    assert code == 2


def test_main_parses_each_call_on_its_own(tmp_path):
    # the parser is built once per process; no argument leaks between calls
    first, second = tmp_path / "a.cache", tmp_path / "b.cache"
    code, out = run(["--cache", str(first), "count", "--prime", "19", "--lambda", "15"])
    assert code == 0 and out.startswith("15\t")
    code, out = run(["--cache", str(second), "count", "--prime", "23", "--lambda", "3"])
    assert code == 0 and out.startswith("3\t")
    key = log_key(registry().family("xlm"))
    assert first.read_text().split()[:3] == [key, "19", "15"]
    assert second.read_text().split()[:3] == [key, "23", "3"]
    assert len(first.read_text().splitlines()) == len(second.read_text().splitlines()) == 1
    code, out = run(["discs", "--max", "20"])
    assert code == 0 and out.startswith("h(d)\tdiscriminants")
    for bad in (["count", "--prime", "x"], ["verify"], ["nosuchcommand"]):
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            run(bad)
        assert exc.value.code == 2
    assert run(["count", "--prime", "19", "--lambda", "15"])[1].startswith("15\t")


def test_search_and_count_without_cache_keep_no_log(monkeypatch):
    # no --cache, no log: a plain search forms no smooth count (`TwistTable.members`) and
    # puts nothing; count still prints every member's, and puts nothing either
    from k3cm.counting import CountCache, TwistTable

    logs, puts, built = [], [], []
    real_members = TwistTable.members.func
    monkeypatch.setattr(CountCache, "__init__", lambda self, *a: logs.append(a))
    monkeypatch.setattr(CountCache, "put", lambda self, *a: puts.append(a))
    monkeypatch.setattr(TwistTable, "members", property(lambda t: built.append(t.p) or real_members(t)))
    code, out = run(["search", "--disc", "-88", "--primes", "4"])
    assert code == 0 and out.startswith("5/32\t32\t4")
    assert (logs, puts, built) == ([], [], [])
    code, out = run(["count", "--prime", "19"])
    assert code == 0 and len(out.splitlines()) == 19 - len(registry().family("xlm").degenerate_lambdas(19))
    assert (logs, puts, built) == ([], [], [19])
