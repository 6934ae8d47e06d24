"""Acceptance suite: every headline capability at its stated tolerance.

One criterion per test, each ending with a single printed pass/fail line.
All comparisons are exact (integers and fractions); the runtime budgets are
asserted with time checks.  Documented source-text errata (see
tests/test_fixtures.py and the data files' notes) are compared against
their independently derived values and called out in the printed line.
"""

import random
import time
from fractions import Fraction

import pytest

from k3cm.fixtures import parse_ratfun, registry


def _line(name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {name}: {status}{' (' + extra + ')' if extra else ''}")
    assert ok, f"{name} failed: {extra}"


# -- criterion 1: the exponent-2 discriminant table ---------------------------

EXPECTED_TABLE = {
    1: [-3, -4, -7, -8, -11, -19, -43, -67, -163],
    2: [-15, -20, -24, -35, -40, -51, -52, -88, -91, -115, -123, -148, -187,
        -232, -235, -267, -403, -427],
    4: [-84, -120, -132, -168, -195, -228, -280, -312, -340, -372, -408, -435,
        -483, -520, -532, -555, -595, -627, -708, -715, -760, -795, -1012, -1435],
    8: [-420, -660, -840, -1092, -1155, -1320, -1380, -1428, -1540, -1848,
        -1995, -3003, -3315],
    16: [-5460],
}


def test_criterion_1_disc_table():
    from k3cm.cli import main

    t0 = time.time()
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["discs", "--max", "7000"])
    elapsed = time.time() - t0
    got = {}
    for line in buf.getvalue().splitlines():
        if line.startswith(("h(", "#")):
            continue
        h, ds = line.split("\t")
        got[int(h)] = [int(x) for x in ds.split()]
    ok = code == 0 and got == EXPECTED_TABLE and elapsed < 10
    total = sum(len(v) for v in got.values())
    _line(
        "1 discs table",
        ok,
        f"{total} discriminants in {elapsed:.2f}s; printed table omits -235, "
        "included here per its own 65-field count",
    )


# -- criterion 2: Table 1 regression ------------------------------------------

def test_criterion_2_table1():
    from k3cm.regression import run_regression

    t0 = time.time()
    rep = run_regression("table1")
    elapsed = time.time() - t0
    errata = sum(1 for line in rep.lines if "erratum" in line)
    ok = rep.failures == 0 and elapsed < 60
    _line(
        "2 table1 regression",
        ok,
        f"{rep.checks - rep.failures}/{rep.checks} checks in {elapsed:.1f}s; "
        f"25/26 printed rows verified, 1 defective row excluded with an "
        f"impossibility certificate, {errata} T-entries and 4 u-prefactors "
        "carry documented errata",
    )


# -- criterion 3: the nine example discriminants -------------------------------

def test_criterion_3_examples():
    from k3cm.regression import run_regression

    t0 = time.time()
    rep = run_regression("examples")
    elapsed = time.time() - t0
    ok = rep.failures == 0
    _line(
        "3 examples regression",
        ok,
        f"{rep.checks - rep.failures}/{rep.checks} checks in {elapsed:.1f}s "
        "(discs -1155 -1995 -627 -715 -1435 -5460 -1012 -3003 -3315; the "
        "-1012 T entry carries a documented erratum)",
    )


# -- criterion 4: Lefschetz closed loop ----------------------------------------

def test_criterion_4_lefschetz_closed_loop():
    from k3cm.counting import count_surface
    from k3cm.newforms import NewformOracle
    from k3cm.search import usable_primes

    reg = registry()
    fam = reg.family("xlm")
    fixtures = []
    for disc in (-88, -228, -312, -660):
        row = next(r for r in reg.table1 if r.disc == disc)
        fixtures.append((disc, fam.specialize(row.lam, name=f"d{disc}")))
    t0 = time.time()
    checked = mismatches = 0
    for disc, surf in fixtures:
        oracle = NewformOracle(disc)
        primes = usable_primes(fam, oracle, 100)[:5]
        assert len(primes) >= 5, (disc, primes)
        for p in primes:
            _, _, cands = count_surface(surf, p)
            vals = oracle.eigenvalue_abs(p)
            checked += 1
            if not any(abs(c) in vals for c in cands):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 300 and checked >= 20
    _line(
        "4 lefschetz closed loop",
        ok,
        f"{checked} (surface, prime) pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


# -- criterion 5: search rediscovery -------------------------------------------

def test_criterion_5_search_rediscovery():
    from k3cm.newforms import NewformOracle
    from k3cm.search import search, usable_primes

    reg = registry()
    fam = reg.family("xlm")
    t0 = time.time()
    results = {}
    for disc, expect in ((-88, Fraction(5, 32)), (-1540, Fraction(539, 512))):
        oracle = NewformOracle(disc)
        primes = usable_primes(fam, oracle, 100)[:4]
        assert len(primes) >= 3
        reports = search(fam, oracle, primes)
        results[disc] = reports[0].lam if reports else None
    elapsed = time.time() - t0
    ok = (
        results[-88] == Fraction(5, 32)
        and results[-1540] == Fraction(539, 512)
        and elapsed < 600
    )
    _line(
        "5 search rediscovery",
        ok,
        f"lambda(-88) = {results[-88]}, lambda(-1540) = {results[-1540]}, {elapsed:.1f}s",
    )


# -- criterion 6: lift rediscovery ----------------------------------------------

def test_criterion_6_lift_rediscovery():
    from k3cm.lift import recover_section
    from k3cm.surfaces import classify_fibers

    reg = registry()
    fam = reg.family("xlm")
    row = next(r for r in reg.table1 if r.disc == -88)
    surf = fam.specialize(row.lam, name="d88")
    fibers = classify_fibers(surf)
    plan = {}
    for i, f in enumerate(fibers):
        spec = {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"}.get(f.label())
        if spec is not None:
            plan[i] = spec
    trace = []
    sec = recover_section(surf, fibers, plan, 19, expected_disc=-88, trace=trace)
    exact = sec.u == parse_ratfun(row.u_text)
    ks = [k for _, k in trace]
    doubling = ks == [2 ** (i + 1) for i in range(len(ks))] and len(ks) >= 2
    ok = exact and doubling
    _line(
        "6 lift rediscovery",
        ok,
        f"section recovered exactly; residual precision doubled through {ks}",
    )


# -- criterion 7: property suites ------------------------------------------------

def test_criterion_7_property_suites():
    from math import gcd

    from k3cm.exact import rational_reconstruct
    from k3cm.lattices import smith_normal_form
    from oracles import det_bareiss, mat_mul
    from k3cm.quadforms import BinaryQuadraticForm, reduce_form
    from k3cm.sections import assemble_ns, build_sections
    from k3cm.surfaces import classify_fibers

    t0 = time.time()
    rng = random.Random(20260808)
    # 10^4 random forms: reduction idempotent and discriminant preserving
    done = 0
    while done < 10**4:
        a = rng.randrange(1, 200)
        b = rng.randrange(-200, 201)
        c = rng.randrange(1, 200)
        f = BinaryQuadraticForm(a, b, c)
        if f.discriminant >= 0:
            continue
        done += 1
        r = reduce_form(f)
        assert r.is_reduced() and r.discriminant == f.discriminant
        assert reduce_form(r) == r
    # 10^4 rational reconstruction roundtrips
    done = 0
    while done < 10**4:
        u = rng.randrange(-10**4, 10**4 + 1)
        v = rng.randrange(1, 10**4)
        m = rng.randrange(2 * max(u * u, v * v) + 1, 10**9 + 7)
        if gcd(v, m) != 1:
            continue
        done += 1
        residue = u * pow(v, -1, m) % m
        assert rational_reconstruct(residue, m) == Fraction(u, v)
    # 10^3 random Smith forms: unimodular transforms and divisibility chain
    for _ in range(10**3):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        D, U, V = smith_normal_form(m)
        assert mat_mul(mat_mul(U, m), V) == D
        assert abs(det_bareiss(U)) == 1 and abs(det_bareiss(V)) == 1
        diag = [D[i][i] for i in range(n)]
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0) or y == 0
    # Euler number 24 and rank <= 20 on every surface fixture
    reg = registry()
    for name, fx in reg.surfaces.items():
        surf = fx.build_surface(reg)
        fibers = classify_fibers(surf)
        assert sum(f.euler * f.cusp.degree for f in fibers) == 24, name
        assert assemble_ns(surf, build_sections(surf, fx.sections)).rank <= 20
    # 2 h(P) has odd denominator on all family rows
    for row in reg.table1:
        if row.status != "defective":
            assert (2 * row.height).denominator % 2 == 1
    elapsed = time.time() - t0
    _line("7 property suites", True, f"all randomized and fixture properties held, {elapsed:.1f}s")
