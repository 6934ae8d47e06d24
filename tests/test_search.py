import dataclasses
from fractions import Fraction

import pytest

from k3cm.counting import TwistTable, count_family_member, twist_table
from k3cm.families import Family
from k3cm.fixtures import registry
from k3cm.newforms import NewformOracle
from k3cm.search import (
    SearchError,
    corroborate,
    first_usable_primes,
    lift_candidates,
    matching_raw_counts,
    scan_prime,
    search,
    usable_primes,
)
from oracles import scan_by_member
from test_counting import I0_STAR_AT_0, I0_STAR_AT_INF


@pytest.fixture(scope="module")
def fam():
    return registry().family("xlm")


def test_first_usable_primes_has_no_cap(fam):
    # -1540 has 17 usable split primes below 200: asking for 20 goes past 200, skipping none
    oracle = NewformOracle(-1540)
    below = usable_primes(fam, oracle, 200)
    got = first_usable_primes(fam, oracle, len(below) + 3)
    assert len(got) == len(below) + 3 and got[:len(below)] == below
    assert got == usable_primes(fam, oracle, got[-1]) and got[-1] > 200
    assert first_usable_primes(fam, oracle, 4) == below[:4]


def test_scan_rejects_inert_prime(fam):
    oracle = NewformOracle(-88)
    with pytest.raises(SearchError):
        scan_prime(fam, 7, oracle)  # 7 is inert for -88


def test_a_scan_asks_the_bad_prime_rule_at_its_prime_alone(fam, monkeypatch):
    # g's rule at p itself, not a sieve of every prime up to p through `Family.bad_primes`
    def sieve(*args):
        raise AssertionError("the primes up to p were sieved")

    monkeypatch.setattr(Family, "bad_primes", sieve)
    oracle = NewformOracle(-20)
    for p in (3, 7):   # split for -20, bad for xlm
        with pytest.raises(SearchError, match=f"^p = {p} is a bad prime for family xlm$"):
            scan_prime(fam, p, oracle)
    assert scan_prime(fam, 23, oracle) == scan_by_member(fam, 23, oracle)
    assert corroborate(fam, Fraction(1, 3), oracle, [7, 23]) == [(7, "skipped"), (23, "mismatch")]


def test_scan_contains_true_residue(fam):
    oracle = NewformOracle(-88)
    for p in usable_primes(fam, oracle, 100)[:4]:
        residues = scan_prime(fam, p, oracle)
        want = 5 * pow(32, -1, p) % p
        assert want in residues, (p, residues)


def test_lift_ranks_true_parameter_first(fam):
    primes = usable_primes(fam, NewformOracle(-88), 100)[:3]
    sets = {p: scan_prime(fam, p, NewformOracle(-88)) for p in primes}
    reports = lift_candidates(sets, -88)
    assert reports[0].lam == Fraction(5, 32)


def test_search_rediscovers_1540(fam):
    oracle = NewformOracle(-1540)
    primes = usable_primes(fam, oracle, 100)[:4]
    reports = search(fam, oracle, primes)
    assert reports[0].lam == Fraction(539, 512)


def test_inconsistent_residues_do_not_lift(fam):
    sets = {101: {17}, 103: {55}, 107: {90}}
    reports = lift_candidates(sets, -88, height_bound=10**4)
    assert all(r.lam != Fraction(5, 32) for r in reports)


def test_corroborate_matches_and_refutes(fam):
    oracle = NewformOracle(-88)
    primes = usable_primes(fam, oracle, 100)[:6]
    rows = corroborate(fam, Fraction(5, 32), oracle, primes)
    assert all(status == "match" for _, status in rows)
    rows_bad = corroborate(fam, Fraction(7, 32), oracle, primes)
    assert any(status == "mismatch" for _, status in rows_bad)


def test_table1_lambdas_survive_scan(fam):
    # soundness sample: true parameters reduce into the scan output
    reg = registry()
    sample = [r for r in reg.table1 if r.disc in (-228, -312, -660)]
    for row in sample:
        oracle = NewformOracle(row.disc)
        for p in usable_primes(fam, oracle, 100)[:3]:
            if row.lam.denominator % p == 0:
                continue
            res = scan_prime(fam, p, oracle)
            want = row.lam.numerator * pow(row.lam.denominator, -1, p) % p
            assert want in res, (row.disc, p)


def test_scan_equals_the_member_by_member_oracle(fam):
    # one correlation for all lambda against one O(p) count per lambda; xlm's g has
    # I_n nodes (I5, I3, I2) at finite cusps, whose share flips with chi(t0 - lambda)
    for disc in (-88, -1540):
        oracle = NewformOracle(disc)
        for p in usable_primes(fam, oracle, 200)[:4] + [usable_primes(fam, oracle, 400)[-1]]:
            assert twist_table(fam, p).nodes, p
            assert scan_prime(fam, p, oracle) == scan_by_member(fam, p, oracle), (disc, p)
    oracle = NewformOracle(-88)
    for other in (I0_STAR_AT_0, I0_STAR_AT_INF):
        for p in usable_primes(other, oracle, 100)[:3]:
            assert scan_prime(other, p, oracle) == scan_by_member(other, p, oracle), (other.name, p)


def test_a_raw_count_matches_where_a_candidate_trace_does(fam):
    # raw in the target set, against |candidate| in eigenvalue_abs, at every lambda off the cusps
    for disc in (-88, -1540):
        oracle = NewformOracle(disc)
        for p in usable_primes(fam, oracle, 100)[:2]:
            targets, admissible = matching_raw_counts(oracle, p), oracle.eigenvalue_abs(p)
            table = twist_table(fam, p)
            for lam in set(range(p)) - set(table.cusps):
                _, _, cands = count_family_member(fam, p, lam)
                assert (table.raw_counts[lam] in targets) == any(abs(c) in admissible for c in cands)


def test_a_scan_forms_no_smooth_count_and_keeps_its_lambda_once_they_are_formed(fam, monkeypatch):
    # the match reads raw counts alone: a scan never forms the members' smooth counts
    # (`TwistTable.members`), and once something has formed them the scan is unchanged
    oracle, built = NewformOracle(-88), []
    real_members = TwistTable.members.func
    monkeypatch.setattr(TwistTable, "members", property(lambda t: built.append(t.p) or real_members(t)))
    for p in usable_primes(fam, oracle, 100)[:2]:
        plain_first, members_first = dataclasses.replace(fam), dataclasses.replace(fam)
        plain = scan_prime(plain_first, p, oracle)
        assert built == []
        twist_table(members_first, p).members
        assert scan_prime(members_first, p, oracle) == plain == scan_by_member(fam, p, oracle)
        assert scan_prime(plain_first, p, oracle) == plain
        assert built == [p]
        built.clear()
