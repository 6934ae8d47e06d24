"""Full oracle check of the twist counting path, too slow for the test suite.

    PYTHONPATH=src python tests/check_twist_full.py [BOUND] [EXTRA_PRIME ...] [--rule-bound N]

Compares `count_family_member`, an entry of the twist table's `members` (one
correlation for all lambda), with specialize + analyze + brute-force count
on every lambda at every good prime up to BOUND (default
199) and at the extra primes (default 307), for the `xlm` family, `xlm` at
mu = 81/10 (whose g has an orbit cusp, so that the table's cusps include the
roots of an irreducible factor of Delta_g mod p) and the two test families
whose g has an I0* fiber (at t = 0 and at infinity), and at each prime the
table's S and Z with the p^2 reference loop.  A lambda on a
cusp of g agrees when both paths raise.  Then, for each family at every
prime up to N (default: the largest prime compared), compares `bad_primes`
with the per-prime reduction oracle `reduces_cleanly`, and builds the twist
table at every good prime: a good prime whose table raises is a bad
reduction the rule missed, or a fiber the table cannot carry.  Last, a
surface pass compares `count_surface` with the brute-force count (plus p per
fixed component of `analyze_fibers_mod_p`) on the 39 fixture surfaces at
every prime up to BOUND and at the extra primes: a bad prime of a surface
is skipped, and so is a prime where both paths raise, each with its reason.
Prints one line per family and prime, the rule checks, one line per
surface and a total; exits 1 on any mismatch, disagreement or good prime
without a table.
"""

import argparse
import dataclasses
import sys
import time

from oracles import reduces_cleanly, twist_fibers, twist_sums
from test_counting import (
    I0_STAR_AT_0,
    I0_STAR_AT_INF,
    MU_ORBIT,
    brute_force,
    brute_force_member,
    count_or_error,
)

from k3cm.counting import CountingError, count_surface, twist_table
from k3cm.exact import GF, primes_up_to
from k3cm.fixtures import registry


def result_or_error(fn, *args):
    """fn(*args), or the CountingError it raises."""
    try:
        return fn(*args)
    except CountingError as e:
        return e


def check_rule(fam, bound: int) -> int:
    """Print where `bad_primes` and the reduction oracle disagree up to bound,
    and the good primes whose twist table raises; return how many such primes."""
    primes = primes_up_to(bound)
    rule = fam.bad_primes(bound)
    disagree = [p for p in primes if (p in rule) == reduces_cleanly(fam, p)]
    no_table = [p for p in primes if p not in rule and isinstance(result_or_error(twist_table, fam, p), Exception)]
    print(f"{fam.name} rule up to {bound}: bad primes {sorted(rule)}; {len(primes)} primes, "
          f"{len(disagree)} disagree with the oracle {disagree}, "
          f"{len(no_table)} good without a twist table {no_table}")
    return len(disagree) + len(no_table)


def fixture_surfaces() -> list:
    """The 39 surfaces `verify` certifies (`FixtureRegistry.certified`)."""
    reg = registry()
    return [fx.build_surface(reg) for fx in reg.certified]


def check_surfaces(primes) -> int:
    """Print, per fixture surface, the primes compared, the mismatches and the skips
    with their reasons; return how many mismatches."""
    surfaces, mismatches, compared = fixture_surfaces(), 0, 0
    for surf in surfaces:
        skipped, bad = {}, []
        for p in primes:
            if surf.is_bad_prime(p):
                skipped.setdefault("bad prime", []).append(p)
                continue
            got = result_or_error(count_surface, surf, p)
            want = result_or_error(lambda: brute_force(surf.map_domain(GF(p)), p)[0])
            if isinstance(got, Exception) and isinstance(want, Exception):
                skipped.setdefault(f"both raise: {got.__cause__ or got}", []).append(p)
                continue
            compared += 1
            if got != want:
                bad.append(p)
                print(f"{surf.name} p = {p}: MISMATCH count_surface {got} vs brute force {want}")
        mismatches += len(bad)
        skips = "; ".join(f"{reason} at {ps}" for reason, ps in skipped.items()) or "none"
        print(f"{surf.name}: {len(primes) - sum(map(len, skipped.values()))} primes compared, "
              f"{len(bad)} mismatch, skipped: {skips}", flush=True)
    print(f"{len(surfaces)} surfaces, {compared} (surface, prime) pairs compared, {mismatches} mismatch")
    return mismatches


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("bound", nargs="?", type=int, default=199)
    parser.add_argument("extra", nargs="*", type=int, default=[307])
    parser.add_argument("--rule-bound", type=int, default=None)
    args = parser.parse_args(argv)
    bound, extra = args.bound, args.extra
    xlm = registry().family("xlm")
    orbit = dataclasses.replace(xlm, mu=MU_ORBIT, name=f"xlm_mu_{MU_ORBIT}")
    families = [xlm, orbit, I0_STAR_AT_0, I0_STAR_AT_INF]
    compared = both_raise = mismatches = sums_differ = no_table = 0
    largest = 0
    for fam in families:
        primes = fam.good_primes(bound) + [p for p in extra if p not in fam.bad_primes(p)]
        largest = max(largest, *primes)
        for p in primes:
            start = time.perf_counter()
            table = result_or_error(twist_table, fam, p)
            if isinstance(table, Exception):
                no_table += 1
                print(f"{fam.name} p = {p}: NO TABLE ({table})", flush=True)
                continue
            bad, members = 0, table.members
            for lam in range(p):
                want = brute_force_member(fam, p, lam)
                got = count_or_error(fam, p, lam)
                if lam in table.cusps:
                    both_raise += 1
                    same = got == want == CountingError and lam not in members
                else:
                    same = (not isinstance(want, type) and (got, twist_fibers(table, lam)) == want
                            and members[lam] == got)
                compared += 1
                bad += not same
            mismatches += bad
            same_sums = (table.S, table.Z) == twist_sums(fam, p)
            sums_differ += not same_sums
            print(f"{fam.name} p = {p}: {p} lambda, {len(table.cusps)} on cusps of g, "
                  f"{bad} mismatch, S/Z {'equal' if same_sums else 'DIFFER'}, "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(families)} families, {compared} lambda compared ({both_raise} on cusps of g), "
          f"{mismatches} mismatch, S/Z differ at {sums_differ} primes, {no_table} primes without a table")
    missed = sum(check_rule(fam, args.rule_bound or largest) for fam in families)
    surface_mismatches = check_surfaces(primes_up_to(bound) + [p for p in extra if p > bound])
    return 1 if mismatches or sums_differ or no_table or missed or surface_mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
