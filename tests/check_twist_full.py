"""Full oracle check of the twist counting path, too slow for the test suite.

    PYTHONPATH=src python tests/check_twist_full.py [BOUND] [EXTRA_PRIME ...] [--rule-bound N]

Compares `count_family_member` (the twist table) with specialize + analyze +
brute-force count on every lambda at every good prime up to BOUND (default
199) and at the extra primes (default 307), for the `xlm` family and the two
test families whose g has an I0* fiber (at t = 0 and at infinity), and at
each prime the table's S and Z with the p^2 reference loop.  A lambda on a
cusp of g agrees when both paths raise.  Then, for each family at every
prime up to N (default: the largest prime compared), compares `bad_primes`
with the per-prime reduction oracle `reduces_cleanly`, and builds the twist
table at every good prime: a good prime whose table raises is a bad
reduction the rule missed, or a fiber the table cannot carry.  Prints one
line per family and prime, the rule checks and a total; exits 1 on any
mismatch, disagreement or good prime without a table.
"""

import argparse
import sys
import time

from oracles import reduces_cleanly, twist_fibers, twist_sums
from test_counting import I0_STAR_AT_0, I0_STAR_AT_INF, brute_force_member, count_or_error

from k3cm.counting import CountingError, twist_table
from k3cm.exact import primes_up_to
from k3cm.fixtures import registry


def table_or_error(fam, p):
    try:
        return twist_table(fam, p)
    except CountingError as e:
        return e


def check_rule(fam, bound: int) -> int:
    """Print where `bad_primes` and the reduction oracle disagree up to bound,
    and the good primes whose twist table raises; return how many such primes."""
    primes = primes_up_to(bound)
    rule = fam.bad_primes(bound)
    disagree = [p for p in primes if (p in rule) == reduces_cleanly(fam, p)]
    no_table = [p for p in primes if p not in rule and isinstance(table_or_error(fam, p), Exception)]
    print(f"{fam.name} rule up to {bound}: bad primes {sorted(rule)}; {len(primes)} primes, "
          f"{len(disagree)} disagree with the oracle {disagree}, "
          f"{len(no_table)} good without a twist table {no_table}")
    return len(disagree) + len(no_table)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("bound", nargs="?", type=int, default=199)
    parser.add_argument("extra", nargs="*", type=int, default=[307])
    parser.add_argument("--rule-bound", type=int, default=None)
    args = parser.parse_args(argv)
    bound, extra = args.bound, args.extra
    families = [registry().family("xlm"), I0_STAR_AT_0, I0_STAR_AT_INF]
    compared = both_raise = mismatches = sums_differ = no_table = 0
    largest = 0
    for fam in families:
        primes = fam.good_primes(bound) + [p for p in extra if p not in fam.bad_primes(p)]
        largest = max(largest, *primes)
        for p in primes:
            start = time.perf_counter()
            table = table_or_error(fam, p)
            if isinstance(table, Exception):
                no_table += 1
                print(f"{fam.name} p = {p}: NO TABLE ({table})", flush=True)
                continue
            bad = 0
            for lam in range(p):
                want = brute_force_member(fam, p, lam)
                got = count_or_error(fam, p, lam)
                if lam in table.cusps:
                    both_raise += 1
                    same = got == want == CountingError
                else:
                    same = not isinstance(want, type) and (got, twist_fibers(table, lam)) == want
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
    return 1 if mismatches or sums_differ or no_table or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
