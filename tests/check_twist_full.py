"""Full oracle check of the twist counting path, too slow for the test suite.

    PYTHONPATH=src python tests/check_twist_full.py [BOUND] [EXTRA_PRIME ...] [--rule-bound N]

Compares `count_family_member` (twist path) with specialize + analyze +
brute-force count on every lambda at every good prime of the `xlm` family up
to BOUND (default 199) and at the extra primes (default 307), and at each
prime the table's S and Z with the p^2 reference loop.  Then, at every prime
up to N (default: the largest prime compared), compares `bad_primes` with
the per-prime reduction oracle `reduces_cleanly`, and builds the twist table
at every good prime: a good prime without a table is a bad reduction the
rule missed.  Prints one line per prime, the rule check and a total; exits
1 on any mismatch, disagreement or missing table.
"""

import argparse
import sys
import time

from oracles import reduces_cleanly, twist_fibers, twist_sums
from test_counting import brute_force_member, count_or_error

from k3cm.counting import twist_table
from k3cm.exact import primes_up_to
from k3cm.fixtures import registry


def check_rule(fam, bound: int) -> int:
    """Print where `bad_primes` and the reduction oracle disagree up to bound,
    and the good primes without a twist table; return how many such primes."""
    primes = primes_up_to(bound)
    rule = fam.bad_primes(bound)
    disagree = [p for p in primes if (p in rule) == reduces_cleanly(fam, p)]
    no_table = [p for p in primes if p not in rule and twist_table(fam, p) is None]
    print(f"rule up to {bound}: bad primes {sorted(rule)}; {len(primes)} primes, "
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
    fam = registry().family("xlm")
    primes = fam.good_primes(bound) + [p for p in extra if p not in fam.bad_primes(p)]
    compared = fallbacks = mismatches = sums_differ = 0
    for p in primes:
        start = time.perf_counter()
        table = twist_table(fam, p)
        bad = 0
        for lam in range(p):
            want = brute_force_member(fam, p, lam)
            got = count_or_error(fam, p, lam)
            if table is None or lam in table.cusps:
                fallbacks += 1
                same = got == (want if isinstance(want, type) else want[0])
            else:
                same = not isinstance(want, type) and (got, twist_fibers(table, lam)) == want
            compared += 1
            bad += not same
        mismatches += bad
        sums = "-"
        if table is not None:
            same_sums = (table.S, table.Z) == twist_sums(fam, p)
            sums_differ += not same_sums
            sums = "equal" if same_sums else "DIFFER"
        print(f"p = {p}: {p} lambda, table {'built' if table else 'none'}, "
              f"{len(table.cusps) if table else p} fallback, {bad} mismatch, S/Z {sums}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(primes)} primes, {compared} lambda compared, "
          f"{fallbacks} fallback, {mismatches} mismatch, S/Z differ at {sums_differ} primes")
    missed = check_rule(fam, args.rule_bound or max(primes))
    return 1 if mismatches or sums_differ or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
