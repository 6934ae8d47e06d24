"""Full oracle check of the twist counting path, too slow for the test suite.

    PYTHONPATH=src python tests/check_twist_full.py [BOUND] [EXTRA_PRIME ...]

Compares `count_family_member` (twist path) with specialize + analyze +
brute-force count on every lambda at every good prime of the `xlm` family up
to BOUND (default 199) and at the extra primes (default 307), and at each
prime the table's S and Z with the p^2 reference loop.  Prints one line per
prime and a total; exits 1 on any mismatch.
"""

import sys
import time

from oracles import twist_fibers, twist_sums
from test_counting import brute_force_member, count_or_error

from k3cm.counting import twist_table
from k3cm.fixtures import registry


def main(argv):
    bound = int(argv[0]) if argv else 199
    extra = [int(a) for a in argv[1:]] if len(argv) > 1 else [307]
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
    return 1 if mismatches or sums_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
