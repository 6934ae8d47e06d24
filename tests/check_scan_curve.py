"""Cost curve of a full `scan_prime`, too slow for the test suite.

    PYTHONPATH=src python tests/check_scan_curve.py [PRIME ...] [--disc D] [--repeats N]

First prints the family's fixed cost, paid once per command whatever the
primes: the median time of N fresh registries' g (`Family.untwisted`), its
reduction numbers (the bad-prime rule's integers) and its fixed fibers.
Then scans every lambda of the `xlm` family for the field of discriminant D
(default -88) at each prime (default 199, 401, 787, 1193, 1997 and 4003),
each run with a fresh twist table, and prints per prime the median time of
N (default 5) table builds and of N full scans, taken in N rounds over all
the primes, then the log-log slope of the scan time between neighbouring
scanned primes.  A prime that does not split in the field has its table
timed and no scan.  At each scanned prime the scan's residue set must equal
the member-by-member oracle `oracles.scan_by_member` (one O(p)
`count_family_member` per lambda); exits 1 where it does not.
"""

import argparse
import math
import statistics
import sys
import time

from oracles import scan_by_member

import k3cm.fixtures as fixtures
from k3cm.counting import TwistTable
from k3cm.fixtures import registry
from k3cm.newforms import SPLIT, NewformOracle
from k3cm.search import scan_prime

PRIMES = [199, 401, 787, 1193, 1997, 4003]


def elapsed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def fixed_costs(name: str, repeats: int) -> dict:
    """Median seconds of g, its reduction numbers and its fixed fibers, each from a fresh registry."""
    times = {"g": [], "reduction numbers": [], "fixed fibers": []}
    for _ in range(repeats):
        fixtures._registry = None
        fam = registry().family(name)
        times["g"].append(elapsed(lambda: fam.untwisted))
        times["reduction numbers"].append(elapsed(lambda: fam.untwisted._reduction_numbers))
        times["fixed fibers"].append(elapsed(lambda: fam.fixed_fibers))
    return {part: statistics.median(ts) for part, ts in times.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("primes", nargs="*", type=int, default=PRIMES)
    parser.add_argument("--disc", type=int, default=-88)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    costs = fixed_costs("xlm", args.repeats)
    print(f"xlm fixed cost, median of {args.repeats} fresh registries: "
          + ", ".join(f"{part} {1000 * t:.2f} ms" for part, t in costs.items()), flush=True)
    fam, oracle = registry().family("xlm"), NewformOracle(args.disc)

    def fresh_scan(p):
        fam.twist_tables.clear()
        return scan_prime(fam, p, oracle)

    # round by round over all primes, so that a change in the host's speed meets every prime alike
    split = [p for p in args.primes if oracle.prime_kind(p) == SPLIT]
    builds, scans = {p: [] for p in args.primes}, {p: [] for p in split}
    for _ in range(args.repeats):
        for p in args.primes:
            builds[p].append(elapsed(lambda: TwistTable.build(fam, p)))
            if p in scans:
                scans[p].append(elapsed(lambda: fresh_scan(p)))
    rows, wrong = [], 0
    print("p\tbuild_ms\tscan_ms\tresidues\toracle")
    for p in args.primes:
        build = statistics.median(builds[p])
        if p not in scans:
            print(f"{p}\t{1000 * build:.1f}\t-\t-\tnot split", flush=True)
            continue
        scan = statistics.median(scans[p])
        residues = fresh_scan(p)
        same = residues == scan_by_member(fam, p, oracle)
        wrong += not same
        rows.append((p, scan))
        print(f"{p}\t{1000 * build:.1f}\t{1000 * scan:.1f}\t{len(residues)}\t"
              f"{'equal' if same else 'DIFFERS'}", flush=True)
    for (p, s), (q, t) in zip(rows, rows[1:]):
        print(f"slope {p} -> {q}: {math.log(t / s) / math.log(q / p):.2f}")
    print(f"{len(args.primes)} tables built in {1000 * sum(map(statistics.median, builds.values())):.1f} ms "
          f"(sum of medians), {len(rows)} scans, {wrong} residue sets differ from the oracle")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
