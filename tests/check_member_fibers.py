"""Sweep of family members against `classify_fibers`, too slow for the test suite.

    PYTHONPATH=src python tests/check_member_fibers.py [-H H]

For `xlm`, `xlm` at mu = 81/10 (whose g has an orbit cusp) and the three test
families whose g has an I0* fiber at t = 0, at infinity, or an I1* fiber at
t = 0, builds the member at every lambda = a/b with |a|, b <= H (default 40)
and at INFINITY.  Each member's fibers and c4, c6, Delta (taken from g) must
equal `classify_fibers` and `_discriminant_polys` of a surface built from the
member's own a2, a4, a6.  Where the oracle raises (a merge that leaves the
supported types), the member must raise the same error.  Prints one line per
family and a total: the number of lambda, the mismatches, the lambda where the
oracle raises, and how many members built their fiber at t = lambda as g's I0*
(closed form) and how many classified it on the member (`classify_at`, at a
cusp of g or at INFINITY); exits 1 on any mismatch.
"""

import argparse
import dataclasses
import sys
import time
from fractions import Fraction

from test_counting import I0_STAR_AT_0, I0_STAR_AT_INF, I1_STAR_AT_0

import k3cm.families
from k3cm.families import INFINITY
from k3cm.fixtures import registry
from k3cm.surfaces import WeierstrassSurface, _discriminant_polys, classify_fibers


def sweep(h: int) -> list:
    """INFINITY and the distinct a/b with |a|, b <= h."""
    return [INFINITY] + sorted({Fraction(a, b) for b in range(1, h + 1) for a in range(-h, h + 1)})


def compare(family, lam) -> tuple[bool, bool]:
    """(same, the oracle raised) for the member at lambda."""
    member = family.specialize(lam)
    own = WeierstrassSurface(member.a2, member.a4, member.a6)
    if (member.c4, member.c6, member.delta) != _discriminant_polys(member.a2, member.a4, member.a6):
        return False, False
    try:
        want = classify_fibers(own)
    except ValueError as exc:
        try:
            member.fibers
        except type(exc) as got:
            return str(got) == str(exc), True
        return False, True
    return member.fibers == want, False


def counted_classify_at(classified: list):
    """`families.classify_at`, appending each cusp it is called at to classified."""
    original = k3cm.families.classify_at
    return lambda surface, cusp, *rest: classified.append(cusp) or original(surface, cusp, *rest)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("-H", type=int, default=40)
    args = parser.parse_args(argv)
    xlm = registry().family("xlm")
    families = [xlm, dataclasses.replace(xlm, name="xlm_mu_81/10", mu=Fraction(81, 10)),
                I0_STAR_AT_0, I0_STAR_AT_INF, I1_STAR_AT_0]
    lams = sweep(args.H)
    total = mismatches = raised = on_member = 0
    classified = []
    k3cm.families.classify_at = counted_classify_at(classified)
    for family in families:
        family.fixed_fibers   # g's fibers, which do not go through families.classify_at
        start, bad, raises, classifying = time.perf_counter(), 0, 0, 0
        for lam in lams:
            del classified[:]
            same, oracle_raised = compare(family, lam)
            if not same:
                print(f"{family.name} lambda = {lam}: MISMATCH", flush=True)
            bad += not same
            raises += oracle_raised
            classifying += bool(classified)
        print(f"{family.name}: {len(lams)} lambda, {bad} mismatch, oracle raises at {raises}, "
              f"I0* at lambda from g {len(lams) - classifying}, classify_at {classifying}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        total, mismatches, raised = total + len(lams), mismatches + bad, raised + raises
        on_member += classifying
    print(f"{len(families)} families, {total} lambda, {mismatches} mismatch, oracle raises at {raised}, "
          f"I0* at lambda from g {total - on_member}, classify_at {on_member}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
