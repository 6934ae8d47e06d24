"""Full oracle check of the per-prime isometry test, too slow for the test suite.

    PYTHONPATH=src python tests/check_tlattice_full.py

1. For every ordered pair of reduced forms of 73 discriminants (the 65
   exponent-2 fields of `discs --max 7000` and the NS determinants of the
   Table 1, example and extremal fixtures), taken as is and with the second
   form negated, compares `is_isomorphic` (one p-primary part at a time)
   with the brute force over the whole group (`_isometric_to` on the
   unsplit forms).
2. For the Neron-Severi lattice of every non-defective Table 1 row, example
   surface and extremal row (the 39 surfaces `verify` certifies), compares
   `match_transcendental` with the same matching done by the whole-group
   brute force.
   It also compares each lattice's leading minors (`GramLattice._minors`,
   rows rescaled when read) with the dense Bareiss elimination
   (`oracles.dense_minors`).
3. For U + f(-1) with f each reduced form of the same 73 discriminants,
   compares `match_transcendental` (genus characters, then the per-prime
   isometry test) with the whole-group brute-force matching, on the returned
   form or on the "several classes" / "no form" outcome.

Prints one line per discriminant and per fixture group, then the totals,
with how many odd primary parts `is_isomorphic` decided by their character
and how many by brute force; exits 1 on any disagreement.
"""

import sys
import time

import k3cm.lattices
from k3cm.fixtures import registry
from k3cm.lattices import (
    DiscriminantForm,
    GramLattice,
    MatchError,
    discriminant_form,
    form_lattice,
    match_transcendental,
)
from k3cm.newforms import exponent_two_table
from k3cm.quadforms import enumerate_reduced
from k3cm.sections import assemble_ns, build_sections

from oracles import dense_minors


class OddPartTally:
    """Odd primary parts decided inside `is_isomorphic`, by character or by brute force.

    A part decided by its character reads `_character` twice, once per form
    (both parts are Z/p); any other part calls `_isometric_to` once.
    """

    def __init__(self):
        self.character_reads = self.brute = 0
        self.inside = False
        iso, brute, char = DiscriminantForm.is_isomorphic, DiscriminantForm._isometric_to, k3cm.lattices._character

        def is_isomorphic(form, other):
            self.inside = True
            try:
                return iso(form, other)
            finally:
                self.inside = False

        def isometric_to(part, other):
            self.brute += self.inside and part.orders[0] % 2 == 1
            return brute(part, other)

        def character(part, p):
            eps = char(part, p)
            self.character_reads += self.inside and eps is not None
            return eps

        DiscriminantForm.is_isomorphic, DiscriminantForm._isometric_to = is_isomorphic, isometric_to
        k3cm.lattices._character = character

    def summary(self):
        return (f"odd primary parts decided by character {self.character_reads // 2}, "
                f"by brute force {self.brute}")


def whole_group_matches(ns):
    """Every reduced form whose discriminant form is minus that of ns."""
    target = discriminant_form(ns).negated()
    return [f for f in sorted(enumerate_reduced(ns.det))
            if discriminant_form(form_lattice(f))._isometric_to(target)]


def ns_lattices(reg):
    """(group, name, NS lattice) for every surface `verify` certifies."""
    for fx in reg.certified:
        surf = fx.build_surface(reg)
        yield fx.group, fx.name, assemble_ns(surf, build_sections(surf, fx.sections))


def check_pairs(discs):
    pairs = isometric = disagree = 0
    for d in discs:
        start = time.perf_counter()
        forms = [discriminant_form(form_lattice(f)) for f in sorted(enumerate_reduced(d))]
        bad = iso = 0
        for a in forms:
            for b in forms:
                for target in (b, b.negated()):
                    want = a._isometric_to(target)
                    iso += want
                    bad += a.is_isomorphic(target) != want
        pairs += len(forms) ** 2
        isometric += iso
        disagree += bad
        print(f"d = {d}: {len(forms)} forms, {len(forms) ** 2} ordered pairs, {iso} isometric, "
              f"{bad} disagreement, {time.perf_counter() - start:.1f} s", flush=True)
    return pairs, isometric, disagree


def check_lattices(reg):
    counts, disagree = {}, 0
    for group, name, ns in ns_lattices(reg):
        try:
            got = [match_transcendental(ns)]
        except MatchError as e:
            got = str(e)
        want = whole_group_matches(ns)
        counts[group] = counts.get(group, 0) + 1
        if got != want:
            disagree += 1
            print(f"{group} {name}: per-prime {got}, whole group {want}", flush=True)
        if ns._minors != dense_minors(ns.gram):
            disagree += 1
            print(f"{group} {name}: minors {ns._minors}, dense {dense_minors(ns.gram)}", flush=True)
    for group, n in counts.items():
        print(f"{group}: {n} NS lattices compared", flush=True)
    return sum(counts.values()), disagree


def outcome(matches):
    """A form list as the match's outcome: the one form, "several classes" or "no form"."""
    if len(matches) == 1:
        return matches[0]
    return "several classes" if matches else "no form"


def check_u_plus_forms(discs):
    lattices = disagree = 0
    for d in discs:
        forms = sorted(enumerate_reduced(d))
        bad = 0
        for f in forms:
            (a, b), (_, c) = f.gram()
            ns = GramLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -a, -b], [0, 0, -b, -c]])
            try:
                got = match_transcendental(ns)
            except MatchError as e:
                got = "several classes" if "several classes" in str(e) else "no form"
            want = outcome(whole_group_matches(ns))
            if got != want:
                bad += 1
                print(f"d = {d}, f = {f}: genus prefilter {got}, whole group {want}", flush=True)
        lattices += len(forms)
        disagree += bad
        print(f"d = {d}: {len(forms)} lattices U + f(-1), {bad} disagreement", flush=True)
    return lattices, disagree


def main():
    tally = OddPartTally()
    reg = registry()
    discs = {d for ds in exponent_two_table(7000).values() for d in ds}
    discs |= {fx.expected_disc for fx in reg.certified}
    pairs, isometric, bad_pairs = check_pairs(sorted(discs, key=abs))
    lattices, bad_lattices = check_lattices(reg)
    u_forms, bad_u_forms = check_u_plus_forms(sorted(discs, key=abs))
    print(f"{len(discs)} discriminants, {pairs} ordered pairs x 2 (as is, negated), "
          f"{isometric} isometric, {bad_pairs} disagreement; "
          f"{lattices} NS lattices, {bad_lattices} disagreement; "
          f"{u_forms} U + f(-1) lattices, {bad_u_forms} disagreement; {tally.summary()}")
    return 1 if bad_pairs or bad_lattices or bad_u_forms else 0


if __name__ == "__main__":
    sys.exit(main())
