"""Regression runner: replays every fixture and compares against expectations.

One plain-text line per check; any mismatch flips the run to failing.  The
certified surfaces are the registry's one list (`FixtureRegistry.certified`),
each compared with its expectations by `check_certificate`; the subsets are
filters over that list.  The documented source-text errata (see the data
files' notes) are compared against their independently derived values and
reported with an `erratum` tag so the exceptions stay visible in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from k3cm.fixtures import registry
from k3cm.quadforms import reduce_form
from k3cm.sections import pairing


@dataclass
class Report:
    lines: list = field(default_factory=list)
    failures: int = 0
    checks: int = 0

    def add(self, ok: bool, text: str):
        self.checks += 1
        if not ok:
            self.failures += 1
        self.lines.append(f"{'ok' if ok else 'FAIL'}  {text}")

    def note(self, text: str):
        self.lines.append(f"note  {text}")

    def text(self) -> str:
        status = "PASS" if self.failures == 0 else "FAIL"
        return "\n".join(
            self.lines + [f"{status}: {self.checks - self.failures}/{self.checks} checks"]
        )


def check_certificate(fx, cert) -> list[tuple[bool, str]]:
    """(ok, text) for each expectation the fixture declares: the heights of its
    sections, disc NS, and T(X) against `working_T`, tagged where an erratum
    replaces the printed T."""
    checks = []
    for sf, h in zip(fx.sections, cert.heights):
        if sf.expected_height is not None:
            what = "height" if fx.group == "table1" else f"height({sf.name})"
            checks.append((h == sf.expected_height, f"{fx.tag} {what} {h} = {sf.expected_height}"))
    if fx.expected_disc is not None:
        checks.append((cert.disc == fx.expected_disc, f"{fx.tag} disc {cert.disc} = {fx.expected_disc}"))
    if fx.working_T is not None:
        suffix = "" if fx.derived_T is None else " [erratum: printed T differs, see notes]"
        checks.append((cert.T == fx.working_T, f"{fx.tag} T {cert.T} = {fx.working_T}{suffix}"))
    return checks


CORROBORATION_PRIMES = 4   # the first usable split primes each corroboration row is replayed at


def run_corroboration(rep: Report, reg) -> None:
    from k3cm.newforms import NewformOracle
    from k3cm.search import corroborate, first_usable_primes

    fam = reg.family("xlm")
    for row in reg.corroboration:
        oracle = NewformOracle(row.disc)
        primes = first_usable_primes(fam, oracle, CORROBORATION_PRIMES)
        rows = corroborate(fam, row.lam, oracle, primes)
        bad = [p for p, s in rows if s == "mismatch"]
        rep.add(not bad, f"corroborate lam={row.lam} disc={row.disc}: "
                         f"{len([s for _, s in rows if s == 'match'])} matches, {len(bad)} mismatches")


def run_regression(subset: str = "all") -> Report:
    """The checks of the certified surfaces in the subset, in the registry's order.

    An extremal row also checks its Euler number and an example its printed
    pairings; the extremal subset ends with the semistable table's rows, and
    `all` with the corroboration rows.
    """
    groups = ("table1", "examples", "extremal") if subset == "all" else (subset,)
    reg, rep = registry(), Report()
    if "table1" in groups:
        for row in reg.table1:
            if row.status == "defective":
                rep.note(f"table1 lam={row.lam} disc={row.disc}: defective printed row, "
                         f"excluded ({row.note[:80]}...)")
    for fx in reg.certified:
        if fx.group not in groups:
            continue
        cert = fx.certify(reg)
        if fx.group == "extremal":
            euler = sum(f.euler * f.cusp.degree for f in cert.fibers)
            rep.add(euler == 24, f"{fx.name} euler {euler} = 24")
        for ok, text in check_certificate(fx, cert):
            rep.add(ok, text)
        secs = {sec.name.lower(): sec for sec in cert.sections}
        for (a, b), val in fx.expected_pairings.items():
            got = pairing(cert.surface, secs[a], secs[b])
            rep.add(abs(got) == abs(val), f"{fx.name} |<{a},{b}>| {abs(got)} = {abs(val)}")
    if "extremal" in groups:   # the semistable table: arithmetic consistency of each printed row
        for row in reg.semistable:
            prod = math.prod(row.config)
            rep.add(prod == abs(row.disc) * row.torsion ** 2,
                    f"semistable {row.disc}: prod(config) {prod} = |disc| * tors^2")
            rep.add(row.T.discriminant == row.disc and reduce_form(row.T) == row.T,
                    f"semistable {row.disc}: printed T reduced with matching disc")
    if subset == "all":
        run_corroboration(rep, reg)
    return rep
