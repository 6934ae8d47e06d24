"""Regression runner: replays every fixture and compares against expectations.

One plain-text line per check; any mismatch flips the run to failing.  The
documented source-text errata (see the data files' notes) are compared
against their independently derived values and reported with an `erratum`
tag so the exceptions stay visible in every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from k3cm.fixtures import SectionFixture, registry
from k3cm.newforms import NewformOracle
from k3cm.quadforms import reduce_form
from k3cm.sections import build_sections, certify, height, pairing


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

    def extend(self, other: "Report"):
        self.lines.extend(other.lines)
        self.failures += other.failures
        self.checks += other.checks

    def text(self) -> str:
        status = "PASS" if self.failures == 0 else "FAIL"
        return "\n".join(
            self.lines + [f"{status}: {self.checks - self.failures}/{self.checks} checks"]
        )


def _check_certificate(rep, tag, surf, secs, disc, T, derived_T):
    """The disc NS and T(X) checks of one surface, both read off `certify`.

    T(X) is compared with `derived_T` where an erratum replaces the printed T.
    """
    lat, got = certify(surf, secs)
    rep.add(lat.det == disc, f"{tag} disc {lat.det} = {disc}")
    want = T if derived_T is None else derived_T
    suffix = "" if derived_T is None else " [erratum: printed T differs, see notes]"
    rep.add(got == want, f"{tag} T {got} = {want}{suffix}")


def run_table1() -> Report:
    rep = Report()
    reg = registry()
    fam = reg.family("xlm")
    for row in reg.table1:
        tag = f"table1 lam={row.lam} disc={row.disc}"
        if row.status == "defective":
            rep.note(f"{tag}: defective printed row, excluded ({row.note[:80]}...)")
            continue
        surf = fam.specialize(row.lam, name=f"t1_{row.lam}")
        secs = build_sections(surf, [SectionFixture("P", None, row.u_text)])
        h = height(secs[0])
        rep.add(h == row.height, f"{tag} height {h} = {row.height}")
        _check_certificate(rep, tag, surf, secs, row.disc, row.T, row.derived_T)
    return rep


def run_examples() -> Report:
    rep = Report()
    reg = registry()
    names = ["ex_1155", "ex_1995", "ex_627", "ex_715", "ex_1435", "ex_5460",
             "ex_1012", "ex_3003", "ex_3315"]
    for name in names:
        fx = reg.surfaces[name]
        surf = fx.build_surface(reg)
        ordered = build_sections(surf, fx.sections)
        for sf, sec in zip(fx.sections, ordered):
            if sf.expected_height is not None:
                h = height(sec)
                rep.add(h == sf.expected_height,
                        f"{name} height({sf.name}) {h} = {sf.expected_height}")
        _check_certificate(rep, name, surf, ordered, fx.expected_disc, fx.expected_T, fx.derived_T)
        secs = {sec.name.lower(): sec for sec in ordered}
        for (a, b), val in fx.expected_pairings.items():
            got = pairing(surf, secs[a], secs[b])
            rep.add(abs(got) == abs(val),
                    f"{name} |<{a},{b}>| {abs(got)} = {abs(val)}")
    return rep


def run_extremal() -> Report:
    rep = Report()
    reg = registry()
    for fx in reg.extremal:
        surf = fx.build_surface(reg)
        euler = sum(f.euler * f.cusp.degree for f in surf.fibers)
        rep.add(euler == 24, f"{fx.name} euler {euler} = 24")
        _check_certificate(rep, fx.name, surf, [], fx.expected_disc, fx.expected_T, fx.derived_T)
    # semistable table: arithmetic consistency of each printed row
    for row in reg.semistable:
        prod = 1
        for n in row.config:
            prod *= n
        ok = prod == abs(row.disc) * row.torsion ** 2
        rep.add(ok, f"semistable {row.disc}: prod(config) {prod} = |disc| * tors^2")
        ok2 = row.T.discriminant == row.disc and reduce_form(row.T) == row.T
        rep.add(ok2, f"semistable {row.disc}: printed T reduced with matching disc")
    return rep


CORROBORATION_PRIMES = 4   # the first usable split primes each corroboration row is replayed at


def run_corroboration() -> Report:
    from k3cm.counting import CountCache
    from k3cm.search import corroborate, usable_primes

    rep = Report()
    reg = registry()
    fam = reg.family("xlm")
    cache = CountCache()
    for row in reg.corroboration:
        oracle = NewformOracle(row.disc)
        primes = usable_primes(fam, oracle, 200)[:CORROBORATION_PRIMES]
        rows = corroborate(fam, row.lam, oracle, primes, cache)
        bad = [p for p, s in rows if s == "mismatch"]
        rep.add(not bad, f"corroborate lam={row.lam} disc={row.disc}: "
                         f"{len([s for _, s in rows if s == 'match'])} matches, {len(bad)} mismatches")
    return rep


def run_regression(subset: str = "all") -> Report:
    rep = Report()
    if subset in ("all", "table1"):
        rep.extend(run_table1())
    if subset in ("all", "examples"):
        rep.extend(run_examples())
    if subset in ("all", "extremal"):
        rep.extend(run_extremal())
    if subset == "all":
        rep.extend(run_corroboration())
    return rep
