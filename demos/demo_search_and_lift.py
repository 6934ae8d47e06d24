"""End to end: from a target field to an exact section.

Fix the field of discriminant -88.  Scan the family over several split
primes for parameters whose point counts match the newform, lift the
residues to a small-height rational, prescribe the fiber contacts implied
by the discriminant, and let the p-adic Newton iteration find the section
exactly.  The output is the certified surface.
"""

from k3cm import (
    NewformOracle,
    height,
    ns_discriminant,
    recover_section,
    registry,
    usable_primes,
)
from k3cm.search import search

reg = registry()
fam = reg.family("xlm")
oracle = NewformOracle(-88)

primes = usable_primes(fam, oracle, 100)[:4]
print(f"scanning split primes {primes} for the field of discriminant -88")
reports = search(fam, oracle, primes)
for rep in reports[:3]:
    print(f"  candidate lambda = {rep.lam} (height {rep.height}, matched at {rep.primes_matched} primes)")

lam = reports[0].lam
print(f"\nspecializing at lambda = {lam} and prescribing contacts for disc -88")
surf = fam.specialize(lam, name="candidate")
fibers = surf.fibers
plan = {}
for i, f in enumerate(fibers):
    spec = {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"}.get(f.label())
    if spec is not None:
        plan[i] = spec

trace = []
sec = recover_section(surf, fibers, plan, primes[0], expected_disc=-88, trace=trace)
print(f"pipeline recovered u(t) with coefficients {list(sec.u.num.coeffs)}")
print(f"p-adic precision schedule: {[k for _, k in trace]}")
print(f"height = {height(sec)}, disc NS = {ns_discriminant(surf, [sec])}")
