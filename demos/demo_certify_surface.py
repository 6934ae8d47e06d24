"""Certifying one rank-20 surface from scratch.

Takes the family member at lambda = 5/32 with its known extra section,
reads the fiber contacts off exact valuations, and closes the loop from
the Mordell-Weil height to the Neron-Severi discriminant to the
transcendental lattice.
"""

from fractions import Fraction

from k3cm import (
    assemble_ns,
    height,
    match_transcendental,
    ns_discriminant,
    registry,
    verify_section,
)
from k3cm.fixtures import parse_ratfun

reg = registry()
fam = reg.family("xlm")
row = next(r for r in reg.table1 if r.disc == -88)

surf = fam.specialize(row.lam, name="disc88")
print(f"member at lambda = {row.lam}")
print("fibers:", ", ".join(str(f) for f in surf.fibers))

sec = verify_section(surf, parse_ratfun(row.u_text))
print(f"\nsection accepted: y^2 needs the square class m = {sec.msq}")
print(f"(P.O) = {sec.pO}")
for idx, c in sorted(sec.contacts.items()):
    side = f"{c.kind} k={c.k}" if c.nonidentity else "identity component"
    print(f"  {c.fiber}: {side}")

h = height(sec)
d = ns_discriminant(surf, [sec])
print(f"\nheight = {h}   (4 + 2(P.O) - corrections)")
print(f"disc NS = {d}   (product formula over the fiber root lattices)")

lat = assemble_ns(surf, [sec])
print(f"assembled Gram: rank {lat.rank}, det {lat.det}, signature {lat.signature()}")
print(f"T(X) = {match_transcendental(lat)}   (unique form with q = -q_NS)")
