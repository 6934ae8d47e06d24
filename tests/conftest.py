"""Fixtures shared by several test modules."""

import pytest

from k3cm.fixtures import SectionFixture, registry
from k3cm.sections import build_sections


@pytest.fixture(scope="session")
def certified():
    """(name, surface, verified sections) for the 39 surfaces `verify` certifies.

    The 9 example fixtures, the non-defective Table 1 rows (section P) and
    the 5 extremal rows (no sections), with each surface's sections verified
    and normalized as `verify` does it.
    """
    reg = registry()
    fam = reg.family("xlm")
    out = [(name, fx.build_surface(reg), fx.sections) for name, fx in sorted(reg.surfaces.items())]
    out += [
        (f"table1_{-row.disc}", fam.specialize(row.lam), [SectionFixture("P", None, row.u_text)])
        for row in reg.table1
        if row.status != "defective"
    ]
    out += [(fx.name, fx.build_surface(reg), []) for fx in reg.extremal]
    return [(name, surf, build_sections(surf, fixtures)) for name, surf, fixtures in out]
