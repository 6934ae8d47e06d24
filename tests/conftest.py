"""Fixtures shared by several test modules."""

import pytest

from k3cm.fixtures import registry


@pytest.fixture(scope="session")
def certified():
    """(name, surface, sections) for the 39 surfaces `verify` certifies.

    The registry's list (`FixtureRegistry.certified`): the non-defective
    Table 1 rows (section P), the 9 example fixtures and the 5 extremal rows
    (no sections), with each surface's sections normalized as its
    `Certificate` holds them.
    """
    reg = registry()
    certificates = [(fx.name, fx.certify(reg)) for fx in reg.certified]
    return [(name, cert.surface, cert.sections) for name, cert in certificates]
