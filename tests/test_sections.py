from fractions import Fraction

import pytest

from k3cm.exact import QQ, Polynomial, QuadField, RationalFunction
from k3cm.fixtures import parse_ratfun, registry
from k3cm.lattices import match_transcendental
from k3cm.quadforms import BinaryQuadraticForm
from k3cm.sections import (
    SectionError,
    _conjugate_ratfun,
    assemble_ns,
    build_sections,
    height,
    intersection_number,
    normalize_sections,
    ns_discriminant,
    pairing,
    section_sum,
    verify_section,
)


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def fam(reg):
    return reg.family("xlm")


@pytest.fixture(scope="module")
def disc88(reg, fam):
    row = next(r for r in reg.table1 if r.disc == -88)
    surf = fam.specialize(row.lam, name="disc88")
    sec = verify_section(surf, parse_ratfun(row.u_text))
    return surf, sec, row


def test_verify_section_table1_row(disc88):
    surf, sec, row = disc88
    assert sec.pO == 0
    assert sec.msq == 15  # the y-coordinate needs sqrt(15)
    assert height(sec) == Fraction(11, 105)


def test_contacts_disc88(disc88):
    surf, sec, _ = disc88
    got = {str(c.fiber): (c.kind, c.k) for c in sec.contacts.values() if c.nonidentity}
    assert got == {
        "I5@0": ("cycle", 1),
        "I3@1": ("cycle", 1),
        "I7@inf": ("cycle", 2),
        "I0*@5/32": ("star-leg", 0),
    }


def test_contacts_disc1540_match_stated_pattern(reg, fam):
    # the one case whose contact pattern is described in prose:
    # identity at I5 and I7, non-identity at I2, I3 and the I0* fiber
    row = next(r for r in reg.table1 if r.disc == -1540)
    surf = fam.specialize(row.lam)
    sec = verify_section(surf, parse_ratfun(row.u_text))
    got = {c.fiber.label(): c.nonidentity for c in sec.contacts.values()}
    assert got == {"I5": False, "I7": False, "I2": True, "I3": True, "I0*": True}
    assert height(sec) == Fraction(11, 6)
    assert ns_discriminant(surf, [sec]) == -1540


def test_rejected_section(reg, fam):
    surf = fam.specialize(Fraction(5, 32))
    bad = RationalFunction(Polynomial.from_fractions(QQ, [1, 2, 3]))
    with pytest.raises(SectionError):
        verify_section(surf, bad)


def test_pO_from_denominator(reg, fam):
    row = next(r for r in reg.table1 if r.disc == -3180)
    surf = fam.specialize(row.lam)
    sec = verify_section(surf, parse_ratfun(row.u_text))
    assert sec.pO == 1
    assert height(sec) == Fraction(53, 14)


def test_star_far_contact_heights(reg):
    for name, expect in (("ex_1155", Fraction(11, 4)), ("ex_1995", Fraction(19, 4))):
        fx = reg.surfaces[name]
        surf = fx.build_surface(reg)
        sec = verify_section(surf, fx.sections[0].u())
        star = [c for c in sec.contacts.values() if c.fiber.kind == "I*"]
        assert len(star) == 1 and star[0].kind == "star-far"
        assert height(sec) == expect


def test_pairing_specializes_to_height(disc88):
    surf, sec, _ = disc88
    assert pairing(surf, sec, sec) == height(sec)


def test_orthogonal_pair_3003(reg):
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P = verify_section(surf, fx.sections[0].u(), name="P")
    Q = verify_section(surf, fx.sections[1].u(), name="Q")
    assert (height(P), height(Q)) == (Fraction(11, 6), Fraction(13, 6))
    assert intersection_number(surf, P, Q) == 1
    assert pairing(surf, P, Q) == 0
    assert ns_discriminant(surf, [P, Q]) == -3003


def test_conjugate_pair_1012(reg):
    fx = reg.surfaces["ex_1012"]
    surf = fx.build_surface(reg)
    uP = fx.sections[0].u()
    P = verify_section(surf, uP, name="P")
    Ps = verify_section(surf, _conjugate_ratfun(uP), name="Psigma")
    assert height(P) == height(Ps) == Fraction(38, 15)
    assert abs(pairing(surf, P, Ps)) == Fraction(8, 15)
    assert ns_discriminant(surf, [P, Ps]) == -1012


def test_pairing_against_group_law_oracle(reg):
    # <P,Q> = (h(P+Q) - h(P) - h(Q)) / 2 via the exact addition formula
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P = verify_section(surf, fx.sections[0].u(), name="P")
    Q = verify_section(surf, fx.sections[1].u(), name="Q")
    from k3cm.sections import normalized_pair

    P2, Q2 = normalized_pair(surf, P, Q)
    x3 = section_sum(surf, P2, Q2)
    S = verify_section(surf, x3, name="P+Q")
    lhs = pairing(surf, P, Q)
    rhs = (height(S) - height(P) - height(Q)) / 2
    assert lhs == rhs == 0


def test_ns_discriminant_rejects_dependent_sections(disc88):
    surf, sec, _ = disc88
    with pytest.raises(SectionError):
        ns_discriminant(surf, [sec, sec])


def test_assemble_matches_mwl_route_on_table1(reg, fam):
    # dual-route check: Gram determinant equals the MWL product formula
    for row in reg.table1[:8]:
        if row.status == "defective":
            continue
        surf = fam.specialize(row.lam)
        sec = verify_section(surf, parse_ratfun(row.u_text))
        assert assemble_ns(surf, [sec]).det == ns_discriminant(surf, [sec])
    # Mordell-Weil rank 0: the empty height Gram has determinant 1
    for fx in reg.extremal:
        surf = fx.build_surface(reg)
        assert assemble_ns(surf, []).det == ns_discriminant(surf, []) == fx.expected_disc


def test_two_adic_height_integrality(reg, fam):
    # twice the height has odd denominator for every family section
    for row in reg.table1:
        if row.status == "defective":
            continue
        assert (2 * row.height).denominator % 2 == 1


def test_rank_bound_on_fixtures(reg):
    for name, fx in reg.surfaces.items():
        surf = fx.build_surface(reg)
        secs = build_sections(surf, fx.sections)
        assert [s.name for s in secs] == [sf.name for sf in fx.sections]
        lat = assemble_ns(surf, secs)
        assert lat.rank <= 20
        assert lat.signature() == (1, lat.rank - 1)


def _counting(monkeypatch, module, name):
    """Record the arguments of every call to module.name."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sections_are_lifted_to_the_joining_field_once(reg, monkeypatch):
    import k3cm.sections

    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    calls = _counting(monkeypatch, k3cm.sections, "verify_section")
    secs = build_sections(surf, fx.sections)
    assert [args[1].domain for args in calls] == [QQ, QQ, QuadField(21), QuadField(21)]
    assert [s.domain for s in secs] == [QuadField(21)] * 2
    assert normalize_sections(surf, secs) == secs
    assert ns_discriminant(surf, secs) == -3003
    assert len(calls) == 4


def test_assemble_ns_intersects_each_pair_once(reg, monkeypatch):
    import k3cm.sections

    for name, pq in (("ex_3003", 1), ("ex_3315", 2), ("ex_1012", 0)):
        fx = reg.surfaces[name]
        surf = fx.build_surface(reg)
        P, Q = build_sections(surf, fx.sections)
        assert intersection_number(surf, P, Q) == intersection_number(surf, Q, P) == pq
        calls = _counting(monkeypatch, k3cm.sections, "intersection_number")
        assemble_ns(surf, [P, Q])
        assert len(calls) == 1, name
        monkeypatch.undo()
