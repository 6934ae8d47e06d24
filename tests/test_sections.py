from fractions import Fraction

import pytest

from k3cm.exact import QQ, Polynomial, QuadField, RationalFunction, Series, poly_series, ratfun_series
from k3cm.fixtures import parse_ratfun, registry
from k3cm.lattices import match_transcendental
from k3cm.quadforms import BinaryQuadraticForm
from k3cm.sections import (
    SectionError,
    _conjugate_ratfun,
    _cycle_contact,
    _embed,
    _local_chart,
    _scaled_section,
    _star_contact,
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


# ---------------------------------------------------------------------------
# contact depths: one exact valuation against the series-based rules
# ---------------------------------------------------------------------------

def _series_values(s):
    return None if s is None else (s.prec, [s[i] for i in range(s.prec)])


def _reference_critical_point(a2s, a4s, x0):
    """Root of 3x^2 + 2 a2 x + a4 through x0 in the series ring, by Newton."""
    d, prec = a2s.domain, a2s.prec
    three, two, six = (Series(d, [d.from_fraction(Fraction(c))], prec) for c in (3, 2, 6))
    x = Series(d, [x0], prec)
    for _ in range(prec.bit_length() + 3):
        x = x - (three * x * x + two * a2s * x + a4s) / (six * x + two * a2s)
    return x


def reference_contact(surf_c, u_c, w_c, t0, fiber):
    """(kind, k, leg_root, xi, eta) read off local series: the reference rules.

    Cycle fibers: k is the valuation of the series u - x_node at precision
    n + 4.  Star fibers: the depth is the valuation of X - node, X = u/(t - t0),
    against the critical point of the untwisted cubic, at precision m + 6.
    """
    dom = u_c.domain
    identity = ("identity", 0, None, None, None)
    if fiber.kind == "I":
        n = fiber.n
        node = _embed(dom, fiber.node_x) if n > 1 else None
        if n == 1 or not dom.eq(u_c(t0), node):
            return identity
        prec = n + 4
        a2s, a4s = (poly_series(a, t0, prec) for a in (surf_c.a2, surf_c.a4))
        xi = ratfun_series(u_c, t0, prec) - _reference_critical_point(a2s, a4s, node)
        eta = ratfun_series(w_c, t0, prec) if not w_c.is_zero() else Series(dom, [], prec)
        k = xi.valuation()
        if k == 0:
            return identity
        if 2 * k < n:
            return ("cycle", k, None, xi, eta)
        if n % 2:
            raise SectionError("odd I_n met past its middle")
        return ("far-cycle", n // 2, None, xi, eta)
    if not u_c.is_zero() and u_c.valuation_at(t0) <= 0:
        return identity
    m = fiber.n
    prec = m + 6
    X = Series(dom, ratfun_series(u_c, t0, prec + 1).coeffs[1:], prec)
    if m == 0:
        return ("star-leg", 0, X[0], None, None)
    a2b = Series(dom, poly_series(surf_c.a2, t0, prec + 1).coeffs[1:], prec)
    a4b = Series(dom, poly_series(surf_c.a4, t0, prec + 2).coeffs[2:], prec)
    vdiff = (X - _reference_critical_point(a2b, a4b, _embed(dom, fiber.double_root))).valuation()
    if vdiff >= (m + 1) // 2:
        return ("star-far", 0, None, None, None)
    if vdiff:
        raise SectionError("section on a double component")
    return ("star-near", 0, None, None, None)


def _contacts_against_reference(certified):
    """(checked, kinds seen); asserts every contact matches the reference."""
    checked, kinds = 0, set()
    for name, surf, secs in certified:
        for sec in secs:
            chart = surf if sec.domain == surf.domain else surf.map_domain(sec.domain)
            for idx, f in enumerate(sec.fibers):
                if not f.reducible or f.cusp.kind == "orbit":
                    continue
                surf_c, u_c, w_c, t0 = _local_chart(chart, sec, f.cusp)
                t0 = _embed(sec.domain, t0)
                c = sec.contacts[idx]
                if not u_c.is_zero() and u_c.valuation_at(t0) < 0:   # meets the zero section
                    ref = ("identity", 0, None, None, None)
                else:
                    ref = reference_contact(surf_c, u_c, w_c, t0, f)
                where = (name, sec.name, str(f))
                assert (c.kind, c.k, c.leg_root) == ref[:3], where
                assert _series_values(c.xi) == _series_values(ref[3]), where
                assert _series_values(c.eta) == _series_values(ref[4]), where
                checked += 1
                kinds.add(c.kind)
    return checked, kinds


def test_contact_depths_match_series_rules(certified):
    checked, kinds = _contacts_against_reference(certified)
    assert checked > 150
    assert kinds == {"identity", "cycle", "far-cycle", "star-leg", "star-far"}
    assert {s.domain for _, _, secs in certified for s in secs} > {QQ}   # Q(sqrt m) too


def _outcome(rule, surf_c, u_c, w_c, t0, fiber):
    try:
        c = rule(surf_c, u_c, w_c, t0, fiber)
    except SectionError:
        return "SectionError"
    if isinstance(c, tuple):
        return c[:3] + tuple(_series_values(x) for x in c[3:])
    return (c.kind, c.k, c.leg_root, _series_values(c.xi), _series_values(c.eta))


def _probe_coordinates(surf_c, t0, fiber):
    """Local x-coordinates meeting the fiber at every depth up to past its middle."""
    d = surf_c.domain
    pi = Polynomial(d, [-t0, 1])
    const = lambda c: Polynomial.constant(d, c)
    if fiber.kind == "I":
        x0, n, twist = fiber.node_x, fiber.n, 0
        a2s, a4s = (poly_series(a, t0, n + 3) for a in (surf_c.a2, surf_c.a4))
    else:
        x0, n, twist = fiber.double_root, fiber.n, 1
        a2s = Series(d, poly_series(surf_c.a2, t0, n + 4).coeffs[1:], n + 3)
        a4s = Series(d, poly_series(surf_c.a4, t0, n + 5).coeffs[2:], n + 3)
    out = [const(d.one) + pi]                           # u(t0) = 1
    if x0 is None:                                      # I_0*: the leg at X(t0) = 0, 1, 2
        return out + [pi * const(c) + pi * pi for c in (0, 1, 2)]
    node = _reference_critical_point(a2s, a4s, x0)
    x_other = -Fraction(2, 3) * a2s[0] - x0            # the other critical point at t0
    out += [pi ** twist * (const(c) + pi) for c in (x0 + 1, x_other)]   # off the node
    for j in range(1, n + 3):                           # the node's first j terms
        x = sum((const(node[i]) * pi ** i for i in range(j)), Polynomial(d, []))
        out.append(pi ** twist * (x + pi ** j))
    return out


def test_contact_depths_match_series_rules_at_every_depth(certified):
    """Probe coordinates at reducible fibers, the far and raising cases too.

    Each fiber type (kind, n, finite or infinite cusp) is probed on the first
    certified surface that has it.
    """
    outcomes, probed = set(), set()
    for name, surf, _ in certified:
        for f in surf.fibers:
            key = (f.kind, f.n, f.cusp.kind)
            if not f.reducible or f.cusp.kind == "orbit" or key in probed:
                continue
            probed.add(key)
            surf_c, t0 = (surf, f.cusp.value) if f.cusp.kind == "finite" else (surf.flipped(), Fraction(0))
            rule = _cycle_contact if f.kind == "I" else _star_contact
            for x in _probe_coordinates(surf_c, t0, f):
                u_c = RationalFunction(x)
                w_c = RationalFunction(x * x + Polynomial.constant(QQ, Fraction(1)))
                got = _outcome(rule, surf_c, u_c, w_c, t0, f)
                assert got == _outcome(reference_contact, surf_c, u_c, w_c, t0, f), (name, str(f), x)
                outcomes.add((f.kind, got if got == "SectionError" else got[0]))
    assert outcomes == {
        ("I", "identity"), ("I", "cycle"), ("I", "far-cycle"), ("I", "SectionError"),
        ("I*", "identity"), ("I*", "star-leg"), ("I*", "star-near"), ("I*", "star-far"),
        ("I*", "SectionError"),
    }


def test_scaled_section_scales_eta_when_read(reg):
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P, _ = build_sections(surf, fx.sections)
    s = Fraction(-3, 7)
    scaled = _scaled_section(P, s, P.msq)
    nodes = [idx for idx, c in P.contacts.items() if c.kind in ("cycle", "far-cycle")]
    assert nodes
    for idx in nodes:
        c, cs = P.contacts[idx], scaled.contacts[idx]
        assert (cs.kind, cs.k) == (c.kind, c.k)
        assert _series_values(cs.xi) == _series_values(c.xi)
        assert _series_values(cs.eta) == _series_values(c.eta.scale(P.domain.from_fraction(s)))


def test_verify_section_expands_no_node_series(reg, fam, monkeypatch):
    import k3cm.sections

    row = next(r for r in reg.table1 if r.disc == -88)
    surf = fam.specialize(row.lam)
    calls = _counting(monkeypatch, k3cm.sections, "node_series")
    sec = verify_section(surf, parse_ratfun(row.u_text))
    assert height(sec) == Fraction(11, 105)
    assert sum(c.kind == "cycle" for c in sec.contacts.values()) == 3
    assert calls == []
    assert sec.contacts[0].kind == "cycle" and sec.contacts[0].xi.valuation() == 1
    assert len(calls) == 1
