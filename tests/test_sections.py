from dataclasses import replace
from fractions import Fraction

import pytest

from k3cm.exact import QQ, Polynomial, QuadField, QuadNum, RationalFunction
from k3cm.fixtures import parse_ratfun, registry
from k3cm.lattices import match_transcendental
from k3cm.quadforms import BinaryQuadraticForm
from k3cm.surfaces import Cusp, FiberDescriptor
from k3cm.sections import (
    Contact,
    SectionError,
    _resolved_multiplicity,
    _carried,
    _conjugate_ratfun,
    _conjugated,
    _cycle_contact,
    _embed,
    _fiber_components,
    _local_chart,
    _meeting_order,
    _ratfun_flip,
    _scaled_section,
    _square_cofactor,
    _star_contact,
    assemble_ns,
    build_sections,
    certify,
    corr_pair,
    height,
    intersection_number,
    normalize_sections,
    ns_discriminant,
    pairing,
    verify_section,
)

from oracles import (
    Series,
    from_fractions,
    poly_series,
    ratfun_series,
    reference_rhs,
    reference_square_cofactor,
    section_sum,
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
    bad = RationalFunction(from_fractions(QQ, [1, 2, 3]))
    with pytest.raises(SectionError):
        verify_section(surf, bad)


def test_odd_pole_and_odd_degree_are_not_a_square_class(fam):
    # an odd pole of u makes the denominator of RHS(u) an odd power, an odd degree
    # above 4 its degree odd: both fail the square test before (P.O) is read
    surf, t = fam.specialize(Fraction(5, 32)), Polynomial.x(QQ)
    for u in (RationalFunction(Polynomial.constant(QQ, Fraction(1)), t), RationalFunction(t ** 5)):
        with pytest.raises(SectionError, match=r"^RHS\(u\) is not a square class times a square$"):
            verify_section(surf, u)


def test_rhs_and_square_root_match_the_rational_function_chain(certified):
    checked = 0
    for name, surf, sections in certified:
        for sec in sections:
            chart = surf if sec.domain == surf.domain else surf.map_domain(sec.domain)
            R = chart.rhs(sec.u)
            assert R == reference_rhs(chart, sec.u), (name, sec.name)
            assert _square_cofactor(R) == reference_square_cofactor(R), (name, sec.name)
            checked += 1
    assert checked >= 37   # every section of the 39 certified surfaces


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


def _block_columns(surf, label):
    """The Gram columns of the root block of the one fiber with this label:
    A_{n-1} for I_n, D_{m+4} for I_m*, after O and F."""
    pos = 2
    for f in surf.fibers:
        if f.reducible:
            rank = f.n - 1 if f.kind == "I" else f.n + 4
            if f.label() == label:
                return range(pos, pos + rank)
            pos += rank * f.cusp.degree
    raise LookupError(label)


def test_i0_star_legs_take_distinct_vertices(disc88):
    # a synthetic Q: P's u + 1, meeting the I0* at another leg (or the same one)
    surf, P, _ = disc88
    idx, leg = next((i, c) for i, c in P.contacts.items() if c.kind == "star-leg")
    cols = _block_columns(surf, "I0*")
    for root, same in ((leg.leg_root + 1, False), (leg.leg_root, True)):
        Q = replace(P, u=P.u + RationalFunction(Polynomial.constant(QQ, Fraction(1))), name="Q",
                    contacts={**P.contacts, idx: replace(leg, leg_root=root)})
        g = assemble_ns(surf, [P, Q]).gram
        p_row, q_row = ([g[r][c] for c in cols] for r in (len(g) - 2, len(g) - 1))
        assert sorted(p_row) == sorted(q_row) == [0, 0, 0, 1]
        assert (p_row == q_row) is same


def test_two_star_far_contacts_on_one_fiber_are_refused(reg):
    # which far end of the I1* each section meets is not known
    fx = reg.surfaces["ex_1155"]
    surf = fx.build_surface(reg)
    (P,) = build_sections(surf, fx.sections)
    Q = replace(P, u=P.u + RationalFunction(Polynomial.constant(QQ, Fraction(1))), name="Q")
    with pytest.raises(SectionError, match=r"I1\*@585/242"):
        assemble_ns(surf, [P, Q])


def test_pairing_specializes_to_height(disc88):
    surf, sec, _ = disc88
    assert pairing(surf, sec, sec) == height(sec)


def test_orthogonal_pair_3003(reg):
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P = verify_section(surf, fx.sections[0].u(), name="P")
    Q = verify_section(surf, fx.sections[1].u(), name="Q")
    assert (height(P), height(Q)) == (Fraction(11, 6), Fraction(13, 6))
    P, Q = normalize_sections(surf, [P, Q])
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
    P, Ps = normalize_sections(surf, [P, Ps])
    assert abs(pairing(surf, P, Ps)) == Fraction(8, 15)
    assert ns_discriminant(surf, [P, Ps]) == -1012


def test_conjugated_section_equals_its_verification(reg, monkeypatch):
    import k3cm.sections

    fx = reg.surfaces["ex_1012"]
    surf = fx.build_surface(reg)
    P = verify_section(surf, fx.sections[0].u(), name="P")
    got = _conjugated(P, "Psigma")
    want = verify_section(surf, _conjugate_ratfun(P.u), name="Psigma")
    assert got.u != P.u and got.w != P.w and got.msq != P.msq
    assert (got.u, got.w, got.msq, got.pO, got.name) == (want.u, want.w, want.msq, want.pO, want.name)
    fields = lambda c: (c.fiber, c.kind, c.k, c.slope, c.leg_root)
    assert {i: fields(c) for i, c in got.contacts.items()} == {i: fields(c) for i, c in want.contacts.items()}
    assert sum(c.slope is not None for c in want.contacts.values()) == 2
    # build_sections verifies P alone and conjugates it
    calls = _counting(monkeypatch, k3cm.sections, "verify_section")
    assert [s.name for s in build_sections(surf, fx.sections)] == ["P", "Psigma"]
    assert len(calls) == 1


def flip_by_power(f: RationalFunction, weight: int) -> RationalFunction:
    """s^weight f(1/s) as reversals times a power of s, multiplied out."""
    num, den = f.num, f.den
    rn, rd = num.reverse(num.degree), den.reverse(den.degree)
    shift = weight + den.degree - num.degree
    s = Polynomial.x(f.domain)
    if shift >= 0:
        return RationalFunction(rn * s ** shift, rd)
    return RationalFunction(rn, rd * s ** (-shift))


def test_flip_matches_the_power_and_product_formula():
    K = QuadField(23)
    root = QuadNum(Fraction(1, 2), Fraction(-3), 23)
    shifts = set()
    for d in (QQ, K):
        c = root if d == K else Fraction(-5, 3)
        nums = [from_fractions(d, [1, 2]), Polynomial(d, [c, d.zero, d.one]),
                from_fractions(d, [0, 0, 3, 0, 0, 0, 0, 0, 7, 2]), Polynomial(d, [])]
        dens = [from_fractions(d, [1]), from_fractions(d, [4, -4, 1]),
                Polynomial(d, [d.one, c, d.zero, d.one])]
        for num in nums:
            for den in dens:
                for weight in (4, 6):
                    f = RationalFunction(num, den)
                    assert _ratfun_flip(f, weight) == flip_by_power(f, weight), (f, weight)
                    shift = weight + f.den.degree - f.num.degree
                    shifts.add((d, (shift > 0) - (shift < 0)))
    assert shifts == {(d, sign) for d in (QQ, K) for sign in (-1, 0, 1)}


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
    lhs = pairing(surf, P2, Q2)
    rhs = (height(S) - height(P) - height(Q)) / 2
    assert lhs == rhs == 0


def test_pairings_with_the_sum_match_the_group_law(reg):
    # <P+Q, P> = h(P) + <P, Q> and <P+Q, Q> = h(Q) + <P, Q>, both up to the one sign
    # of the y-root that verify picks for P+Q; the sum meets P and Q at shared nodes
    for name in ("ex_3003", "ex_3315", "ex_1012"):
        fx = reg.surfaces[name]
        surf = fx.build_surface(reg)
        P, Q = build_sections(surf, fx.sections)
        S = verify_section(surf, section_sum(surf, P, Q), name="P+Q")
        P, Q, S = normalize_sections(surf, [P, Q, S])
        pq = pairing(surf, P, Q)
        assert height(S) == height(P) + height(Q) + 2 * pq, name
        e = 1 if pairing(surf, S, P) > 0 else -1
        assert (pairing(surf, S, P), pairing(surf, S, Q)) == (e * (height(P) + pq), e * (height(Q) + pq)), name


def test_ns_discriminant_rejects_dependent_sections(disc88):
    surf, sec, _ = disc88
    with pytest.raises(SectionError):
        ns_discriminant(surf, [sec, sec])


def test_assemble_matches_mwl_route_on_table1(reg, certified):
    # dual-route check: the disc NS `certify` reads off the Gram lattice equals
    # the Mordell-Weil product formula on every certified surface: all
    # non-defective Table 1 rows, the 9 examples (3 with two sections) and,
    # at Mordell-Weil rank 0 (empty height Gram, determinant 1), the extremal rows
    expected = {name: fx.expected_disc for name, fx in reg.surfaces.items()}
    expected.update((f"table1_{-row.disc}", row.disc) for row in reg.table1)
    expected.update((fx.name, fx.expected_disc) for fx in reg.extremal)
    for name, surf, secs in certified:
        assert certify(surf, secs).disc == ns_discriminant(surf, secs) == expected[name], name
    assert len(certified) == 39
    assert sum(len(secs) == 2 for _, _, secs in certified) == 3


def test_certify_rejects_dependent_sections(reg):
    # P, Q and P + Q: the lattice is degenerate, and both routes say why
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P, Q = build_sections(surf, fx.sections)
    S = verify_section(surf, section_sum(surf, P, Q), name="S")
    P, Q, S = normalize_sections(surf, [P, Q, S])
    assert assemble_ns(surf, [P, Q, S]).det == 0
    for route in (certify, ns_discriminant):
        with pytest.raises(SectionError, match="sections are dependent"):
            route(surf, [P, Q, S])


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
    # verified over Q, then carried into Q(sqrt 21) without verifying again
    assert [args[1].domain for args in calls] == [QQ, QQ]
    assert [s.domain for s in secs] == [QuadField(21)] * 2
    assert normalize_sections(surf, secs) == secs
    assert ns_discriminant(surf, secs) == -3003
    assert len(calls) == 2


def test_a_certify_pass_normalizes_each_section_list_once(reg, monkeypatch):
    # build_sections normalizes where the list is formed; certify and its readers take it as it is
    import k3cm.sections

    calls = _counting(monkeypatch, k3cm.sections, "normalize_sections")
    for fx in reg.certified:
        fx.certify(reg)
    assert len(calls) == len(reg.certified) == 39


def test_readers_refuse_sections_of_two_square_classes(reg):
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P, Q = (verify_section(surf, sf.u(), name=sf.name) for sf in fx.sections)
    assert P.domain == Q.domain == QQ and P.msq != Q.msq
    readers = {
        "certify": lambda: certify(surf, [P, Q]),
        "assemble_ns": lambda: assemble_ns(surf, [P, Q]),
        "ns_discriminant": lambda: ns_discriminant(surf, [P, Q]),
        "pairing": lambda: pairing(surf, P, Q),
        "intersection_number": lambda: intersection_number(surf, Q, P),
    }
    for name, read in readers.items():
        with pytest.raises(SectionError, match="several square classes"):
            read()
    # normalized, the same pair reads
    assert ns_discriminant(surf, normalize_sections(surf, [P, Q])) == -3003


def _inverse(matrix):
    """The inverse of a square Fraction matrix, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def test_pair_correction_is_minus_the_inverse_gram_of_the_block():
    # corr_v(P, Q) = -(G^-1)_ij on the A_{n-1} block, G from the Dynkin edges with -2 on
    # the diagonal, at the components i, j read off the contacts: a cycle contact of depth k
    # is Theta_k on the first cycle contact's branch and Theta_{n-k} on the other one, a
    # far-cycle contact Theta_{n/2}
    s = Fraction(3, 7)
    for n in range(2, 13):
        fiber = FiberDescriptor(Cusp.finite(Fraction(0)), "I", n)
        G = [[Fraction(-2 * (a == b)) for b in range(n - 1)] for a in range(n - 1)]
        for a, b in fiber.edges:
            G[a][b] = G[b][a] = Fraction(1)
        minus_inv = [[-x for x in row] for row in _inverse(G)]
        for comp in range(1, n):
            assert fiber.correction(comp) == minus_inv[comp - 1][comp - 1], (n, comp)
        contacts = [Contact(fiber, "cycle", k, slope=sign * s) for k in range(1, (n + 1) // 2) for sign in (1, -1)]
        contacts += [Contact(fiber, "far-cycle", n // 2)] if n % 2 == 0 else []
        assert contacts
        for p in contacts:
            for q in contacts:
                i = p.k
                j = n - q.k if "cycle" == p.kind == q.kind and p.slope != q.slope else q.k
                assert _fiber_components(fiber, [p, q]) == [i, j], (n, p, q)
                want = minus_inv[fiber.vertex(i)][fiber.vertex(j)]
                assert corr_pair(p, q) == corr_pair(q, p) == want, (n, p, q)
        if n >= 5:   # three cycle contacts: the last one does not orient the cycle
            a, b, c = (Contact(fiber, "cycle", k, slope=t) for k, t in ((1, s), (2, -s), (1, -s)))
            assert _fiber_components(fiber, [a, b, c]) == [1, n - 2, n - 1]


def _lifted(u, K):
    return RationalFunction(u.num.map_domain(K), u.den.map_domain(K))


def test_carried_sections_equal_their_verification_over_the_joining_field(reg, disc88):
    cases = []
    for name, m in (("ex_3003", 21), ("ex_3315", 85)):
        fx = reg.surfaces[name]
        surf = fx.build_surface(reg)
        secs = [verify_section(surf, sf.u(), name=sf.name) for sf in fx.sections]
        assert len({sec.msq for sec in secs}) == 2   # two square classes over Q
        cases += [(surf, sec, QuadField(m)) for sec in secs]
    # the -88 section meets an I0* leg: its leg root is carried too
    surf, sec, _ = disc88
    cases.append((surf, sec, QuadField(2)))
    for surf, sec, K in cases:
        carried, verified = _carried(sec, K), verify_section(surf, _lifted(sec.u, K), name=sec.name)
        assert carried.domain == K and carried.u == verified.u and carried.w == verified.w
        assert carried.msq == verified.msq and carried.pO == verified.pO
        assert carried.contacts == verified.contacts
        assert any(c.slope is not None or c.leg_root is not None for c in carried.contacts.values())
    assert any(c.leg_root is not None for c in _carried(sec, QuadField(2)).contacts.values())


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

def _branch_ratio(xi, eta, k):
    """eta_k / xi_k when v(xi) = v(eta) = k, else the two valuations."""
    if (xi.valuation(), eta.valuation()) != (k, k):
        return ("valuations", xi.valuation(), eta.valuation())
    return xi.domain.div(eta[k], xi[k])


def _slope_times_fpp(surf_c, t0, c):
    """slope * f''(x0) for a cycle contact, f''(x0) = 6 x0 + 2 a2(t0) at the node x0."""
    d = surf_c.domain
    node = _embed(d, c.fiber.node_x)
    fpp = d.add(d.mul(d.from_fraction(Fraction(6)), node),
                d.mul(d.from_fraction(Fraction(2)), surf_c.a2(t0)))
    return d.mul(c.slope, fpp)


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
    """(checked, kinds seen, cycle contacts, branch outcomes of shared-fiber pairs).

    Asserts every contact matches the reference; at a cycle contact also
    v(xi) = v(eta) = k and slope * f''(x0) = eta_k / xi_k, and at every pair
    of cycle contacts at one fiber that the slope rule agrees with the
    cross-term rule v(eta_P xi_Q - eta_Q xi_P) > k_P + k_Q.
    """
    checked, kinds, cycles, branches = 0, set(), 0, []
    for name, surf, secs in certified:
        at_fiber = {}    # fiber index -> [(contact, xi, eta)] of the cycle contacts there
        for sec in secs:
            chart = surf if sec.domain == surf.domain else surf.map_domain(sec.domain)
            for idx, f in enumerate(surf.fibers):
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
                assert (c.slope is None) == (c.kind != "cycle"), where
                if c.kind == "cycle":
                    xi, eta = ref[3], ref[4]
                    assert _slope_times_fpp(surf_c, t0, c) == _branch_ratio(xi, eta, c.k), where
                    at_fiber.setdefault(idx, []).append((c, xi, eta))
                    cycles += 1
                checked += 1
                kinds.add(c.kind)
        for group in at_fiber.values():
            branches += _branch_pairs(group, name)
    return checked, kinds, cycles, branches


def _branch_pairs(group, where):
    """Same-branch outcomes of every pair of (cycle contact, xi, eta) at one fiber,
    asserting that the slope rule agrees with the cross-term rule."""
    out = []
    for i, (cp, xi_p, eta_p) in enumerate(group):
        for cq, xi_q, eta_q in group[i + 1:]:
            cross = (eta_p * xi_q - eta_q * xi_p).valuation() > cp.k + cq.k
            assert (_fiber_components(cp.fiber, [cp, cq])[1] == cq.k) == cross, where
            out.append(cross)
    return out


def test_contact_depths_match_series_rules(certified):
    checked, kinds, cycles, branches = _contacts_against_reference(certified)
    assert checked > 150
    assert kinds == {"identity", "cycle", "far-cycle", "star-leg", "star-far"}
    assert cycles == 54
    assert branches
    assert {s.domain for _, _, secs in certified for s in secs} > {QQ}   # Q(sqrt m) too


def _outcome(rule, surf_c, u_c, w_c, t0, fiber):
    """(kind, k, leg_root, branch): the branch is eta_k / xi_k from the reference
    series and slope * f''(x0) from a contact, at cycle contacts only."""
    try:
        c = rule(surf_c, u_c, w_c, t0, fiber)
    except SectionError:
        return "SectionError"
    if isinstance(c, tuple):
        return c[:3] + (_branch_ratio(c[3], c[4], c[1]) if c[0] == "cycle" else None,)
    return (c.kind, c.k, c.leg_root, _slope_times_fpp(surf_c, t0, c) if c.kind == "cycle" else c.slope)


def _probe_coordinates(surf_c, t0, fiber):
    """(probes, node): local x-coordinates meeting the fiber at every depth up to
    past its middle, and at an I_n fiber the node's series as a polynomial in
    t - t0 to precision n + 3 (else None)."""
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
        return out + [pi * const(c) + pi * pi for c in (0, 1, 2)], None
    node = _reference_critical_point(a2s, a4s, x0)
    x_other = -Fraction(2, 3) * a2s[0] - x0            # the other critical point at t0
    out += [pi ** twist * (const(c) + pi) for c in (x0 + 1, x_other)]   # off the node
    truncated = lambda j: sum((const(node[i]) * pi ** i for i in range(j)), Polynomial(d, []))
    for j in range(1, n + 3):                           # the node's first j terms
        out.append(pi ** twist * (truncated(j) + pi ** j))
    return out, truncated(n + 3) if fiber.kind == "I" else None


def test_contact_depths_match_series_rules_at_every_depth(certified):
    """Probe coordinates at reducible fibers, the far and raising cases too.

    Each fiber type (kind, n, finite or infinite cusp) is probed on the first
    certified surface that has it.  At an I_n fiber the probe's w is x minus
    the node to precision n + 3, so that eta_k / xi_k = 1 at a cycle contact;
    with -w too, the cycle probes of one fiber pair on both branches.
    """
    outcomes, probed, branches = set(), set(), set()
    for name, surf, _ in certified:
        for f in surf.fibers:
            key = (f.kind, f.n, f.cusp.kind)
            if not f.reducible or f.cusp.kind == "orbit" or key in probed:
                continue
            probed.add(key)
            surf_c, t0 = (surf, f.cusp.value) if f.cusp.kind == "finite" else (surf.flipped(), Fraction(0))
            rule = _cycle_contact if f.kind == "I" else _star_contact
            probes, node = _probe_coordinates(surf_c, t0, f)
            group = []
            for x in probes:
                u_c = RationalFunction(x)
                w_c = RationalFunction(x * x + Polynomial.constant(QQ, Fraction(1)) if node is None else x - node)
                got = _outcome(rule, surf_c, u_c, w_c, t0, f)
                assert got == _outcome(reference_contact, surf_c, u_c, w_c, t0, f), (name, str(f), x)
                if got != "SectionError" and got[0] == "cycle":
                    assert got[3] == 1, (name, str(f), x)
                    for w in (w_c, -w_c):
                        ref = reference_contact(surf_c, u_c, w, t0, f)
                        group.append((_cycle_contact(surf_c, u_c, w, t0, f), ref[3], ref[4]))
                outcomes.add((f.kind, got if got == "SectionError" else got[0]))
            branches.update(_branch_pairs(group, (name, str(f))))
    assert branches == {True, False}
    assert outcomes == {
        ("I", "identity"), ("I", "cycle"), ("I", "far-cycle"), ("I", "SectionError"),
        ("I*", "identity"), ("I*", "star-leg"), ("I*", "star-near"), ("I*", "star-far"),
        ("I*", "SectionError"),
    }


def test_resolved_multiplicity_at_a_shared_node():
    # two sections on one node component meet naive - k times on the smooth
    # model; on different components (branches, or depths k) they do not meet
    fiber = FiberDescriptor(Cusp.finite(Fraction(0)), "I", 8)
    s = Fraction(2, 5)
    for k in (1, 3):
        cyc, far = Contact(fiber, "cycle", k, slope=s), Contact(fiber, "far-cycle", k)
        pairs = {
            "same branch": (cyc, Contact(fiber, "cycle", k, slope=s), True),
            "far cycle": (far, Contact(fiber, "far-cycle", k), True),
            "opposite slopes": (cyc, Contact(fiber, "cycle", k, slope=-s), False),
            "unequal k": (cyc, Contact(fiber, "cycle", k + 1, slope=s), False),
        }
        for name, (cp, cq, meet) in pairs.items():
            for extra in (0, 1, 3):
                want = extra if meet else 0
                assert _resolved_multiplicity(cp, cq, k + extra) == want, (name, k, extra)
                assert _resolved_multiplicity(cq, cp, k + extra) == want, (name, k, extra)


def test_meeting_order_is_the_smaller_valuation():
    # the naive multiplicity reads v(w_P - w_Q) as well as v(u_P - u_Q)
    cube = RationalFunction(Polynomial(QQ, [Fraction(c) for c in (-1, 3, -3, 1)]))
    square = RationalFunction(Polynomial(QQ, [Fraction(c) for c in (1, -2, 1)]))
    one, zero = Fraction(1), RationalFunction(Polynomial(QQ, []))
    assert _meeting_order(cube, square, one) == 2
    assert _meeting_order(square, cube, one) == 2
    assert _meeting_order(cube, zero, one) == 3


def test_scaled_section_scales_the_slope(reg):
    fx = reg.surfaces["ex_3003"]
    surf = fx.build_surface(reg)
    P, _ = build_sections(surf, fx.sections)
    s = Fraction(-3, 7)
    scaled = _scaled_section(P, s, P.msq)
    d = P.domain
    chart = surf.map_domain(d)
    nodes = [idx for idx, c in P.contacts.items() if c.kind in ("cycle", "far-cycle")]
    assert nodes and any(P.contacts[idx].kind == "cycle" for idx in nodes)
    for idx in nodes:
        c, cs = P.contacts[idx], scaled.contacts[idx]
        assert (cs.kind, cs.k) == (c.kind, c.k)
        if c.kind == "far-cycle":
            assert cs.slope is c.slope is None
            continue
        assert cs.slope == d.mul(c.slope, d.from_fraction(s))
        # the scaled slope is the one read off the scaled section's own series
        surf_c, u_c, w_c, t0 = _local_chart(chart, scaled, c.fiber.cusp)
        t0 = _embed(d, t0)
        _, k, _, xi, eta = reference_contact(surf_c, u_c, w_c, t0, c.fiber)
        assert _slope_times_fpp(surf_c, t0, cs) == _branch_ratio(xi, eta, k)


def test_verify_section_expands_no_node_series(reg, fam, monkeypatch, capsys):
    import k3cm.surfaces
    from k3cm.cli import main

    row = next(r for r in reg.table1 if r.disc == -88)
    surf = fam.specialize(row.lam)
    calls = _counting(monkeypatch, k3cm.surfaces, "node_series")
    sec = verify_section(surf, parse_ratfun(row.u_text))
    assert height(sec) == Fraction(11, 105)
    assert sum(c.kind == "cycle" for c in sec.contacts.values()) == 3
    assert sec.contacts[0].kind == "cycle" and sec.contacts[0].k == 1
    assert sec.contacts[0].slope is not None
    # the two surfaces whose pairings meet at shared nodes over Q(sqrt m)
    for name in ("ex_3003", "ex_1012"):
        assert main(["verify", "--surface", name]) == 0, name
    out = capsys.readouterr().out
    assert "disc NS = -3003" in out and "disc NS = -1012" in out
    assert calls == []
