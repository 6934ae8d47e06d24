"""Mordell-Weil sections: verification, fiber contacts, heights, pairings.

A section is stored through its x-coordinate u(t) plus the square class m
and cofactor w(t) with y = sqrt(m) w.  Contact depths at reducible fibers
are single exact valuations, and the tangent branch of a node contact is
the sign of one exact slope; no local series is expanded.  Heights and
pairings follow from the standard correction tables, and the Neron-Severi
discriminant from the Mordell-Weil determinant formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from k3cm.exact import (
    QQ,
    Polynomial,
    QuadField,
    QuadNum,
    RationalFunction,
    rational_sqrt,
    squarefree_part,
)
from k3cm.lattices import FiberBlock, GramLattice, assemble_ns_gram, det_bareiss
from k3cm.surfaces import (
    Cusp,
    FiberDescriptor,
    SurfaceError,
    WeierstrassSurface,
    squarefree_decomposition,
)


class SectionError(ValueError):
    pass


class NonSemistableError(ValueError):
    """Two sections meet non-identity components of an additive fiber."""


# ---------------------------------------------------------------------------
# contacts
# ---------------------------------------------------------------------------

@dataclass
class Contact:
    fiber: FiberDescriptor
    kind: str              # identity | cycle | far-cycle | star-leg | star-near | star-far
    k: int = 0             # I_n: min(i, n-i), one exact valuation; stars: unused
    leg_root: object = None  # I_0*: which residual-cubic root carries the leg
    slope: object = None   # cycle: lc(w) / lc(f'(u)) at (t - t0)^k, see `_cycle_contact`

    @property
    def nonidentity(self) -> bool:
        return self.kind != "identity"

    def correction(self) -> Fraction:
        f = self.fiber
        if self.kind == "identity":
            return Fraction(0)
        if f.kind == "I":
            return Fraction(self.k * (f.n - self.k), f.n)
        if f.n == 0 or self.kind == "star-near":
            return Fraction(1)
        return 1 + Fraction(f.n, 4)


@dataclass
class Section:
    u: RationalFunction
    w: RationalFunction
    msq: object                  # square class scalar with y^2 = msq * w^2
    pO: int
    name: str = "P"
    contacts: dict = field(default_factory=dict)   # fiber index -> Contact
    fibers: list = field(default_factory=list)     # the surface's fiber list

    @property
    def domain(self):
        return self.u.domain

    def correction_sum(self) -> Fraction:
        total = Fraction(0)
        for idx, f in enumerate(self.fibers):
            c = self.contacts.get(idx)
            if c is not None:
                total += c.correction() * f.cusp.degree
        return total


# ---------------------------------------------------------------------------
# chart handling: a section seen near one cusp
# ---------------------------------------------------------------------------

def _ratfun_flip(f: RationalFunction, weight: int) -> RationalFunction:
    """s^weight * f(1/s) as a rational function of s."""
    num, den = f.num, f.den
    dn, dd = num.degree, den.degree
    rn = num.reverse(dn)
    rd = den.reverse(dd)
    shift = weight + dd - dn
    d = f.domain
    s = Polynomial.x(d)
    if shift >= 0:
        return RationalFunction(rn * s ** shift, rd)
    return RationalFunction(rn, rd * s ** (-shift))


def _local_chart(surface, sec: Section, cusp: Cusp):
    """(surface, u, w, t0) viewed in the chart where the cusp is finite."""
    if cusp.kind == "finite":
        return surface, sec.u, sec.w, cusp.value
    if cusp.kind == "infinity":
        return (
            surface.flipped(),
            _ratfun_flip(sec.u, 4),
            _ratfun_flip(sec.w, 6),
            surface.domain.zero,
        )
    raise SectionError("orbit cusps have no single local chart")


# ---------------------------------------------------------------------------
# section verification
# ---------------------------------------------------------------------------

def _embed(dom, value):
    """Lift a stored scalar (possibly a plain Fraction) into dom."""
    if isinstance(value, Fraction):
        return dom.from_fraction(value)
    return value


def verify_section(surface: WeierstrassSurface, u: RationalFunction, name: str = "P") -> Section:
    """Exact check that u is the x-coordinate of a section; returns it.

    The right-hand side R = u^3 + a2 u^2 + a4 u + a6 must factor as
    m * w(t)^2 for a scalar square class m, established by squarefree
    decomposition; pole orders of u must be even, giving (P.O).  The
    surface is over Q; a section over Q(sqrt m) is checked on the surface
    mapped to that field, once for the right-hand side and all contacts.
    """
    if isinstance(u, Polynomial):
        u = RationalFunction(u)
    dom = u.domain
    chart = surface if dom == surface.domain else surface.map_domain(dom)
    R = chart.rhs(u)
    if R.is_zero():
        raise SectionError("u lies on the zero locus y = 0 identically")
    m, w = _square_cofactor(R)
    if m is None:
        raise SectionError("RHS(u) is not a square class times a square")
    # (P.O): half the (even) pole orders, finite places plus infinity
    pO = 0
    _, sq = squarefree_decomposition(u.den)
    for g, e in sq:
        if e % 2:
            raise SectionError(f"odd pole order {e} along {g.to_text()}")
        pO += (e // 2) * g.degree
    inf_pole = u.num.degree - u.den.degree - 4
    if inf_pole > 0:
        if inf_pole % 2:
            raise SectionError("odd pole order at infinity")
        pO += inf_pole // 2
    sec = Section(u=u, w=w, msq=m, pO=pO, name=name, fibers=surface.fibers)
    for idx, f in enumerate(sec.fibers):
        if f.reducible:
            sec.contacts[idx] = determine_contact(chart, sec, f)
    return sec


def _square_cofactor(R: RationalFunction):
    """Write R = m * w^2 exactly; returns (m, w) or (None, None)."""
    dom = R.domain
    lead_n, sq_n = squarefree_decomposition(R.num)
    lead_d, sq_d = squarefree_decomposition(R.den)
    one = Polynomial.constant(dom, dom.one)
    wn, wd = one, one
    for g, e in sq_n:
        if e % 2:
            return None, None
        wn = wn * g ** (e // 2)
    for g, e in sq_d:
        if e % 2:
            return None, None
        wd = wd * g ** (e // 2)
    m = dom.div(lead_n, lead_d)
    if dom == QQ:
        m0 = Fraction(m)
        kernel = squarefree_part(m0.numerator * m0.denominator)
        # m0 / kernel = r^2 for a rational r; fold r into w
        r = rational_sqrt(m0 / kernel)
        assert r is not None
        wn = wn.scale(r)
        m = Fraction(kernel)
    return m, RationalFunction(wn, wd)


# ---------------------------------------------------------------------------
# contact determination
# ---------------------------------------------------------------------------

def determine_contact(surface, sec: Section, fiber: FiberDescriptor) -> Contact:
    """How the section meets the fiber; the surface is over the section's field."""
    if surface.domain != sec.domain:
        raise SectionError(f"contacts need the surface over {sec.domain}, not {surface.domain}")
    if fiber.cusp.kind == "orbit":
        return _orbit_contact(surface, sec, fiber)
    surf_c, u_c, w_c, t0 = _local_chart(surface, sec, fiber.cusp)
    dom = u_c.domain
    t0 = _embed(dom, t0)
    if not u_c.is_zero() and u_c.valuation_at(t0) < 0:
        return Contact(fiber, "identity")
    if fiber.kind == "I":
        return _cycle_contact(surf_c, u_c, w_c, t0, fiber)
    return _star_contact(surf_c, u_c, w_c, t0, fiber)


def _node_depth(surf_c, u_c, t0, x_t0, x0, twist: int) -> tuple:
    """(v_{t0}(x - x_node(t)), lc F) for x = u / (t - t0)^twist, with x(t0) = x_t0.

    x_node is the root through x0 of 3x^2 + 2 A2 x + A4 = 3 (x - x_node)(x - x_other),
    A_i = a_i / (t - t0)^(i twist / 2): an I_n node (twist 0) or the untwisted
    I_m* cubic (twist 1).  f''(x0) != 0 makes x - x_other a unit at t0, so the
    depth is v(3u^2 + 2 a2 u + a4) - 2 twist: with u = N/D, D(t0) != 0, one
    valuation of F = 3N^2 + 2 a2 N D + a4 D^2 = D^2 f'(u).  lc F is F's first
    non-zero Taylor coefficient at t0, None when x(t0) is not the node or F = 0.
    """
    d, a2, a4 = u_c.domain, surf_c.a2, surf_c.a4
    c2, c3, c6 = (d.from_fraction(Fraction(c)) for c in (2, 3, 6))
    if d.is_zero(d.add(d.mul(c6, x0), d.mul(c2, (a2.derivative() if twist else a2)(t0)))):
        raise SurfaceError("degenerate node: f''(x0) vanishes")
    if not d.eq(x_t0, x0):
        return 0, None
    num, den = u_c.num, u_c.den
    fx = (num * num).scale(c3) + (a2 * num * den).scale(c2) + a4 * den * den
    if fx.is_zero():
        return 10**9, None
    k, lc = fx.order_at(t0)
    return k - 2 * twist, lc


def _cycle_contact(surf_c, u_c, w_c, t0, fiber) -> Contact:
    n = fiber.n
    dom = u_c.domain
    if n == 1:
        return Contact(fiber, "identity")  # no non-identity component exists
    if fiber.node_x is None:
        raise SectionError(f"missing node data at {fiber}")
    node = _embed(dom, fiber.node_x)
    k, lc_fx = _node_depth(surf_c, u_c, t0, u_c(t0), node, 0)
    if k == 0:
        return Contact(fiber, "identity")
    if 2 * k < n:
        # m w^2 = f(u) = f''(x0)/2 (u - x_node)^2 + O((t - t0)^n), so v(w) = k, and the
        # slope lc(w) / lc(f'(u)) = lc(w) / (lc(u - x_node) f''(x0)) has the sign of the
        # tangent branch; f'(u) = F / D^2 with D = den u
        vw, lc_w = w_c.num.order_at(t0) if not w_c.is_zero() else (None, None)
        if vw != k:
            raise SectionError(f"v(w) = {vw} differs from the contact depth {k} at {fiber}")
        d0 = u_c.den(t0)
        slope = dom.div(dom.mul(lc_w, dom.mul(d0, d0)), dom.mul(w_c.den(t0), lc_fx))
        return Contact(fiber, "cycle", k=k, slope=slope)
    if n % 2 == 0:
        return Contact(fiber, "far-cycle", k=n // 2)
    raise SectionError(
        f"x-contact depth {k} exceeds the I_{n} pattern at {fiber}; model not normalized"
    )


def _star_contact(surf_c, u_c, w_c, t0, fiber) -> Contact:
    dom = u_c.domain
    if not u_c.is_zero() and u_c.valuation_at(t0) <= 0:
        return Contact(fiber, "identity")
    # X = u / (t - t0) on the untwisted cubic X^3 + (a2/pi) X^2 + (a4/pi^2) X
    # + (a6/pi^3); u(t0) = 0, so X(t0) = u'(t0)
    X0 = dom.div(u_c.num.derivative()(t0), u_c.den(t0))
    if fiber.n == 0:
        return Contact(fiber, "star-leg", leg_root=X0)
    vdiff, _ = _node_depth(surf_c, u_c, t0, X0, _embed(dom, fiber.double_root), 1)
    if vdiff >= (fiber.n + 1) // 2:
        return Contact(fiber, "star-far")
    if vdiff == 0:
        return Contact(fiber, "star-near")
    raise SectionError(
        f"section depth at {fiber} lands on a double component (v = {vdiff})"
    )


def _orbit_contact(surface, sec: Section, fiber: FiberDescriptor) -> Contact:
    """Contacts at a Galois orbit of cusps: identity versus non-identity.

    The section reduces to the node over the orbit iff both w and the
    x-derivative of the Weierstrass cubic vanish along the orbit polynomial.
    Only the identity and the I_2 non-identity cases occur in fixtures; a
    deeper contact at an orbit cusp is flagged instead of guessed.
    """
    if fiber.kind != "I":
        raise SectionError(f"star fiber over orbit cusp {fiber.cusp} unsupported")
    g = fiber.cusp.value
    u, w = sec.u, sec.w
    dom = u.domain
    if dom != g.domain:
        g = g.map_domain(dom)
    if _vanishes_along(u.den, g):
        return Contact(fiber, "identity")  # pole over the orbit: meets O side
    # non-identity requires w = 0 and f_x(u) = 0 along the orbit
    if w.is_zero():
        w_van = True
    else:
        w_van = _vanishes_along(w.num, g) and not _vanishes_along(w.den, g)
    three = Polynomial.constant(dom, dom.from_fraction(Fraction(3)))
    two = Polynomial.constant(dom, dom.from_fraction(Fraction(2)))
    fx = (RationalFunction(three) * u * u + RationalFunction(two * surface.a2) * u
          + RationalFunction(surface.a4))
    fx_van = _vanishes_along(fx.num, g) and not _vanishes_along(fx.den, g)
    if w_van and fx_van:
        if fiber.n == 2:
            return Contact(fiber, "far-cycle", k=1)
        raise SectionError(
            f"non-identity contact at orbit cusp {fiber.cusp} of I_{fiber.n} unsupported"
        )
    return Contact(fiber, "identity")


def _vanishes_along(f: Polynomial, g: Polynomial) -> bool:
    if f.is_zero():
        return True
    return f.divrem(g)[1].is_zero()


# ---------------------------------------------------------------------------
# heights and pairings
# ---------------------------------------------------------------------------

def height(sec: Section) -> Fraction:
    """4 + 2 (P.O) - sum of per-fiber correction terms."""
    return 4 + 2 * sec.pO - sec.correction_sum()


def _same_branch(p: Contact, q: Contact) -> bool:
    """Do two cycle contacts at one fiber hug the same tangent branch?

    m w^2 = f''(x0)/2 (u - x_node)^2 + ... makes slope^2 = 1 / (2 m f''(x0)), so
    with both sections' w normalized to one square class m the two slopes are
    equal (same branch) or opposite.
    """
    return p.slope == q.slope


def _scaled_section(q: Section, scale, new_m) -> Section:
    """Copy of q with w, and the slope of each cycle contact, multiplied by scale."""
    dom = q.domain
    s = _embed(dom, scale)
    return Section(
        u=q.u,
        w=q.w * Polynomial.constant(dom, s),
        msq=new_m,
        pO=q.pO,
        name=q.name,
        contacts={
            idx: c if c.slope is None else replace(c, slope=dom.mul(c.slope, s))
            for idx, c in q.contacts.items()
        },
        fibers=q.fibers,
    )


def normalize_sections(surface, sections) -> list:
    """The sections with w rescaled to the first one's square class.

    Over Q, sections of different classes are all verified again, once, over
    the quadratic field joining the classes (meetings at quadratic points are
    invisible over Q); over a quadratic field incompatible classes are out of
    scope.  A list that is already normalized comes back as it is.
    """
    if not sections:
        return []
    first = sections[0]
    dom = first.domain
    if any(sec.domain != dom for sec in sections):
        raise SectionError("sections must live over one field")
    scales = [_same_square_class(dom, sec.msq, first.msq) for sec in sections]
    if None not in scales:
        return [
            sec if dom.eq(_embed(dom, c), dom.one) else _scaled_section(sec, c, first.msq)
            for sec, c in zip(sections, scales)
        ]
    if dom != QQ:
        raise SectionError("sections with incompatible square classes over a quadratic field")
    products = [Fraction(first.msq) * Fraction(sec.msq) for sec, c in zip(sections, scales) if c is None]
    kernels = {squarefree_part(m.numerator * m.denominator) for m in products}
    if len(kernels) > 1:
        raise SectionError("more than two incompatible square classes")
    K = QuadField(kernels.pop())
    lift = lambda f: RationalFunction(f.num.map_domain(K), f.den.map_domain(K))
    return normalize_sections(
        surface, [verify_section(surface, lift(sec.u), name=sec.name) for sec in sections]
    )


def normalized_pair(surface, p: Section, q: Section):
    """(p, q') sharing one square class: `normalize_sections` of the pair."""
    p, q = normalize_sections(surface, [p, q])
    return p, q


def build_sections(surface, section_fixtures) -> list:
    """The declared sections, verified in order and normalized to one class.

    A fixture with `conjugate_of` is the Galois conjugate of the section it
    names, taken from that section as verified, before normalization.
    """
    secs = {}
    for sf in section_fixtures:
        if sf.name.lower() in secs:
            raise SectionError(f"section {sf.name} is declared twice")
        if sf.conjugate_of:
            u = _conjugate_ratfun(secs[sf.conjugate_of.lower()].u)
        else:
            u = sf.u()
        secs[sf.name.lower()] = verify_section(surface, u, name=sf.name)
    return normalize_sections(surface, list(secs.values()))


def _conjugate_ratfun(f: RationalFunction) -> RationalFunction:
    conj = lambda poly: Polynomial(poly.domain, [c.conjugate() for c in poly.coeffs])
    return RationalFunction(conj(f.num), conj(f.den))


def corr_pair(p: Contact, q: Contact) -> Fraction:
    """Correction term corr_v(P, Q) at one shared fiber."""
    f = p.fiber
    if not p.nonidentity or not q.nonidentity:
        return Fraction(0)
    if f.kind != "I":
        raise NonSemistableError(
            f"two sections meet non-identity components of {f}; pairing needs I_n"
        )
    n = f.n
    i_p = p.k
    if p.kind == "far-cycle" or q.kind == "far-cycle":
        # far component (or one far): i(n-j)/n with the far index n/2
        i, j = sorted((p.k, q.k))
        return Fraction(i * (n - j), n)
    i_q = q.k if _same_branch(p, q) else n - q.k
    i, j = sorted((i_p, i_q))
    return Fraction(i * (n - j), n)


def pairing(surface, p: Section, q: Section) -> Fraction:
    """Height pairing <P, Q> = 2 + (P.O) + (Q.O) - (P.Q) - sum corr_v(P, Q).

    For p is q this returns the height without needing (P.P).  The result
    for distinct sections depends on the chosen y-roots: replacing Q by -Q
    negates it (heights and discriminants are unaffected).
    """
    if p is q:
        return height(p)
    p, q = normalized_pair(surface, p, q)
    pq = intersection_number(surface, p, q)
    corr = Fraction(0)
    for idx, f in enumerate(p.fibers):
        cp, cq = p.contacts.get(idx), q.contacts.get(idx)
        if cp is None or cq is None:
            continue
        corr += corr_pair(cp, cq) * f.cusp.degree
    return 2 + p.pO + q.pO - pq - corr


def ns_discriminant(surface, sections, torsion_order: int = 1) -> int:
    """disc NS(X) = -(det of the height-pairing Gram) * prod disc(F_v) / tors^2.

    The sign is forced by the signature (1, 19); sections are declared
    generators of the Mordell-Weil group modulo torsion.
    """
    sections = normalize_sections(surface, sections)
    k = len(sections)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            val = pairing(surface, sections[i], sections[j]) if i != j else height(sections[i])
            gram[i][j] = gram[j][i] = val
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    det = Fraction(det_bareiss([[int(x * scale) for x in row] for row in gram]), scale ** k)
    if det <= 0:
        raise SectionError("sections are dependent (Mordell-Weil determinant <= 0)")
    prod = 1
    for f in surface.fibers:
        if f.reducible:
            prod *= f.root_disc ** f.cusp.degree
    disc = -det * prod / (torsion_order * torsion_order)
    if disc.denominator != 1:
        raise SectionError(f"non-integral Neron-Severi discriminant {disc}")
    return int(disc)


# ---------------------------------------------------------------------------
# intersection number of two sections
# ---------------------------------------------------------------------------

def _gcd_restricted(f: Polynomial, support: Polynomial) -> Polynomial:
    """gcd(f, support^N) for N large: f's divisor restricted to the support."""
    acc = Polynomial.constant(f.domain, f.domain.one)
    g = f.gcd(support)
    while g.degree > 0:
        acc = acc * g
        f = f // g
        g = f.gcd(g)
    return acc


def _same_square_class(dom, m1, m2):
    """Return c with m1 = c^2 m2, or None."""
    if dom == QQ:
        return rational_sqrt(Fraction(m1) / Fraction(m2))
    # quadratic field: solve (x + y sqrt(m))^2 = m1/m2
    z = dom.div(m1, m2)
    if isinstance(z, QuadNum):
        return _quad_sqrt(dom, z)
    return None


def _quad_sqrt(dom: QuadField, z: QuadNum):
    """A square root of z in Q(sqrt m), or None."""
    a, b, m = z.a, z.b, z.m
    if b == 0:
        # sqrt of a rational inside the field: rational or y*sqrt(m)
        r = rational_sqrt(a)
        if r is not None:
            return QuadNum(r, Fraction(0), m)
        r = rational_sqrt(a / m)
        return None if r is None else QuadNum(Fraction(0), r, m)
    # x^2 + m y^2 = a, 2xy = b: x^4 - a x^2 + m b^2 / 4 = 0
    root = rational_sqrt(a * a - m * b * b)
    if root is None:
        return None
    for x2 in ((a + root) / 2, (a - root) / 2):
        x = rational_sqrt(x2) if x2 > 0 else None
        if x is not None:
            return QuadNum(x, b / (2 * x), m)
    return None


def intersection_number(surface, p: Section, q: Section) -> int:
    """(P.Q) in NS(X): gcd-degree bookkeeping plus local corrections.

    Finite transversal meetings are counted by gcd degrees of coordinate
    differences; meetings at the zero section via the -x/y chart on common
    poles; and meetings at fiber nodes are re-evaluated on the smooth model
    (different components intersect zero times there).
    """
    p, q = normalized_pair(surface, p, q)
    if p.u == q.u:
        raise SectionError("(P.Q) needs distinct x-coordinates")
    fibers = p.fibers
    total = 0
    udiff = p.u - q.u
    wdiff = p.w - q.w
    n1 = udiff.num
    if wdiff.is_zero():
        # identically equal y-coordinates: every common-x point meets
        common = n1
    else:
        common = n1.gcd(wdiff.num)
    base = common.degree
    # common poles: remove leakage, add the -x/y chart contributions
    gpole = p.u.den.gcd(q.u.den)
    if gpole.degree > 0:
        base -= _gcd_restricted(common, gpole).degree
        chart = p.u / p.w - q.u / q.w
        if chart.is_zero():
            raise SectionError("degenerate pole chart (sections coincide near O)")
        total += _gcd_restricted(chart.num, gpole).degree
    total += base
    # node corrections at rational reducible cusps met by both sections
    for idx, f in enumerate(fibers):
        cp, cq = p.contacts.get(idx), q.contacts.get(idx)
        if cp is None or cq is None or f.cusp.kind == "orbit":
            continue
        if not (cp.nonidentity and cq.nonidentity):
            continue
        if f.kind != "I":
            continue  # star fibers carry at most one section in scope
        if f.cusp.kind == "infinity":
            continue  # handled by the chart at infinity below
        naive = _meeting_order(udiff, wdiff, _embed(p.domain, f.cusp.value))
        total += _resolved_multiplicity(cp, cq, naive) - naive
    # the place at infinity
    total += _infinity_contribution(p, q)
    return total


def _meeting_order(udiff: RationalFunction, wdiff: RationalFunction, t0) -> int:
    """min(v(u_P - u_Q), v(w_P - w_Q)) at t0: the naive Weierstrass multiplicity."""
    return min(udiff.valuation_at(t0), 10**9 if wdiff.is_zero() else wdiff.valuation_at(t0))


def _resolved_multiplicity(cp: Contact, cq: Contact, naive: int) -> int:
    """The smooth-model multiplicity at a node both sections meet, given the naive one."""
    if cp.k != cq.k:
        return 0
    same_comp = cp.kind == cq.kind == "far-cycle" or (
        cp.kind == cq.kind == "cycle" and _same_branch(cp, cq))
    return max(0, naive - cp.k) if same_comp else 0


def _infinity_contribution(p: Section, q: Section) -> int:
    dom = p.domain
    up, wp = _ratfun_flip(p.u, 4), _ratfun_flip(p.w, 6)
    uq, wq = _ratfun_flip(q.u, 4), _ratfun_flip(q.w, 6)
    zero = dom.zero
    vp = up.valuation_at(zero) if not up.is_zero() else 10**9
    vq = uq.valuation_at(zero) if not uq.is_zero() else 10**9
    if vp < 0 and vq < 0:
        chart = up / wp - uq / wq
        if chart.is_zero():
            raise SectionError("degenerate pole chart at infinity")
        return chart.valuation_at(zero)
    if vp < 0 or vq < 0:
        return 0
    # both finite at s = 0 (w too): the naive count, resolved at a shared node
    naive = _meeting_order(up - uq, wp - wq, zero)
    inf_fibers = [
        (idx, f) for idx, f in enumerate(p.fibers) if f.cusp.kind == "infinity"
    ]
    if inf_fibers:
        idx, f = inf_fibers[0]
        cp, cq = p.contacts.get(idx), q.contacts.get(idx)
        if cp is not None and cq is not None and cp.nonidentity and cq.nonidentity:
            return _resolved_multiplicity(cp, cq, naive)
        # identity-side meetings at s=0 take the generic count
    return naive


# ---------------------------------------------------------------------------
# Neron-Severi assembly (Gram route, cross-checked against ns_discriminant)
# ---------------------------------------------------------------------------

def assemble_ns(surface, sections) -> GramLattice:
    """Gram matrix of NS(X) on {O, F, fiber components, sections}."""
    sections = normalize_sections(surface, sections)
    fibers = surface.fibers
    blocks = []
    block_fiber_idx = []
    for idx, f in enumerate(fibers):
        if not f.reducible:
            continue
        for _ in range(f.cusp.degree):
            blocks.append(FiberBlock(f.kind, f.n))
            block_fiber_idx.append(idx)
    pq = {}
    for s_i, s_j in combinations(range(len(sections)), 2):
        pq[s_i, s_j] = pq[s_j, s_i] = intersection_number(surface, sections[s_i], sections[s_j])
    sec_rows = []
    for s_i, sec in enumerate(sections):
        contacts = []
        for b_i, f_idx in enumerate(block_fiber_idx):
            c = sec.contacts.get(f_idx)
            f = fibers[f_idx]
            if c is None or not c.nonidentity:
                contacts.append(None)
                continue
            if f.cusp.degree > 1:
                # orbit fiber: the section meets each conjugate copy alike
                contacts.append(c.k if f.kind == "I" else "far")
                continue
            contacts.append(_oriented_contact(sections, s_i, f_idx, c))
        sec_rows.append({"pO": sec.pO, "contacts": contacts, "pq": pq})
    return assemble_ns_gram(blocks, sec_rows)


def _oriented_contact(sections, s_i, f_idx, c: Contact):
    f = c.fiber
    if f.kind == "I*":
        if c.kind == "star-near":
            return "near"
        if c.kind == "star-far":
            return "far"
        return "far"  # I_0* legs are symmetric; distinct legs of one fiber
    if c.kind == "far-cycle":
        return f.n // 2
    # orient the cycle by the first non-identity section's branch
    for s_j in range(s_i):
        other = sections[s_j].contacts.get(f_idx)
        if other is not None and other.kind == "cycle":
            return c.k if _same_branch(other, c) else f.n - c.k
    return c.k


# ---------------------------------------------------------------------------
# the group law (independent oracle for the pairing formula)
# ---------------------------------------------------------------------------

def section_sum(surface: WeierstrassSurface, p: Section, q: Section) -> RationalFunction:
    """x-coordinate of P + Q on y^2 = x^3 + a2 x^2 + a4 x + a6.

    Returns a rational function over the smallest field containing the
    slope; used as an independent cross-check of the height pairing via
    <P,Q> = (h(P+Q) - h(P) - h(Q)) / 2.
    """
    dom = p.domain
    scale = _same_square_class(dom, q.msq, p.msq)
    if scale is not None:
        wq = q.w * Polynomial.constant(dom, scale)
        if p.u == q.u:
            raise SectionError("doubling not needed by the oracle")
        lam_w = (p.w - wq) / (p.u - q.u)  # slope = sqrt(m) * lam_w
        m = p.msq
        a2 = RationalFunction(surface.a2.map_domain(dom) if surface.domain != dom else surface.a2)
        mconst = Polynomial.constant(dom, dom.from_fraction(Fraction(m)) if isinstance(m, Fraction) else m)
        x3 = lam_w * lam_w * mconst - a2 - p.u - q.u
        return x3
    # different square classes: slope lives in Q(sqrt(m_p m_q))
    if dom != QQ:
        raise SectionError("mixed quadratic classes over a quadratic field")
    m1, m2 = Fraction(p.msq), Fraction(q.msq)
    mprod = squarefree_part((m1 * m2).numerator * (m1 * m2).denominator)
    K = QuadField(mprod)
    ru = lambda f: RationalFunction(f.num.map_domain(K), f.den.map_domain(K))
    up, uq, wp, wq = ru(p.u), ru(q.u), ru(p.w), ru(q.w)
    # y_p y_q = sqrt(m1 m2) w_p w_q ; sqrt(m1 m2) = r sqrt(mprod)
    r0 = rational_sqrt((m1 * m2) / mprod)
    assert r0 is not None
    r = K.embed(r0) * QuadNum(Fraction(0), Fraction(1), mprod)
    # slope^2 = (y_p - y_q)^2/(u_p-u_q)^2 = (m1 w_p^2 + m2 w_q^2 - 2 r sqrt? ...)
    num = (
        wp * wp * Polynomial.constant(K, K.from_fraction(m1))
        + wq * wq * Polynomial.constant(K, K.from_fraction(m2))
        - wp * wq * Polynomial.constant(K, r) * Polynomial.constant(K, K.from_fraction(Fraction(2)))
    )
    den = (up - uq) * (up - uq)
    a2 = RationalFunction(surface.a2.map_domain(K))
    return num / den - a2 - up - uq
