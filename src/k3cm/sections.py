"""Mordell-Weil sections: verification, fiber contacts, heights, pairings.

A section is stored through its x-coordinate u(t) plus the square class m
and cofactor w(t) with y = sqrt(m) w.  Contact depths at reducible fibers
are single exact valuations, and the tangent branch of a node contact is
the sign of one exact slope; no local series is expanded.  Heights and
pairings follow from the standard correction tables.

A declared conjugate is the verified section conjugated, not verified
again.  A list of sections is normalized to one square class where it is
formed, by `build_sections` or `normalize_sections`, and nowhere else:
`certify`, `assemble_ns`, `ns_discriminant`, `pairing` and
`intersection_number` take it as it is and refuse sections of several
classes.  Both routes to disc NS read one component assignment
(`_fiber_components`).  `certify` assembles the Neron-Severi lattice once
and returns one `Certificate`: the sections, their heights, disc NS and
T(X) read off that lattice.  `ns_discriminant` is the independent
Mordell-Weil determinant route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from k3cm.exact import (
    QQ,
    Polynomial,
    QuadField,
    QuadNum,
    RationalFunction,
    monic_sqrt,
    rational_sqrt,
    squarefree_part,
)
from k3cm.lattices import GramLattice, assemble_ns_gram, match_transcendental
from k3cm.quadforms import BinaryQuadraticForm
from k3cm.surfaces import (
    Cusp,
    FiberDescriptor,
    SurfaceError,
    WeierstrassSurface,
    root_disc_product,
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

    @property
    def component(self):
        """The component met, None for the identity one, up to the fiber's symmetry.

        Which cycle branch, I_0* leg or far end it is depends on the other
        sections (`_fiber_components`); the correction does not.
        """
        return {"identity": None, "star-near": "near", "star-far": "far1",
                "star-leg": "far1"}.get(self.kind, self.k)

    def correction(self) -> Fraction:
        return self.fiber.correction(self.component)


@dataclass
class Section:
    u: RationalFunction
    w: RationalFunction
    msq: object                  # square class scalar with y^2 = msq * w^2
    pO: int
    name: str = "P"
    contacts: dict = field(default_factory=dict)   # index in the surface's fibers -> Contact

    @property
    def domain(self):
        return self.u.domain

    def correction_sum(self) -> Fraction:
        return sum((c.correction() * c.fiber.cusp.degree for c in self.contacts.values()), Fraction(0))


# ---------------------------------------------------------------------------
# chart handling: a section seen near one cusp
# ---------------------------------------------------------------------------

def _ratfun_flip(f: RationalFunction, weight: int) -> RationalFunction:
    """s^weight * f(1/s) as a rational function of s: s^shift rev(num) / rev(den),
    the power of s taken by one reversal."""
    num, den = f.num, f.den
    shift = weight + den.degree - num.degree
    return RationalFunction(num.reverse(num.degree + max(shift, 0)),
                            den.reverse(den.degree + max(-shift, 0)))


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
    m * w(t)^2 for a scalar square class m, established by one monic square
    root each of its numerator and denominator.  The surface is over Q; a
    section over Q(sqrt m) is checked on the surface mapped to that field,
    once for the right-hand side and all contacts.
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
    # (P.O) is half the pole order of u = N/D.  R = F / D^3 in lowest terms is a
    # square class times a square, so D is a square, and where deg N - deg D > 4,
    # deg F = 3 deg N makes deg N - deg D even
    inf_pole = u.num.degree - u.den.degree - 4
    pO = u.den.degree // 2 + max(inf_pole, 0) // 2
    sec = Section(u=u, w=w, msq=m, pO=pO, name=name)
    charts = {}   # cusp kind -> the section's `_Chart` there, shared by the fibers in it
    for idx, f in enumerate(surface.fibers):
        if f.reducible:
            sec.contacts[idx] = _contact(chart, sec, f, charts)
    return sec


def _square_cofactor(R: RationalFunction):
    """Write R = m * w^2 exactly; returns (m, w) or (None, None).

    m = lc(R.num) and w = monic_sqrt(R.num / m) / monic_sqrt(R.den) (R.den is monic);
    over Q the square part of m is folded into w, leaving its squarefree kernel."""
    dom, m = R.domain, R.num.leading()
    wn, wd = monic_sqrt(R.num.monic()), monic_sqrt(R.den)
    if wn is None or wd is None:
        return None, None
    if dom == QQ:
        kernel = squarefree_part(m.numerator * m.denominator)
        wn, m = wn.scale(rational_sqrt(m / kernel)), Fraction(kernel)
    return m, RationalFunction(wn, wd)


# ---------------------------------------------------------------------------
# contact determination
# ---------------------------------------------------------------------------

def determine_contact(surface, sec: Section, fiber: FiberDescriptor) -> Contact:
    """How the section meets the fiber; the surface is over the section's field."""
    if surface.domain != sec.domain:
        raise SectionError(f"contacts need the surface over {sec.domain}, not {surface.domain}")
    return _contact(surface, sec, fiber, {})


def _contact(surface, sec: Section, fiber: FiberDescriptor, charts: dict) -> Contact:
    """`determine_contact` with the section's `_Chart` per cusp kind, made by its first fiber."""
    if fiber.cusp.kind == "orbit":
        return _orbit_contact(surface, sec, fiber)
    surf_c, u_c, w_c, t0 = _local_chart(surface, sec, fiber.cusp)
    chart = charts.get(fiber.cusp.kind) or charts.setdefault(fiber.cusp.kind, _Chart(surf_c, u_c))
    t0 = _embed(u_c.domain, t0)
    if not u_c.is_zero() and u_c.valuation_at(t0) < 0:
        return Contact(fiber, "identity")
    rule = _cycle_contact if fiber.kind == "I" else _star_contact
    return rule(surf_c, u_c, w_c, t0, fiber, chart)


class _Chart:
    """A section's u = N/D in one chart of the surface, with what its node depths there share:
    2, 3 and 6, and F = (3N + 2 a2 D) N + a4 D^2 = D^2 f'(u), built on first use."""

    def __init__(self, surface: WeierstrassSurface, u: RationalFunction):
        self.surface, self.u = surface, u
        self.two, self.three, self.six = (u.domain.from_fraction(Fraction(c)) for c in (2, 3, 6))

    @cached_property
    def fprime(self) -> Polynomial:
        n, d, a2, a4 = self.u.num, self.u.den, self.surface.a2, self.surface.a4
        return (n.scale(self.three) + (a2 * d).scale(self.two)) * n + a4 * (d * d)


def _node_depth(chart: _Chart, t0, x_t0, x0, twist: int) -> tuple:
    """(v_{t0}(x - x_node(t)), lc F) for x = u / (t - t0)^twist, with x(t0) = x_t0.

    x_node is the root through x0 of 3x^2 + 2 A2 x + A4 = 3 (x - x_node)(x - x_other),
    A_i = a_i / (t - t0)^(i twist / 2): an I_n node (twist 0) or the untwisted
    I_m* cubic (twist 1).  f''(x0) != 0 makes x - x_other a unit at t0, so the
    depth is v(3u^2 + 2 a2 u + a4) - 2 twist: with u = N/D, D(t0) != 0, one valuation of
    F = D^2 f'(u), built once per chart (`_Chart.fprime`) for all its I_n and I_m* fibers.
    lc F is F's first non-zero Taylor coefficient at t0, None when x(t0) is not the node or F = 0.
    """
    d, a2 = chart.u.domain, chart.surface.a2
    if d.is_zero(d.add(d.mul(chart.six, x0), d.mul(chart.two, (a2.derivative() if twist else a2)(t0)))):
        raise SurfaceError("degenerate node: f''(x0) vanishes")
    if not d.eq(x_t0, x0):
        return 0, None
    if chart.fprime.is_zero():
        return 10**9, None
    k, lc = chart.fprime.order_at(t0)
    return k - 2 * twist, lc


def _cycle_contact(surf_c, u_c, w_c, t0, fiber, chart=None) -> Contact:
    n = fiber.n
    dom = u_c.domain
    if n == 1:
        return Contact(fiber, "identity")  # no non-identity component exists
    if fiber.node_x is None:
        raise SectionError(f"missing node data at {fiber}")
    node = _embed(dom, fiber.node_x)
    k, lc_fx = _node_depth(chart or _Chart(surf_c, u_c), t0, u_c(t0), node, 0)
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


def _star_contact(surf_c, u_c, w_c, t0, fiber, chart=None) -> Contact:
    dom = u_c.domain
    if not u_c.is_zero() and u_c.valuation_at(t0) <= 0:
        return Contact(fiber, "identity")
    # X = u / (t - t0) on the untwisted cubic X^3 + (a2/pi) X^2 + (a4/pi^2) X
    # + (a6/pi^3); u(t0) = 0, so X(t0) = u'(t0)
    X0 = dom.div(u_c.num.derivative()(t0), u_c.den(t0))
    if fiber.n == 0:
        return Contact(fiber, "star-leg", leg_root=X0)
    vdiff, _ = _node_depth(chart or _Chart(surf_c, u_c), t0, X0, _embed(dom, fiber.double_root), 1)
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
    u, w = sec.u, sec.w
    g = fiber.cusp.value.map_domain(u.domain)
    if _vanishes_along(u.den, g):
        return Contact(fiber, "identity")  # pole over the orbit: meets O side
    # non-identity requires w = 0 and f_x(u) = F / D^2 = 0 along the orbit, where g does not divide D
    w_van = _vanishes_along(w.num, g) and not _vanishes_along(w.den, g)
    if w_van and _vanishes_along(_Chart(surface, u).fprime, g):
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


def _scaled_section(q: Section, scale, new_m) -> Section:
    """Copy of q with w, and the slope of each cycle contact, multiplied by scale."""
    dom = q.domain
    s = _embed(dom, scale)
    contacts = {idx: c if c.slope is None else replace(c, slope=dom.mul(c.slope, s))
                for idx, c in q.contacts.items()}
    return replace(q, w=q.w * Polynomial.constant(dom, s), msq=new_m, contacts=contacts)


def normalize_sections(surface, sections) -> list:
    """The sections with w rescaled to the first one's square class.

    Over Q, sections of two classes are first carried, once, into the
    quadratic field joining the classes (`_carried`; meetings at quadratic
    points are invisible over Q); over a quadratic field incompatible classes
    are out of scope.  A list that is already normalized comes back as it is.
    """
    if not sections:
        return []
    first = sections[0]
    dom = first.domain
    if any(sec.domain != dom for sec in sections):
        raise SectionError("sections must live over one field")
    scales = [_same_square_class(dom, sec.msq, first.msq) for sec in sections]
    if None in scales and dom == QQ:
        products = [Fraction(first.msq) * Fraction(sec.msq) for sec, c in zip(sections, scales) if c is None]
        kernels = {squarefree_part(m.numerator * m.denominator) for m in products}
        if len(kernels) > 1:
            raise SectionError("more than two incompatible square classes")
        dom = QuadField(kernels.pop())
        sections = [_carried(sec, dom) for sec in sections]
        first = sections[0]
        scales = [_same_square_class(dom, sec.msq, first.msq) for sec in sections]
    if None in scales:
        raise SectionError("sections with incompatible square classes over a quadratic field")
    return [
        sec if dom.eq(_embed(dom, c), dom.one) else _scaled_section(sec, c, first.msq)
        for sec, c in zip(sections, scales)
    ]


def _one_class(*sections) -> None:
    """Refuse sections of several fields or square classes: the readers take one class."""
    if any(sec.domain != sections[0].domain or sec.msq != sections[0].msq for sec in sections[1:]):
        raise SectionError("sections of several square classes; normalize_sections joins them")


def _mapped(sec: Section, ratfun, scalar, **changes) -> Section:
    """sec with ratfun applied to u and w, and scalar to msq and to each cycle
    slope and I0* leg root; (P.O) and the contact kinds are kept."""
    each = lambda x: None if x is None else scalar(x)
    contacts = {idx: replace(c, leg_root=each(c.leg_root), slope=each(c.slope))
                for idx, c in sec.contacts.items()}
    return replace(sec, u=ratfun(sec.u), w=ratfun(sec.w), msq=scalar(sec.msq), contacts=contacts,
                   **changes)


def _carried(sec: Section, K) -> Section:
    """A section verified over Q, as `verify_section` finds it over K, without verifying again.

    Over K, w's numerator is monic: w and each cycle slope are divided by
    lc(w.num), and msq = kernel * lc(w.num)^2, all embedded in K.
    """
    lc = sec.w.num.leading()
    lift = lambda f: RationalFunction(f.num.map_domain(K), f.den.map_domain(K))
    return _mapped(_scaled_section(sec, 1 / lc, sec.msq * lc * lc), lift, K.from_fraction)


def normalized_pair(surface, p: Section, q: Section):
    """(p, q') sharing one square class: `normalize_sections` of the pair."""
    return tuple(normalize_sections(surface, [p, q]))


def build_sections(surface, section_fixtures) -> list:
    """The declared sections, verified in order and normalized to one class.

    A fixture with `conjugate_of` is the Galois conjugate of the section it
    names, declared before it: that section as verified, conjugated
    (`_conjugated`) and not verified again, before normalization.
    """
    secs = {}
    for sf in section_fixtures:
        if sf.name.lower() in secs:
            raise SectionError(f"section {sf.name} is declared twice")
        if not sf.conjugate_of:
            secs[sf.name.lower()] = verify_section(surface, sf.u(), name=sf.name)
        elif sf.conjugate_of.lower() in secs:
            secs[sf.name.lower()] = _conjugated(secs[sf.conjugate_of.lower()], sf.name)
        else:
            raise SectionError(f"section {sf.name} is the conjugate of {sf.conjugate_of}, "
                               "which is not declared before it")
    return normalize_sections(surface, list(secs.values()))


def _conjugate_ratfun(f: RationalFunction) -> RationalFunction:
    conj = lambda poly: Polynomial(poly.domain, [c.conjugate() for c in poly.coeffs])
    return RationalFunction(conj(f.num), conj(f.den))


def _conjugated(sec: Section, name: str) -> Section:
    """The Galois conjugate of a verified section, as `verify_section` finds it.

    The surface and its fibers are over Q and `monic_sqrt` is unique, so
    verifying sigma(u) gives sigma(w) and sigma(msq), the same (P.O) and
    contact kinds, and the conjugate of each cycle slope and I0* leg root.
    """
    return _mapped(sec, _conjugate_ratfun, lambda x: x.conjugate(), name=name)


def corr_pair(p: Contact, q: Contact) -> Fraction:
    """Correction term corr_v(P, Q) at one shared fiber: i(n-j)/n at the I_n
    components i <= j the two sections meet (`_fiber_components`)."""
    f = p.fiber
    if not p.nonidentity or not q.nonidentity:
        return Fraction(0)
    if f.kind != "I":
        raise NonSemistableError(
            f"two sections meet non-identity components of {f}; pairing needs I_n"
        )
    i, j = sorted(_fiber_components(f, [p, q]))
    return Fraction(i * (f.n - j), f.n)


def pairing(surface, p: Section, q: Section) -> Fraction:
    """Height pairing <P, Q> = 2 + (P.O) + (Q.O) - (P.Q) - sum corr_v(P, Q), P and Q of one class.

    For p is q this returns the height without needing (P.P).  The result
    for distinct sections depends on the chosen y-roots: replacing Q by -Q
    negates it (heights and discriminants are unaffected).
    """
    if p is q:
        return height(p)
    pq = intersection_number(surface, p, q)
    corr = sum((corr_pair(cp, cq) * cp.fiber.cusp.degree for cp, cq in _shared(p, q)), Fraction(0))
    return 2 + p.pO + q.pO - pq - corr


def _shared(p: Section, q: Section) -> list:
    """(p's contact, q's contact) at each fiber where both meet a non-identity component."""
    return [(cp, q.contacts[idx]) for idx, cp in p.contacts.items()
            if cp.nonidentity and idx in q.contacts and q.contacts[idx].nonidentity]


def ns_discriminant(surface, sections) -> int:
    """disc NS(X) = -(det of the height-pairing Gram) * prod disc(F_v).

    The sign is forced by the signature (1, 19); sections, of one square
    class, are declared generators of the Mordell-Weil group, taken to be
    torsion-free.  This is
    the route independent of `certify`, which reads disc NS off the lattice.
    """
    _one_class(*sections)
    k = len(sections)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            gram[i][j] = gram[j][i] = pairing(surface, sections[i], sections[j])
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    det = Fraction(GramLattice([[int(x * scale) for x in row] for row in gram]).det, scale ** k)
    if det <= 0:
        raise SectionError("sections are dependent (Mordell-Weil determinant <= 0)")
    disc = -det * root_disc_product(surface.fibers)
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
    return _quad_sqrt(dom, dom.div(m1, m2))   # quadratic field: (x + y sqrt(m))^2 = m1/m2


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
    _one_class(p, q)
    if p.u == q.u:
        raise SectionError("(P.Q) needs distinct x-coordinates")
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
    # node corrections at finite rational I_n cusps met by both sections (star fibers
    # carry at most one section in scope; infinity is handled by its chart below)
    for cp, cq in _shared(p, q):
        f = cp.fiber
        if f.kind == "I" and f.cusp.kind == "finite":
            naive = _meeting_order(udiff, wdiff, _embed(p.domain, f.cusp.value))
            total += _resolved_multiplicity(cp, cq, naive) - naive
    # the place at infinity
    total += _infinity_contribution(p, q)
    return total


def _meeting_order(udiff: RationalFunction, wdiff: RationalFunction, t0) -> int:
    """min(v(u_P - u_Q), v(w_P - w_Q)) at t0: the naive Weierstrass multiplicity."""
    return min(udiff.valuation_at(t0), 10**9 if wdiff.is_zero() else wdiff.valuation_at(t0))


def _resolved_multiplicity(cp: Contact, cq: Contact, naive: int) -> int:
    """The smooth-model multiplicity at a node both sections meet, given the naive one:
    naive - k on one component (`_fiber_components`), 0 on two."""
    i, j = _fiber_components(cp.fiber, [cp, cq])
    return max(0, naive - cp.k) if i == j else 0


def _infinity_contribution(p: Section, q: Section) -> int:
    up, wp = _ratfun_flip(p.u, 4), _ratfun_flip(p.w, 6)
    uq, wq = _ratfun_flip(q.u, 4), _ratfun_flip(q.w, 6)
    zero = p.domain.zero
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
    for cp, cq in _shared(p, q):
        if cp.fiber.cusp.kind == "infinity":
            return _resolved_multiplicity(cp, cq, naive)
    # identity-side meetings at s=0 take the generic count
    return naive


# ---------------------------------------------------------------------------
# Neron-Severi assembly and certification (cross-checked against ns_discriminant)
# ---------------------------------------------------------------------------

def assemble_ns(surface, sections) -> GramLattice:
    """Gram matrix of NS(X) on {O, F, fiber components, sections} of one square class."""
    _one_class(*sections)
    blocks, columns = [], []
    for idx, f in enumerate(surface.fibers):
        if f.reducible:
            components = _fiber_components(f, [sec.contacts.get(idx) for sec in sections])
            # an orbit fiber: one block per conjugate, each met alike
            blocks += [f] * f.cusp.degree
            columns += [components] * f.cusp.degree
    rows = [
        (sec.pO, [col[s_i] for col in columns],
         [intersection_number(surface, sections[s_j], sec) for s_j in range(s_i)])
        for s_i, sec in enumerate(sections)
    ]
    return assemble_ns_gram(blocks, rows)


def _fiber_components(fiber: FiberDescriptor, contacts) -> list:
    """The component of the fiber each section meets (None: the identity one).

    Cycles are oriented by the first cycle contact's tangent branch: m w^2 =
    f''(x0)/2 (u - x_node)^2 + ... makes slope^2 = 1 / (2 m f''(x0)), so over
    one square class m two slopes are equal (same branch) or opposite.  I_0*
    legs take far1, far2, near in the order their residual-cubic roots first
    occur.  Which far end of an I_m* a star-far contact meets is not known,
    so two of them on one fiber are refused.
    """
    out, first_cycle, legs = [], None, []
    for c in contacts:
        kind, comp = ("identity", None) if c is None else (c.kind, c.component)
        if kind == "cycle":
            first_cycle = first_cycle or c
            comp = c.k if c.slope == first_cycle.slope else fiber.n - c.k
        elif kind == "star-leg":
            if c.leg_root not in legs:
                legs.append(c.leg_root)
            comp = ("far1", "far2", "near")[legs.index(c.leg_root)]
        elif kind == "star-far" and "far1" in out:
            raise SectionError(f"two sections meet a far end of {fiber}; "
                               "which end each one meets is not determined")
        out.append(comp)
    return out


@dataclass(frozen=True)
class Certificate:
    """What `certify` establishes for one surface, read by every reporter.

    The sections are normalized to one square class, each carrying its
    (P.O), square class and contacts, with its height at the same index of
    `heights`; disc NS is the determinant of the assembled lattice `ns`,
    and T is matched on that same lattice.
    """

    surface: WeierstrassSurface
    sections: tuple
    heights: tuple
    ns: GramLattice
    T: BinaryQuadraticForm

    @property
    def fibers(self) -> list:
        return self.surface.fibers

    @property
    def disc(self) -> int:
        return self.ns.det


def certify(surface, sections) -> Certificate:
    """The NS lattice of sections of one square class, assembled once, and T(X)
    matched on it; disc NS is its det."""
    sections = tuple(sections)
    lattice = assemble_ns(surface, sections)
    if lattice.det == 0:
        raise SectionError("sections are dependent (Mordell-Weil determinant <= 0)")
    return Certificate(surface, sections, tuple(map(height, sections)), lattice,
                       match_transcendental(lattice))
