"""Elliptic K3 surfaces y^2 = x^3 + a2 x^2 + a4 x + a6 over Q(t) and their
singular fibers.

Fibers are classified from exact valuations of (c4, c6, Delta) at each cusp,
with the place at infinity handled through the weighted chart flip
(x, y, t) -> (x/t^4, y/t^6, 1/t).  Only types I_n, I_0* and I_m* are in
scope; anything else raises UnsupportedFiberError naming the cusp.  The
same rules (`classify_at`) classify the fibers of a reduction mod p for
point counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from k3cm.exact import (
    QQ,
    DomainError,
    Polynomial,
    RationalFunction,
    is_prime,
    rational_reconstruct,
    GF,
    resultant,
    roots_mod_p,
    squarefree_part,
)


class UnsupportedFiberError(ValueError):
    pass


class SurfaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cusp descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cusp:
    """A point of the base line: finite rational/quadratic value, infinity,
    or a Galois orbit given by its (squarefree) minimal polynomial."""

    kind: str            # "finite" | "infinity" | "orbit"
    value: object = None  # scalar for finite, Polynomial for orbit

    @staticmethod
    def finite(value) -> "Cusp":
        return Cusp("finite", value)

    @staticmethod
    def infinity() -> "Cusp":
        return Cusp("infinity")

    @staticmethod
    def orbit(poly: Polynomial) -> "Cusp":
        return Cusp("orbit", poly)

    @property
    def degree(self) -> int:
        return self.value.degree if self.kind == "orbit" else 1

    def __str__(self):
        if self.kind == "infinity":
            return "inf"
        if self.kind == "orbit":
            return f"orbit({self.value.to_text()})"
        return str(self.value)


@dataclass(frozen=True)
class FiberDescriptor:
    cusp: Cusp
    kind: str          # "I" or "I*"
    n: int             # I_n index, or m for I_m*
    split_class: object = None   # squarefree kernel of the node tangent (I_n)
    node_x: object = None        # node x-coordinate (I_n at degree-1 cusps)
    residual_cubic: object = None  # Polynomial in x for I_0*/I_m* fibers
    double_root: object = None     # double root of the residual cubic (I_m*)

    @property
    def euler(self) -> int:
        return self.n if self.kind == "I" else self.n + 6

    @property
    def reducible(self) -> bool:
        return self.kind == "I*" or self.n >= 2

    # -- the root block: the non-identity components, A_{n-1} or D_{m+4} ----------

    @property
    def rank(self) -> int:
        return self.n - 1 if self.kind == "I" else self.n + 4

    @property
    def root_disc(self) -> int:
        """|discriminant| of the root lattice: n for A_{n-1}, 4 for D_{m+4}."""
        return self.n if self.kind == "I" else 4

    @property
    def edges(self) -> list:
        """The Dynkin edges over the block's vertices (see `vertex`).

        I_n: the path Theta_1..Theta_{n-1}.  I_m*: near - c_1 - ... - c_{m+1},
        with far1 and far2 both on c_{m+1}.
        """
        if self.kind == "I":
            return [(i, i + 1) for i in range(self.n - 2)]
        m = self.n
        return [(i, i + 1) for i in range(m + 2)] + [(m + 1, m + 3)]

    def vertex(self, component) -> int:
        """The block vertex of a non-identity component.

        I_n: Theta_k, 1 <= k <= n-1, at vertex k-1.  I_m*: "near" (the
        simple component next to the identity one) at 0, then the double
        chain c_1..c_{m+1}, then "far1" and "far2".  The three legs of an
        I_0* other than the identity are near, far1 and far2.
        """
        if self.kind == "I":
            if isinstance(component, int) and 1 <= component < self.n:
                return component - 1
        elif component in ("near", "far1", "far2"):
            return {"near": 0, "far1": self.n + 2, "far2": self.n + 3}[component]
        raise ValueError(f"{self.label()} has no component {component!r}")

    def correction(self, component) -> Fraction:
        """Shioda's height correction at a component (None: the identity one)."""
        if component is None:
            return Fraction(0)
        self.vertex(component)   # rejects a component the block does not have
        if self.kind == "I":
            return Fraction(component * (self.n - component), self.n)
        return Fraction(1) if component == "near" else 1 + Fraction(self.n, 4)

    def twisted(self, c) -> "FiberDescriptor":
        """The fiber of the quadratic twist by a constant c != 0 at this cusp, over Q: x scales
        by c, and so do the node, the split class and the residual cubic's (double) roots."""
        times = lambda x: None if x is None else c * x
        cubic = self.residual_cubic
        return FiberDescriptor(
            self.cusp, self.kind, self.n, node_x=times(self.node_x), double_root=times(self.double_root),
            split_class=None if self.split_class is None else _square_class(QQ, c * self.split_class),
            residual_cubic=None if cubic is None else Polynomial(
                QQ, [c ** (3 - i) * r for i, r in enumerate(cubic.coeffs)]),
        )

    def label(self) -> str:
        return f"I{self.n}" if self.kind == "I" else f"I{self.n}*"

    def __str__(self):
        return f"{self.label()}@{self.cusp}"


def root_disc_product(fibers) -> int:
    """prod |disc| of the root blocks, an orbit fiber once per conjugate:
    |disc| of the trivial lattice U + roots."""
    return math.prod(f.root_disc ** f.cusp.degree for f in fibers)


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def _discriminant_polys(a2, a4, a6):
    """(c4, c6, Delta) of y^2 = x^3 + a2 x^2 + a4 x + a6: c4 = 16 a2^2 - 48 a4, c6 = -64 a2^3
    + 288 a2 a4 - 864 a6 and Delta = (c4^3 - c6^2)/1728, so 1728 must be a unit of the domain
    (DomainError in GF(2), GF(3))."""
    d = a2.domain
    k = lambda q: d.from_fraction(Fraction(q))
    if not d.is_unit(k(1728)):
        raise DomainError(f"c4, c6, Delta divide by 1728, which is not a unit in {d!r}")
    a2a2 = a2 * a2
    c4 = a2a2.scale(k(16)) - a4.scale(k(48))
    c6 = (a2a2 * a2).scale(k(-64)) + (a2 * a4).scale(k(288)) - a6.scale(k(864))
    return c4, c6, (c4 * c4 * c4 - c6 * c6).scale(k(Fraction(1, 1728)))


class WeierstrassSurface:
    """Extended Weierstrass model of an elliptic K3 with zero section.

    Degree bounds deg a2 <= 4, deg a4 <= 8, deg a6 <= 12 certify the K3
    property together with the Euler-number check done at classification.
    The chart at infinity, the fiber list, Delta's squarefree factors and the
    integers of the bad-prime rule (`is_bad_prime`) are derived once, on first use.
    The chart at infinity and a mapped model take c4, c6, Delta from the parent,
    and a family member (`families._Member`) takes them and its fibers from g.
    """

    def __init__(self, a2: Polynomial, a4: Polynomial, a6: Polynomial, name: str = "",
                 _invariants=None):
        if not (a2.domain == a4.domain == a6.domain):
            raise DomainError("surface coefficients must share one domain")
        if a2.degree > 4 or a4.degree > 8 or a6.degree > 12:
            raise SurfaceError("degree bounds (4, 8, 12) violated; not a K3 model")
        self.domain = a2.domain
        self.a2, self.a4, self.a6 = a2, a4, a6
        self.name = name
        self.c4, self.c6, self.delta = _invariants or _discriminant_polys(a2, a4, a6)
        if self.delta.is_zero():
            raise SurfaceError("identically singular model (Delta = 0)")
        self._flipped = None

    @cached_property
    def fibers(self) -> list[FiberDescriptor]:
        """The singular fibers, as `classify_fibers` finds them."""
        return classify_fibers(self)

    @cached_property
    def delta_factors(self) -> list[tuple[Polynomial, int]]:
        """Delta's squarefree factors (g_i, i), from its one `squarefree_decomposition`."""
        return squarefree_decomposition(self.delta)[1]

    @cached_property
    def _reduction_numbers(self) -> tuple[int, int, int]:
        """The coefficient denominators, lc(Delta) and disc(squarefree part of Delta), as integers."""
        den = math.lcm(*(f.int_coeffs[1] for f in (self.a2, self.a4, self.a6)))
        one = Polynomial.constant(QQ, QQ.one)
        rad = math.prod((h for h, _ in self.delta_factors), start=one)
        disc = resultant(rad, rad.derivative())
        return den, Fraction(self.delta.leading()).numerator, Fraction(disc).numerator

    def is_bad_prime(self, p: int) -> bool:
        """True where the model over Q does not reduce to its fibers mod p.

        p <= 5, or a coefficient is not p-integral, or a cusp goes to infinity
        (p | lc Delta), or two cusps meet or an orbit factor gets a double root
        (p | the discriminant of Delta's squarefree part).  Elsewhere Delta mod
        p keeps its degree and squarefree pattern.
        """
        den, lead, disc = self._reduction_numbers
        return p <= 5 or den % p == 0 or lead % p == 0 or disc % p == 0

    def rhs(self, u):
        """u^3 + a2 u^2 + a4 u + a6 as a rational function of t.

        For u = N/D in lowest terms: F / D^3, F = N^3 + a2 N^2 D + a4 N D^2 + a6 D^3,
        also in lowest terms, as F = N^3 mod D (`RationalFunction` takes one gcd).
        """
        if isinstance(u, Polynomial):
            u = RationalFunction(u)
        n, d = u.num, u.den
        d2 = d * d
        d3 = d2 * d
        return RationalFunction(((n + self.a2 * d) * n + self.a4 * d2) * n + self.a6 * d3, d3)

    def fiber_cubic(self, t0) -> Polynomial:
        """x^3 + a2(t0) x^2 + a4(t0) x + a6(t0)."""
        d = self.domain
        return Polynomial(d, [self.a6(t0), self.a4(t0), self.a2(t0), d.one])

    def flipped(self) -> "WeierstrassSurface":
        """The model in the chart s = 1/t, x' = x/t^4, y' = y/t^6."""
        if self._flipped is None:
            self._flipped = WeierstrassSurface(
                self.a2.reverse(4), self.a4.reverse(8), self.a6.reverse(12),
                name=f"{self.name}~inf",
                _invariants=(self.c4.reverse(8), self.c6.reverse(12), self.delta.reverse(24)),
            )
        return self._flipped

    def map_domain(self, target) -> "WeierstrassSurface":
        return WeierstrassSurface(
            self.a2.map_domain(target),
            self.a4.map_domain(target),
            self.a6.map_domain(target),
            name=self.name,
            _invariants=tuple(f.map_domain(target) for f in (self.c4, self.c6, self.delta)),
        )

    def __repr__(self):
        return f"WeierstrassSurface({self.name or 'unnamed'})"


# ---------------------------------------------------------------------------
# squarefree decomposition and rational roots (no factorization over Q)
# ---------------------------------------------------------------------------

def squarefree_decomposition(f: Polynomial):
    """Yun's algorithm: list of (g_i, i) with f = lc * prod g_i^i, g_i monic
    squarefree and pairwise coprime."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    lead = f.leading()
    f = f.monic()
    out = []
    df = f.derivative()
    a = f.gcd(df)
    b = f // a
    c = df // a
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        i += 1
    return lead, out


def _roots_of_squarefree(g: Polynomial) -> list:
    """Rational roots of a squarefree Q-polynomial by Hensel lifting.

    The roots mod the smallest good prime p >= 5 (p does not divide the
    leading coefficient and g mod p is squarefree) are Newton-lifted until
    the modulus M exceeds 2 max(|c|, |lc|)^2, with c the lowest nonzero
    coefficient.  A rational root a/b has a | c and b | lc, so it is the one
    reconstruction of its residue mod M; each candidate is checked exactly.
    """
    if g.degree == 0:
        return []
    gz = g.int_coeffs[0]
    if g.degree == 1:
        return [Fraction(-gz[0], gz[1])]

    def eval_mod(coeffs, x, mod):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        return acc

    p = _good_prime(gz)
    bound = 2 * max(abs(next(c for c in gz if c)), abs(gz[-1])) ** 2
    dgz = [i * c for i, c in enumerate(gz)][1:]
    found = []
    for x in sorted(roots_mod_p(Polynomial(GF(p), [c % p for c in gz]))):
        mod = p
        while mod <= bound:
            mod = mod * mod
            x = (x - eval_mod(gz, x, mod) * pow(eval_mod(dgz, x, mod), -1, mod)) % mod
        cand = rational_reconstruct(x, mod)
        if cand is not None and g(cand) == 0:
            found.append(cand)
    return found


def _good_prime(gz: list) -> int:
    """The smallest prime p >= 5 with p not dividing gz[-1] and gz mod p squarefree."""
    p = 5
    while True:
        if is_prime(p) and gz[-1] % p:
            gp = Polynomial(GF(p), [c % p for c in gz])
            if gp.gcd(gp.derivative()).degree == 0:
                return p
        p += 2


# ---------------------------------------------------------------------------
# local valuations along a place
# ---------------------------------------------------------------------------

def _valuation_along(f: Polynomial, cusp: Cusp) -> int:
    if f.is_zero():
        raise ValueError("valuation of zero polynomial")
    if cusp.kind == "finite":
        return f.valuation_at(cusp.value)
    if cusp.kind == "orbit":
        g = cusp.value
        k = 0
        while True:
            q, r = f.divrem(g)
            if not r.is_zero():
                return k
            f, k = q, k + 1
    raise ValueError("infinity handled via the flipped chart")


# ---------------------------------------------------------------------------
# fiber classification
# ---------------------------------------------------------------------------

def delta_cusps(surface: WeierstrassSurface) -> list[tuple[Cusp, int]]:
    """(cusp, multiplicity) at the zeros of Delta over Q: the rational roots by (|t0|, t0),
    then, of each squarefree factor (`delta_factors`), what is left of it as one orbit cusp."""
    d = surface.domain
    finite_points, orbits = [], []
    for g, mult in surface.delta_factors:
        roots = _roots_of_squarefree(g)
        finite_points += [(t0, mult) for t0 in roots]
        for t0 in roots:
            g = g // Polynomial(d, [d.neg(t0), d.one])
        if g.degree > 0:
            orbits.append((Cusp.orbit(g), mult))
    finite_points.sort(key=lambda r: (abs(r[0]), r[0]))
    return [(Cusp.finite(t0), mult) for t0, mult in finite_points] + orbits


def classify_fibers(surface: WeierstrassSurface) -> list[FiberDescriptor]:
    """Kodaira types at every zero of Delta, including the place at infinity.

    The surface must be defined over Q: the finite cusps are the rational
    roots of Delta, and the other factors of Delta are Galois orbits.
    The list is kept as the surface's `fibers`, so the surface is classified once however
    it is asked; a family member's is the one it takes from g.
    """
    if "fibers" in vars(surface) or type(surface).fibers is not WeierstrassSurface.fibers:
        return surface.fibers
    if surface.domain != QQ:
        raise SurfaceError(f"fibers are classified over Q only, not over {surface.domain}")
    fibers = walk_fibers(surface, delta_cusps(surface), surface.flipped(), 24)
    total = sum(f.euler * f.cusp.degree for f in fibers)
    if total != 24:
        raise SurfaceError(f"Euler numbers sum to {total}, not 24: not K3 input")
    surface.fibers = fibers
    return fibers


def classify_at(surface: WeierstrassSurface, cusp: Cusp, vd: int, place: Cusp | None = None) -> FiberDescriptor:
    """The Kodaira type at one zero of Delta, over Q or over GF(p) with p >= 5.

    vd = v(Delta) at the cusp comes from the caller, which already knows it
    (over Q, from its one squarefree decomposition of Delta).  The fiber is
    reported at `place` when given: infinity, for a cusp of a chart there.
    """
    fib = _classify(surface, cusp, vd)
    return fib if place is None else replace(fib, cusp=place)


def walk_fibers(surface, cusps, chart, weight: int, classify=classify_at) -> list:
    """`classify(surface, cusp, vd)` at each (cusp, vd) of cusps, then at s = 0 of the chart at
    infinity, whose Delta is the surface's reversed to weight (24 for `flipped`, 18 for a twist
    family's g), where vd = weight - deg Delta is positive; that fiber is reported at infinity."""
    out = [classify(surface, cusp, vd) for cusp, vd in cusps]
    v_inf = weight - surface.delta.degree
    if v_inf > 0:
        out.append(classify(chart, Cusp.finite(chart.domain.zero), v_inf, Cusp.infinity()))
    return out


def _classify(surface: WeierstrassSurface, cusp: Cusp, vd: int) -> FiberDescriptor:
    vc4 = _valuation_along(surface.c4, cusp) if not surface.c4.is_zero() else 99
    vc6 = _valuation_along(surface.c6, cusp) if not surface.c6.is_zero() else 99
    if vd == 0:
        raise SurfaceError(f"cusp {cusp} is not a zero of Delta")
    if vc4 == 0:
        return _classify_multiplicative(surface, cusp, vd)
    if vc4 >= 2 and vc6 >= 3:
        if vc4 >= 4 and vc6 >= 6 and vd >= 12:
            raise UnsupportedFiberError(f"non-minimal model at cusp {cusp}")
        if vd == 6:
            return _classify_star(surface, cusp, 0)
        if vd > 6 and vc4 == 2 and vc6 == 3:
            return _classify_star(surface, cusp, vd - 6)
    raise UnsupportedFiberError(
        f"fiber at cusp {cusp} has (v(c4), v(c6), v(Delta)) = ({vc4}, {vc6}, {vd}); "
        "only types I_n, I_0*, I_m* are supported"
    )


def _classify_multiplicative(surface, cusp, n) -> FiberDescriptor:
    if n < 2 or cusp.kind == "orbit":
        # node data is only needed for component bookkeeping
        return FiberDescriptor(cusp, "I", n)
    d = surface.domain
    t0 = cusp.value
    cubic = surface.fiber_cubic(t0)
    dcubic = cubic.derivative()
    g = cubic.gcd(dcubic)
    if g.degree != 1:
        raise SurfaceError(f"I_{n} fiber at {cusp} without a clean double root")
    x0 = d.neg(d.div(g.coeffs[0], g.coeffs[1]))
    # tangent cone scale: f''(x0)/2
    c = d.div(dcubic.derivative()(x0), d.from_fraction(Fraction(2)))
    return FiberDescriptor(cusp, "I", n, split_class=_square_class(d, c), node_x=x0)


def _classify_star(surface, cusp, m) -> FiberDescriptor:
    d = surface.domain
    if cusp.kind == "orbit":
        raise UnsupportedFiberError(f"star fiber over non-rational cusp {cusp}")
    t0 = cusp.value
    sh_a2 = surface.a2.shift(t0)
    sh_a4 = surface.a4.shift(t0)
    sh_a6 = surface.a6.shift(t0)
    if any(not d.is_zero(c) for c in (sh_a2[0], sh_a4[0], sh_a4[1], sh_a6[0], sh_a6[1], sh_a6[2])):
        raise SurfaceError(f"star fiber at {cusp} is not normalized to x = y = 0")
    cubic = Polynomial(d, [sh_a6[3], sh_a4[2], sh_a2[1], d.one])
    dd = cubic.gcd(cubic.derivative())
    if m == 0:
        if dd.degree != 0:
            raise SurfaceError(f"I_0* residual cubic at {cusp} is not separable")
        return FiberDescriptor(cusp, "I*", 0, residual_cubic=cubic)
    if dd.degree != 1:
        raise SurfaceError(f"I_{m}* residual cubic at {cusp} lacks a double root")
    x0 = d.neg(d.div(dd.coeffs[0], dd.coeffs[1]))
    return FiberDescriptor(cusp, "I*", m, residual_cubic=cubic, double_root=x0)


def _square_class(domain, value):
    """Squarefree kernel of a rational square class; quad scalars kept as-is."""
    if domain == QQ:
        v = Fraction(value)
        if v == 0:
            return 0
        return squarefree_part(v.numerator * v.denominator)
    return value


# ---------------------------------------------------------------------------
# node targets (the t-varying critical point near a node)
# ---------------------------------------------------------------------------

def node_series(surface: WeierstrassSurface, t0, x0, prec: int) -> list:
    """The first prec Taylor coefficients at t0 of the critical point x(t) of
    the fiber cubic through x0, the root of f'(x) = 3x^2 + 2 a2 x + a4.

    With v = 3x + a2, f'(x) = 0 reads v^2 = D = a2^2 - 3 a4, so v is the square
    root of D with v_0 = 3 x0 + a2(t0), one coefficient at a time:
    v_n = (D_n - sum_{0<i<n} v_i v_{n-i}) / (2 v_0).  v_0 = f''(x0)/2 is
    nonzero at any I_n node.
    """
    d = surface.domain
    three = d.from_fraction(Fraction(3))
    a2 = surface.a2.shift(t0)
    D = (surface.a2 * surface.a2 - surface.a4.scale(three)).shift(t0)
    v = [d.add(d.mul(three, x0), a2[0])]
    if d.is_zero(v[0]):
        raise SurfaceError("degenerate node: f''(x0) vanishes")
    if not d.eq(d.mul(v[0], v[0]), D[0]):
        raise SurfaceError("x0 is not a critical point of the fiber cubic at t0")
    for n in range(1, prec):
        acc = D[n]
        for i in range(1, n):
            acc = d.sub(acc, d.mul(v[i], v[n - i]))
        v.append(d.div(acc, d.add(v[0], v[0])))
    return [x0] + [d.div(d.sub(v[n], a2[n]), three) for n in range(1, prec)]
