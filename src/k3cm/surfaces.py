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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from k3cm.exact import (
    QQ,
    DomainError,
    Polynomial,
    RationalFunction,
    Series,
    _integer_coeffs,
    poly_series,
    primes_up_to,
    rational_reconstruct,
    GF,
    roots_mod_p,
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
        if isinstance(self.value, Fraction):
            from k3cm.exact import format_rational

            return format_rational(self.value)
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
    def components(self) -> int:
        return self.n if self.kind == "I" else self.n + 5

    @property
    def reducible(self) -> bool:
        return self.kind == "I*" or self.n >= 2

    @property
    def root_disc(self) -> int:
        return self.n if self.kind == "I" else 4

    def label(self) -> str:
        return f"I{self.n}" if self.kind == "I" else f"I{self.n}*"

    def __str__(self):
        return f"{self.label()}@{self.cusp}"


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def _discriminant_polys(a2, a4, a6):
    """(c4, c6, Delta) of y^2 = x^3 + a2 x^2 + a4 x + a6."""
    d = a2.domain
    two = Polynomial.constant(d, d.from_fraction(Fraction(2)))
    four = Polynomial.constant(d, d.from_fraction(Fraction(4)))
    b2 = four * a2
    b4 = two * a4
    b6 = four * a6
    b8 = four * a2 * a6 - a4 * a4
    c = lambda q: Polynomial.constant(d, d.from_fraction(Fraction(q)))
    c4 = b2 * b2 - c(24) * b4
    c6 = -(b2 * b2 * b2) + c(36) * b2 * b4 - c(216) * b6
    delta = -(b2 * b2) * b8 - c(8) * (b4 ** 3) - c(27) * (b6 * b6) + c(9) * b2 * b4 * b6
    return c4, c6, delta


class WeierstrassSurface:
    """Extended Weierstrass model of an elliptic K3 with zero section.

    Degree bounds deg a2 <= 4, deg a4 <= 8, deg a6 <= 12 certify the K3
    property together with the Euler-number check done at classification.
    The chart at infinity and the fiber list are derived once, on first use.
    The chart at infinity and a mapped model take c4, c6, Delta from the parent.
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

    def rhs(self, u):
        """u^3 + a2 u^2 + a4 u + a6 as a rational function of t."""
        if isinstance(u, Polynomial):
            u = RationalFunction(u)
        a2 = RationalFunction(self.a2)
        a4 = RationalFunction(self.a4)
        a6 = RationalFunction(self.a6)
        return ((u + a2) * u + a4) * u + a6

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


def rational_roots(f: Polynomial) -> dict:
    """Roots of f in Q with multiplicities, via mod-p roots + CRT lifting.

    Avoids integer factorization of the (possibly huge) coefficients: roots
    are matched across several primes, reconstructed, and verified exactly.
    """
    if f.domain != QQ:
        raise DomainError("rational_roots expects Q coefficients")
    _, sq = squarefree_decomposition(f)
    out: dict[Fraction, int] = {}
    for g, mult in sq:
        for r in _roots_of_squarefree(g):
            out[r] = mult
    return out


def _roots_of_squarefree(g: Polynomial) -> list:
    """Rational roots of a squarefree Q-polynomial by Hensel lifting.

    Roots are found mod one good prime, Newton-lifted p-adically until the
    modulus dominates twice the square of any plausible height, then
    recognized by rational reconstruction and verified exactly.
    """
    if g.degree == 0:
        return []
    if g.degree == 1:
        return [-g.coeffs[0] / g.coeffs[1]]
    gz = _integer_coeffs(g.coeffs)[0]

    def eval_mod(coeffs, x, mod):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % mod
        return acc

    dgz = [i * c for i, c in enumerate(gz)][1:]
    for p in primes_up_to(3000)[::-1]:
        if gz[-1] % p == 0:
            continue
        gp = Polynomial(GF(p), [c % p for c in gz])
        if gp.gcd(gp.derivative()).degree != 0:
            continue  # need simple roots mod p for clean lifting
        base_roots = roots_mod_p(gp)
        break
    else:
        raise SurfaceError("no good prime for rational root finding")
    found = []
    for r in sorted(base_roots):
        mod = p
        x = r
        for _ in range(7):  # lift to p^128: far beyond any fixture height
            mod = mod * mod
            fx = eval_mod(gz, x, mod)
            dfx = eval_mod(dgz, x, mod)
            x = (x - fx * pow(dfx, -1, mod)) % mod
            cand = rational_reconstruct(x % mod, mod)
            if cand is not None and g(cand) == 0:
                if cand not in found:
                    found.append(cand)
                break
    return found


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

def classify_fibers(surface: WeierstrassSurface) -> list[FiberDescriptor]:
    """Kodaira types at every zero of Delta, including the place at infinity.

    The surface must be defined over Q: the finite cusps are the rational
    roots of Delta, and the other factors of Delta are Galois orbits.
    Callers read the list through `WeierstrassSurface.fibers`.
    """
    if surface.domain != QQ:
        raise SurfaceError(f"fibers are classified over Q only, not over {surface.domain}")
    fibers = []
    delta = surface.delta
    # finite places
    remaining = delta.monic()
    finite_points = sorted(rational_roots(delta), key=lambda r: (abs(r), r))
    d = surface.domain
    for t0 in finite_points:
        fibers.append(classify_at(surface, Cusp.finite(t0)))
        lin = Polynomial(d, [d.neg(t0), d.one])
        for _ in range(_valuation_along(delta, Cusp.finite(t0))):
            remaining = remaining // lin
    # leftover orbit factors
    if remaining.degree > 0:
        _, sq = squarefree_decomposition(remaining)
        for g, mult in sq:
            fibers.append(classify_at(surface, Cusp.orbit(g)))
    # infinity
    v_inf = 24 - surface.delta.degree
    if v_inf > 0:
        flip = surface.flipped()
        fib = classify_at(flip, Cusp.finite(d.zero))
        fibers.append(FiberDescriptor(
            Cusp.infinity(), fib.kind, fib.n, fib.split_class,
            fib.node_x, fib.residual_cubic, fib.double_root,
        ))
    total = sum(f.euler * f.cusp.degree for f in fibers)
    if total != 24:
        raise SurfaceError(f"Euler numbers sum to {total}, not 24: not K3 input")
    return fibers


def classify_at(surface: WeierstrassSurface, cusp: Cusp) -> FiberDescriptor:
    """The Kodaira type at one zero of Delta, over Q or over GF(p) with p >= 5."""
    vd = _valuation_along(surface.delta, cusp)
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
    from k3cm.exact import squarefree_part

    if domain == QQ:
        v = Fraction(value)
        if v == 0:
            return 0
        return squarefree_part(v.numerator * v.denominator)
    return value


# ---------------------------------------------------------------------------
# node drift series (the t-varying critical point near a node)
# ---------------------------------------------------------------------------

def node_series(surface: WeierstrassSurface, t0, x0, prec: int) -> Series:
    """Power series x(t) of the critical point of the fiber cubic near x0.

    The root of f'(x) = 3x^2 + 2 a2 x + a4 by Newton iteration in the series
    ring at t0; requires f''(x0) != 0 at t0 (true at any I_n node).
    """
    d = surface.domain
    a2s, a4s = poly_series(surface.a2, t0, prec), poly_series(surface.a4, t0, prec)
    three, two, six = (Series(d, [d.from_fraction(Fraction(c))], prec) for c in (3, 2, 6))
    x = Series(d, [x0], prec)
    for _ in range(prec.bit_length() + 3):
        fprime = three * x * x + two * a2s * x + a4s
        if fprime.is_zero_to_prec():
            return x
        fsecond = six * x + two * a2s
        if d.is_zero(fsecond.coeffs[0]):
            raise SurfaceError("degenerate node: f''(x0) vanishes")
        x = x - fprime / fsecond
    raise SurfaceError("node series did not converge; raise precision")
