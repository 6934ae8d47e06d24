"""One-parameter families of elliptic K3 surfaces with a free parameter.

A family stores three bivariate coefficient blocks A, B, C (polynomials in t
whose coefficients are polynomials in the modulus parameter mu) together
with structural prefactors in t, (t-1) and (t-lambda):

    a2 = t^i2 (t-1)^j2 (t-lambda)^k2 * A
    a4 = t^i4 (t-1)^j4 (t-lambda)^k4 * B
    a6 = t^i6 (t-1)^j6 (t-lambda)^k6 * C

The (t-lambda) exponents must be (1, 2, 3), or the family is refused: every
member is then the quadratic twist by (t-lambda) of one lambda-free model g
(`untwisted`, of weight 3), with Delta = (t-lambda)^6 Delta_g.  So g over Q
is the one source of what all members share: the fixed fibers (g's, at the
zeros of Delta_g and at infinity, on g's chart `flipped()`), the bad primes
(where Delta_g mod p changes shape) and, at a good p, the degenerate lambdas
(the roots of Delta_g mod p).

Specialization at rational (lambda, mu) produces a WeierstrassSurface over Q
built off g at that mu: its c4, c6, Delta and its fibers are g's twisted, its I0*
at t = lambda read off g's fiber cubic; only at a cusp of g or at infinity is the
fiber at t = lambda classified on the member (`_Member`).
lambda = infinity is the x-rescaled limit where the (t-lambda) prefactors
collapse to constants.  Members are counted mod p off g alone
(`counting.TwistTable`; `counting.log_key` keys their log on the coefficient
data); `specialize_mod` reduces one member mod a good prime, for the
brute-force oracle that checks those counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import comb

from k3cm.exact import GF, QQ, Polynomial, parse_rational, primes_up_to, roots_mod_p
from k3cm.surfaces import Cusp, FiberDescriptor, WeierstrassSurface, classify_at, delta_cusps, walk_fibers

INFINITY = "inf"


def _parse_bivariate(text: str) -> list[Polynomial]:
    """'|'-separated ascending t-coefficients, each a ';' mu-poly."""
    return [Polynomial.from_text(QQ, part) for part in text.split("|")]


@dataclass
class Family:
    name: str
    A: list          # list of mu-polynomials, ascending t-degree
    B: list
    C: list
    pre_a2: tuple    # exponents (i, j, k) of t, (t-1), (t-lambda)
    pre_a4: tuple
    pre_a6: tuple
    mu: Fraction | None = None      # fixed modulus for one-parameter use
    splitting: dict = field(default_factory=dict)    # label -> square-class data
    # p -> counting.TwistTable, filled lazily; a prime whose table raises keeps no entry
    twist_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = (self.pre_a2[2], self.pre_a4[2], self.pre_a6[2])
        if shape != (1, 2, 3):
            raise ValueError(
                f"family {self.name}: the (t-lambda) exponents of (a2, a4, a6) are {shape}; "
                "only (1, 2, 3), a quadratic twist by (t-lambda), is supported"
            )

    # -- construction helpers -------------------------------------------------

    def _assemble(self, block, pre, lam, mu, domain) -> Polynomial:
        """t^i (t-1)^j (t-lambda)^k times the block at mu, over Q or GF(p): t^i as a shift
        of the block's coefficients, each other power one product with its binomial expansion."""
        i, j, k = pre
        out = Polynomial(domain, [domain.zero] * i + [domain.from_fraction(c(mu)) for c in block])
        for c, e in ((Fraction(-1), j), (-Fraction(lam), k)):   # (t + c)^e
            if e:
                out = out * Polynomial(domain, [domain.from_fraction(comb(e, n) * c ** (e - n)) for n in range(e + 1)])
        return out

    def specialize(self, lam, mu=None, name=None) -> WeierstrassSurface:
        """Member at lambda (a Fraction, or INFINITY for the limit surface): `_Member` of g at mu."""
        mu = Fraction(mu) if mu is not None else self.mu
        if mu is None:
            raise ValueError("family has no fixed mu; pass one explicitly")
        if lam != INFINITY:
            lam = Fraction(lam)
        family = self if mu == self.mu else replace(self, mu=mu)
        return _Member(family, lam, name or f"{self.name}_lam_{lam}")

    # -- the untwisted model g: fixed fibers, bad primes, degenerate lambdas ------

    @cached_property
    def untwisted(self) -> WeierstrassSurface:
        """g over Q: the blocks with the (t-lambda) exponent set to 0, at the fixed mu."""
        if self.mu is None:
            raise ValueError("family has no fixed mu")
        a2, a4, a6 = (self._assemble(block, pre[:2] + (0,), 0, self.mu, QQ)
                      for block, pre in self._blocks())
        return WeierstrassSurface(a2, a4, a6, name=f"{self.name}~untwisted", weight=3)

    @cached_property
    def fixed_fibers(self) -> list[FiberDescriptor]:
        """g's fibers over Q at the zeros of Delta_g, then at infinity: every member's but the I0*."""
        g = self.untwisted
        return walk_fibers(g, delta_cusps(g))

    def bad_primes(self, bound: int) -> set[int]:
        """The primes p <= bound where g does not reduce to its fixed fibers (`is_bad_prime`)."""
        return {p for p in primes_up_to(bound) if self.untwisted.is_bad_prime(p)}

    def good_primes(self, bound: int) -> list[int]:
        return [p for p in primes_up_to(bound) if not self.untwisted.is_bad_prime(p)]

    def degenerate_lambdas(self, p: int) -> dict[int, FiberDescriptor]:
        """The roots of Delta_g mod a good prime p, each mapped to g's fiber there over Q.

        There the member's I0* fiber at t = lambda meets a fixed fiber.
        """
        F = self.residue_field(p)
        out: dict[int, FiberDescriptor] = {}
        for fib in self.fixed_fibers:
            if fib.cusp.kind == "finite":
                out[fib.cusp.value.numerator * pow(fib.cusp.value.denominator, -1, p) % p] = fib
            elif fib.cusp.kind == "orbit":
                out.update(dict.fromkeys(roots_mod_p(fib.cusp.value.map_domain(F)), fib))
        return out

    # -- mod p ---------------------------------------------------------------------

    def residue_field(self, p: int):
        """GF(p) for a good prime p; a bad one is a ValueError."""
        if self.untwisted.is_bad_prime(p):
            raise ValueError(f"p = {p} is excluded for family {self.name}")
        return GF(p)

    def specialize_mod(self, p: int, lam: int) -> WeierstrassSurface:
        """Member over GF(p) at lambda in F_p; p must be a good prime."""
        F = self.residue_field(p)
        a2, a4, a6 = (self._assemble(block, pre, lam, self.mu, F) for block, pre in self._blocks())
        return WeierstrassSurface(a2, a4, a6, name=f"{self.name}@p{p}l{lam}")

    def _blocks(self):
        return ((self.A, self.pre_a2), (self.B, self.pre_a4), (self.C, self.pre_a6))


class _Member(WeierstrassSurface):
    """The member at lambda: g twisted by d = t - lambda (d = -1 at INFINITY).

    a2, a4, a6 are g's times d, d^2, d^3, and c4, c6, Delta g's times d^2, d^3, d^6.
    The fibers, in `classify_fibers`' order, are g's fixed fibers twisted by
    c = t0 - lambda (-1 at INFINITY; the fiber at infinity keeps c = 1), and the
    one at t = lambda with v(Delta) = 6 + v_g(lambda): where Delta_g(lambda) != 0,
    I0* with g's fiber cubic at lambda (the member's a_i at t = lambda + s are g's
    values times s^(i/2)); at a cusp of g, where it replaces g's fiber, and at
    INFINITY (s = 0 of its chart at infinity), classified on the member.
    """

    def __init__(self, family: Family, lam, name: str):
        g = family.untwisted
        d = Polynomial(QQ, [-lam, 1]) if lam != INFINITY else Polynomial.constant(QQ, Fraction(-1))
        d2 = d * d
        d3 = d2 * d
        super().__init__(g.a2 * d, g.a4 * d2, g.a6 * d3, name=name,
                         _invariants=(g.c4 * d2, g.c6 * d3, g.delta * d3 * d3))
        self.family, self.lam = family, lam

    @cached_property
    def fibers(self) -> list[FiberDescriptor]:
        family, lam, g = self.family, self.lam, self.family.untwisted
        if lam == INFINITY:   # s = 0 of the member's chart at infinity, v(Delta) = 6w - deg Delta
            v = 6 * self.weight - self.delta.degree
            at_lam = classify_at(self.flipped(), Cusp.finite(QQ.zero), v, Cusp.infinity())
            return [f.twisted(-1) for f in family.fixed_fibers if f.cusp.kind != "infinity"] + [at_lam]
        finite = [f.twisted(f.cusp.value - lam) for f in family.fixed_fibers
                  if f.cusp.kind == "finite" and f.cusp.value != lam]
        v = g.delta.valuation_at(lam)
        finite.append(classify_at(self, Cusp.finite(lam), 6 + v) if v else
                      FiberDescriptor(Cusp.finite(lam), "I*", 0, residual_cubic=g.fiber_cubic(lam)))
        finite.sort(key=lambda f: (abs(f.cusp.value), f.cusp.value))
        return finite + [f for f in family.fixed_fibers if f.cusp.kind != "finite"]


# ---------------------------------------------------------------------------
# text serialization (family fixture files)
# ---------------------------------------------------------------------------

def family_from_fields(fields: dict) -> Family:
    pre = lambda key: tuple(int(x) for x in fields[key].split(","))
    return Family(
        name=fields.get("name", "family"),
        A=_parse_bivariate(fields["a"]),
        B=_parse_bivariate(fields["b"]),
        C=_parse_bivariate(fields["c"]),
        pre_a2=pre("pre_a2"),
        pre_a4=pre("pre_a4"),
        pre_a6=pre("pre_a6"),
        mu=parse_rational(fields["mu"]) if "mu" in fields else None,
        splitting=dict(fields.get("splitting", {})),
    )
