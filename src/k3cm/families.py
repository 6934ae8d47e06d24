"""One-parameter families of elliptic K3 surfaces with a free parameter.

A family stores three bivariate coefficient blocks A, B, C (polynomials in t
whose coefficients are polynomials in the modulus parameter mu) together
with structural prefactors in t, (t-1) and (t-lambda):

    a2 = t^i2 (t-1)^j2 (t-lambda)^k2 * A
    a4 = t^i4 (t-1)^j4 (t-lambda)^k4 * B
    a6 = t^i6 (t-1)^j6 (t-lambda)^k6 * C

Specialization at rational (lambda, mu) produces a WeierstrassSurface over Q;
lambda = infinity is the x-rescaled limit where the (t-lambda) prefactors
collapse to constants.  A mod-p specialization fast path serves the
point-counting scan; when the (t-lambda) exponents are (1, 2, 3), every
member is the quadratic twist by (t-lambda) of the model assembled with
those exponents set to 0 (`untwisted_mod`), which the scan counts once per
prime.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from k3cm.exact import GF, QQ, Polynomial, parse_rational, prime_divisors, primes_up_to, resultant
from k3cm.surfaces import WeierstrassSurface

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
    cusp_table: dict = field(default_factory=dict)   # label -> cusp value text
    splitting: dict = field(default_factory=dict)    # label -> square-class data
    # p -> counting.TwistTable (or None where it does not apply), filled lazily
    twist_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def digest(self) -> str:
        """A short digest of the coefficient data (A, B, C, prefactors, mu): the count cache's key.

        Families with the same data share counts whatever their names; a
        family file that reuses a name with other data gets keys of its own.
        """
        blocks = "|".join(",".join(c.to_text() for c in block) for block in (self.A, self.B, self.C))
        text = f"{blocks}|{self.pre_a2}{self.pre_a4}{self.pre_a6}|{self.mu}"
        return hashlib.blake2s(text.encode(), digest_size=6).hexdigest()

    # -- construction helpers -------------------------------------------------

    def _assemble(self, block, pre, lam, mu, domain) -> Polynomial:
        """t^i (t-1)^j (t-lambda)^k times the block at mu, over Q or GF(p).

        At lambda = INFINITY (over Q only) the factor (t-lambda)^k is (-1)^k.
        """
        t = Polynomial.x(domain)
        one = Polynomial.constant(domain, domain.one)
        if lam != INFINITY:
            lin = t - Polynomial.constant(domain, domain.from_fraction(Fraction(lam)))
        elif domain == QQ:
            lin = -one
        else:
            raise ValueError(f"the member at lambda = {INFINITY} is defined over Q only")
        i, j, k = pre
        out = Polynomial(domain, [domain.from_fraction(c(mu)) for c in block])
        for factor, e in ((t, i), (t - one, j), (lin, k)):
            for _ in range(e):
                out = out * factor
        return out

    def specialize(self, lam, mu=None, name=None) -> WeierstrassSurface:
        """Member at lambda (a Fraction, or INFINITY for the limit surface)."""
        mu = Fraction(mu) if mu is not None else self.mu
        if mu is None:
            raise ValueError("family has no fixed mu; pass one explicitly")
        if lam != INFINITY:
            lam = Fraction(lam)
        a2, a4, a6 = (self._assemble(block, pre, lam, mu, QQ) for block, pre in self._blocks())
        label = name or f"{self.name}_lam_{lam}"
        return WeierstrassSurface(a2, a4, a6, name=label)

    # -- mod p fast path -------------------------------------------------------

    def specialize_mod(self, p: int, lam: int) -> WeierstrassSurface:
        """Member over GF(p) at lambda in F_p; p must be a good prime."""
        F, mu = self._mod_setup(p)
        a2, a4, a6 = (self._assemble(block, pre, lam, mu, F) for block, pre in self._blocks())
        return WeierstrassSurface(a2, a4, a6, name=f"{self.name}@p{p}l{lam}")

    @property
    def twist_exponents(self) -> tuple:
        """The exponents of (t-lambda) in a2, a4, a6."""
        return (self.pre_a2[2], self.pre_a4[2], self.pre_a6[2])

    def untwisted_mod(self, p: int) -> tuple:
        """(a2', a4', a6') over GF(p): the blocks with the (t-lambda) exponent set to 0.

        With twist exponents (1, 2, 3) the member at lambda is
        (a2, a4, a6) = ((t-lambda) a2', (t-lambda)^2 a4', (t-lambda)^3 a6').
        """
        F, mu = self._mod_setup(p)
        return tuple(self._assemble(block, pre[:2] + (0,), 0, mu, F)
                     for block, pre in self._blocks())

    def _blocks(self):
        return ((self.A, self.pre_a2), (self.B, self.pre_a4), (self.C, self.pre_a6))

    def _mod_setup(self, p: int):
        if p in self.bad_primes(p):
            raise ValueError(f"p = {p} is excluded for family {self.name}")
        if self.mu is None:
            raise ValueError("mod-p specialization needs a fixed mu")
        return GF(p), self.mu

    # -- bad primes ------------------------------------------------------------

    def bad_primes(self, bound: int) -> set[int]:
        """p <= 5, coefficient-denominator primes, and cusp-collision primes.

        Collisions are detected from the squarefree structure of a reference
        member's discriminant: primes dividing pairwise resultants or leading
        coefficients can merge cusps mod p, so the generic fiber table would
        not reduce cleanly.
        """
        if not hasattr(self, "_bad_cache"):
            bad = {2, 3, 5}
            for block in (self.A, self.B, self.C):
                for c in block:
                    bad |= c.content_primes()
            if self.mu is not None:
                bad |= _fraction_primes(self.mu)
            bad |= self._collision_primes()
            self._bad_cache = bad
        return set(self._bad_cache)

    def _collision_primes(self) -> set[int]:
        """Primes where distinct cusps of a reference member collide."""
        from k3cm.surfaces import squarefree_decomposition

        probe = Fraction(7, 13)  # generic reference lambda, off every cusp
        surf = self.specialize(probe)
        _, sq = squarefree_decomposition(surf.delta)
        out: set[int] = set()
        polys = [g for g, _ in sq]
        for g in polys:
            out |= _fraction_primes(Fraction(g.leading()))
            disc = resultant(g, g.derivative())
            if disc != 0:
                out |= _small_prime_divisors(disc)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                r = resultant(polys[i], polys[j])
                out |= _small_prime_divisors(r)
        return out

    def degenerate_lambdas(self, p: int) -> dict[int, str]:
        """lambda in F_p on a fixed finite cusp mod p, mapped to that cusp's label.

        There the moving I0* fiber at t = lambda merges with a fixed fiber, so
        the member leaves the generic configuration.
        """
        out: dict[int, str] = {}
        for label, text in self.cusp_table.items():
            if text in ("lambda", INFINITY):
                continue
            q = parse_rational(text)
            if q.denominator % p:
                out.setdefault(q.numerator * pow(q.denominator, -1, p) % p, label)
        return out

    def good_primes(self, bound: int) -> list[int]:
        bad = self.bad_primes(bound)
        return [p for p in primes_up_to(bound) if p not in bad]


def _fraction_primes(q: Fraction) -> set[int]:
    return set(prime_divisors(q.numerator * q.denominator))


def _small_prime_divisors(q, bound: int = 500) -> set[int]:
    """Prime divisors up to the bound of a rational's numerator/denominator.

    Cusp-collision resultants can be astronomically large; only primes below
    the scan bound matter for the counting searches.
    """
    q = Fraction(q)
    out = set()
    for n in (abs(q.numerator), abs(q.denominator)):
        for p in primes_up_to(bound):
            if n % p == 0:
                out.add(p)
    return out


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
        cusp_table=dict(fields.get("cusps", {})),
        splitting=dict(fields.get("splitting", {})),
    )
