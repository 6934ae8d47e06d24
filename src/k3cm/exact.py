"""Exact scalar domains and univariate polynomial arithmetic.

Everything here is integer/fraction based; there is no floating point
anywhere in the package.  Four coefficient domains are supported:

  * QQ        -- arbitrary-precision rationals (fractions.Fraction)
  * GF(p)     -- the prime field, elements stored as ints in [0, p)
  * PadicRing(p, k) -- the ring Z/p^k, used for p-adic approximations
  * QuadField(m) -- Q(sqrt(m)) for a squarefree integer m

Polynomials carry their domain explicitly and refuse to mix domains;
conversion Q -> F_p fails loudly when a denominator is divisible by p.
Over Q a polynomial keeps integer numerators over one common denominator and
builds its Fractions only when read.  `monic_sqrt` is the one square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest


class DomainError(ValueError):
    """Mixed or incompatible scalar domains, or a bad coercion."""


# ---------------------------------------------------------------------------
# integer utilities
# ---------------------------------------------------------------------------

def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    s0, s1, t0, t1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond anything we use."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; none for 0 and +-1."""
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def squarefree_part(n: int) -> int:
    """Squarefree kernel of n (sign preserved); 0 for 0.

    Trial division stops as soon as the part not yet factored is a square.
    """
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n, out, d = abs(n), 1, 2
    if is_square(n):
        return sign
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
            if is_square(n):
                return sign * out
        d += 1 if d == 2 else 2
    return sign * out * n


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def rational_sqrt(q) -> Fraction | None:
    """The non-negative rational square root of q, or None if q has none."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    t = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def crt_combine(residues) -> tuple[int, int]:
    """Combine (value, modulus) pairs; moduli must be pairwise coprime."""
    residues = list(residues)
    if not residues:
        raise ValueError("no residues to combine")
    x, m = residues[0]
    x %= m
    for v, n in residues[1:]:
        g, s, _ = xgcd(m, n)
        if g != 1:
            raise ValueError(f"moduli {m} and {n} are not coprime")
        x = (x + (v - x) * s % n * m) % (m * n)
        m *= n
    return x, m


def rational_reconstruct(residue: int, modulus: int) -> Fraction | None:
    """Recover u/v with u/v = residue (mod modulus), |u|,v <= sqrt(modulus/2).

    Half-extended Euclidean algorithm; returns None when no admissible
    pair exists.
    """
    if not 0 <= residue < modulus:
        raise ValueError("residue out of range")
    if residue == 0:
        return Fraction(0)
    bound_sq = modulus // 2  # accept u^2 <= M/2 and v^2 <= M/2
    r0, r1 = modulus, residue
    t0, t1 = 0, 1
    while r1 * r1 > bound_sq:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or t1 == 0:
        return None
    u, v = r1, t1
    if v < 0:
        u, v = -u, -v
    if v * v > bound_sq or math.gcd(v, modulus) != 1:
        return None
    if (u - v * residue) % modulus != 0:
        return None
    return Fraction(u, v)


# ---------------------------------------------------------------------------
# scalar parsing / formatting (fixture text encodings)
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" in base 10."""
    text = text.strip()
    if "/" in text:
        n, d = text.split("/")
        return Fraction(int(n), int(d))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# quadratic field elements a + b*sqrt(m)
# ---------------------------------------------------------------------------

@cache
def _check_radicand(m: int):
    """Raise unless m is squarefree and != 0, 1; a valid m is factored once."""
    if m in (0, 1) or squarefree_part(m) != m:
        raise DomainError(f"radicand {m} must be squarefree and != 0, 1")


@dataclass(frozen=True)
class QuadNum:
    """Element a + b*sqrt(m) of Q(sqrt(m)); m squarefree, m != 0, 1."""

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        _check_radicand(self.m)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _check(self, other: "QuadNum"):
        if self.m != other.m:
            raise DomainError(f"mixed radicands {self.m} and {other.m}")

    def __add__(self, other):
        self._check(other)
        return _quad(self.a + other.a, self.b + other.b, self.m)

    def __sub__(self, other):
        self._check(other)
        return _quad(self.a - other.a, self.b - other.b, self.m)

    def __neg__(self):
        return _quad(-self.a, -self.b, self.m)

    def __mul__(self, other):
        self._check(other)
        return _quad(
            self.a * other.a + self.m * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.m,
        )

    def conjugate(self):
        return _quad(self.a, -self.b, self.m)

    def norm(self) -> Fraction:
        return self.a * self.a - self.m * self.b * self.b

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of quadratic field")
        return _quad(self.a / n, -self.b / n, self.m)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self):
        sign = "-" if self.b < 0 else "+"
        return f"{format_rational(self.a)}{sign}{format_rational(abs(self.b))}*sqrt({self.m})"


def _quad(a: Fraction, b: Fraction, m: int) -> QuadNum:
    """QuadNum from Fraction parts and a checked radicand, past __post_init__."""
    x = object.__new__(QuadNum)
    x.__dict__.update(a=a, b=b, m=m)
    return x


def parse_quadnum(text: str, m: int) -> QuadNum:
    """Parse "a+b*sqrt(m)" (also bare rationals) into QuadNum over sqrt(m)."""
    text = text.strip().replace(" ", "")
    if "sqrt" not in text:
        return QuadNum(parse_rational(text), Fraction(0), m)
    head, tail = text.split("*sqrt(", 1)
    rad = int(tail.rstrip(")"))
    if rad != m:
        raise DomainError(f"radicand {rad} does not match field sqrt({m})")
    # split head into a and b at the last top-level +/- before the b part
    cut = max(head.rfind("+", 1), head.rfind("-", 1))
    if cut <= 0:
        a_txt, b_txt = "0", head
    else:
        a_txt, b_txt = head[:cut], head[cut:]
    if b_txt in ("", "+"):
        b_txt = "1"
    elif b_txt == "-":
        b_txt = "-1"
    return QuadNum(parse_rational(a_txt), parse_rational(b_txt.lstrip("+")), m)


# ---------------------------------------------------------------------------
# scalar domains
# ---------------------------------------------------------------------------

class Domain:
    """Operations on raw scalar values of one coefficient domain."""

    is_field = True

    def eq(self, x, y) -> bool:
        return x == y

    def is_zero(self, x) -> bool:
        return self.eq(x, self.zero)

    def is_unit(self, x) -> bool:
        return not self.is_zero(x)

    def pow(self, x, n: int):
        out = self.one
        for _ in range(n):
            out = self.mul(out, x)
        return out


@dataclass(frozen=True)
class RationalField(Domain):
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def div(self, x, y):
        if y == 0:
            raise ZeroDivisionError("division by zero in Q")
        return x / y

    def inv(self, x):
        return self.div(self.one, x)

    def from_fraction(self, q: Fraction):
        return Fraction(q)

    def parse(self, text: str):
        return parse_rational(text)

    def format(self, x) -> str:
        return format_rational(x)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class PadicRing(Domain):
    """Z/p^k: truncated p-adic arithmetic at precision k; k = 1 is GF(p)."""

    p: int
    k: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.k < 1:
            raise DomainError("precision must be >= 1")
        object.__setattr__(self, "modulus", self.p ** self.k)

    @property
    def is_field(self) -> bool:
        return self.k == 1

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, x, y):
        return (x + y) % self.modulus

    def sub(self, x, y):
        return (x - y) % self.modulus

    def mul(self, x, y):
        return x * y % self.modulus

    def neg(self, x):
        return -x % self.modulus

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError(f"{x} is not a unit in {self!r}")
        return pow(x, -1, self.modulus)

    def is_unit(self, x) -> bool:
        return x % self.p != 0

    def div(self, x, y):
        return x * self.inv(y) % self.modulus

    def from_fraction(self, q: Fraction):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise DomainError(f"denominator of {q} divisible by p={self.p}")
        return q.numerator * pow(q.denominator, -1, self.modulus) % self.modulus

    def parse(self, text: str):
        return self.from_fraction(parse_rational(text))

    def format(self, x) -> str:
        return str(x % self.modulus)

    def __repr__(self):
        return f"GF({self.p})" if self.k == 1 else f"Z/{self.p}^{self.k}"


def GF(p: int) -> PadicRing:
    """The prime field F_p, as the ring Z/p^1."""
    return PadicRing(p, 1)


@dataclass(frozen=True)
class QuadField(Domain):
    m: int
    is_field = True

    def __post_init__(self):
        _check_radicand(self.m)
        object.__setattr__(self, "zero", _quad(Fraction(0), Fraction(0), self.m))
        object.__setattr__(self, "one", _quad(Fraction(1), Fraction(0), self.m))

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        return x.inverse()

    def div(self, x, y):
        return x * y.inverse()

    def is_zero(self, x):
        return x.is_zero()

    def from_fraction(self, q: Fraction):
        return _quad(Fraction(q), Fraction(0), self.m)

    def parse(self, text: str):
        return parse_quadnum(text, self.m)

    def format(self, x) -> str:
        return str(x)

    def __repr__(self):
        return f"Q(sqrt({self.m}))"


def row_reduce(domain: Domain, rows, ncols: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination on the first ncols columns over a domain.

    Columns past ncols (right-hand sides) are carried along.  The pivot of a
    column is the first remaining row whose entry is a unit of the domain; a
    column without one is skipped.  Returns (rows, pivot columns): row i of
    the result has a 1 in pivot column i and zeros elsewhere in that column,
    and the rows past the pivots are zero in the first ncols columns when
    the domain is a field.
    """
    a = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if domain.is_unit(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = domain.inv(a[r][c])
        a[r] = [domain.mul(x, inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and not domain.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [domain.sub(x, domain.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Immutable dense polynomial over an explicit domain.

    Coefficients are stored ascending with no trailing zeros; the zero
    polynomial has an empty coefficient tuple and degree -1.  Over Q the
    kernels work on `int_coeffs` = (numerators, denominator), canonical
    (denominator > 0, coprime to the content, no trailing zeros); the Fraction
    `coeffs` are built only when read, and either form at most once.  Outside
    Q the kernels read the always-set `_coeffs`.
    """

    __slots__ = ("domain", "degree", "_coeffs", "_ints")

    def __init__(self, domain: Domain, coeffs):
        cs = list(coeffs)
        while cs and domain.is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_coeffs", tuple(cs))
        object.__setattr__(self, "degree", len(cs) - 1)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        try:
            return self._coeffs
        except AttributeError:   # over Q, built from integers
            nums, den = self._ints
            object.__setattr__(self, "_coeffs", tuple([Fraction(c, den) for c in nums]))
            return self._coeffs

    @property
    def int_coeffs(self) -> tuple[list[int], int]:
        try:
            return self._ints
        except AttributeError:   # over Q, built from Fractions
            object.__setattr__(self, "_ints", _integer_coeffs(self._coeffs))
            return self._ints

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(domain: Domain, value) -> "Polynomial":
        return Polynomial(domain, [value])

    @staticmethod
    def x(domain: Domain) -> "Polynomial":
        return Polynomial(domain, [domain.zero, domain.one])

    @staticmethod
    def from_text(domain: Domain, text: str) -> "Polynomial":
        """Parse the ';'-separated ascending coefficient encoding."""
        text = text.strip()
        if not text:
            return Polynomial(domain, [])
        return Polynomial(domain, [domain.parse(c) for c in text.split(";")])

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ";".join(self.domain.format(c) for c in self.coeffs)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.degree < 0

    def __getitem__(self, i: int):
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return self.domain.zero

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        if isinstance(self.domain, RationalField):
            return Fraction(self.int_coeffs[0][-1], self.int_coeffs[1])
        return self._coeffs[-1]

    def _check(self, other: "Polynomial"):
        if self.domain is not other.domain and self.domain != other.domain:
            raise DomainError(f"mixed domains {self.domain!r} and {other.domain!r}")

    def __eq__(self, other):
        if not isinstance(other, Polynomial) or self.domain != other.domain:
            return False
        if isinstance(self.domain, RationalField):
            return self.int_coeffs == other.int_coeffs
        return self._coeffs == other._coeffs

    def __hash__(self):
        if isinstance(self.domain, RationalField):
            return hash((self.domain, tuple(self.int_coeffs[0]), self.int_coeffs[1]))
        return hash((self.domain, self._coeffs))

    def __repr__(self):
        return f"Polynomial({self.domain!r}, {self.to_text()!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        self._check(other)
        d = self.domain
        if isinstance(d, RationalField):
            (a, da), (b, db) = self.int_coeffs, other.int_coeffs
            den = math.lcm(da, db)
            sa, sb = den // da, sign * (den // db)
            return _from_ints([x * sa + y * sb for x, y in zip_longest(a, b, fillvalue=0)], den)
        op = d.add if sign > 0 else d.sub
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=d.zero)
        return Polynomial(d, [op(x, y) for x, y in pairs])

    def __neg__(self):
        return self.scale(self.domain.neg(self.domain.one))

    def __mul__(self, other):
        self._check(other)
        d = self.domain
        if self.is_zero() or other.is_zero():
            return Polynomial(d, [])
        n = self.degree + other.degree + 1
        if isinstance(d, RationalField):
            (a, da), (b, db) = self.int_coeffs, other.int_coeffs
            return _from_ints(_int_convolve(a, b, n), da * db)
        return Polynomial(d, _convolve(d, self._coeffs, other._coeffs, n))

    def scale(self, c) -> "Polynomial":
        if isinstance(self.domain, RationalField):
            (cn, cd), (nums, den) = c.as_integer_ratio(), self.int_coeffs
            return _from_ints([x * cn for x in nums], den * cd)
        return Polynomial(self.domain, _convolve(self.domain, [c], self._coeffs, self.degree + 1))

    def __pow__(self, n: int):
        out = Polynomial.constant(self.domain, self.domain.one)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divrem(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(q, r) with self = q * other + r and deg r < deg other.

        Over Q this is integer pseudo-division of the numerators over their
        common denominators, lc^e * S = Q * O + R, scaled back at the end.
        Over Q(sqrt m) the divisor's (rational, sqrt(m)) numerator pairs are
        first multiplied by the conjugate of their lead, whose lead is then
        the integer norm; the pairs are pseudo-divided by that, and the
        quotient is multiplied back by the conjugate.  The quotient and
        remainder are unique, so they are the same as by long division.
        """
        self._check(other)
        d = self.domain
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if isinstance(d, RationalField):
            (sn, ds), (on, do) = self.int_coeffs, other.int_coeffs
            quot, rem, mult = _pseudo_divrem(sn, on)
            den = mult * ds
            return _from_ints([q * do for q in quot], den), _from_ints(rem, den)
        if isinstance(d, QuadField):
            m = d.m
            (sa, sb), ds = _pair_coeffs(self._coeffs, m)
            (oa, ob), do = _pair_coeffs(other._coeffs, m)
            la, lb = oa[-1], ob[-1]
            qa, qb, ra, rb, mult = _pair_pseudo_divrem(sa, sb, *_pair_scale(oa, ob, la, -lb, m), m)
            den = mult * ds
            return (Polynomial(d, _quads(*_pair_scale(qa, qb, la * do, -lb * do, m), den, m)),
                    Polynomial(d, _quads(ra, rb, den, m)))
        lead_inv = d.inv(other.leading())
        rem, div = list(self._coeffs), other._coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return Polynomial(d, []), self
        quot = [d.zero] * (dq + 1)
        for i in range(dq, -1, -1):
            c = d.mul(rem[len(div) + i - 1], lead_inv)
            quot[i] = c
            if d.is_zero(c):
                continue
            for j, b in enumerate(div):
                rem[i + j] = d.sub(rem[i + j], d.mul(c, b))
        return Polynomial(d, quot), Polynomial(d, rem[: len(div) - 1])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.domain.inv(self.leading()))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd over a field of coefficients.

        Over Q, a primitive remainder sequence on the integer numerators
        (each pseudo-remainder divided by its content), made monic at the
        end.  Over Q(sqrt m) the same on (rational, sqrt(m)) numerator
        pairs, each remainder first multiplied by the conjugate of its lead
        so that the lead is an integer (`_pair_primitive`).  Elsewhere the
        Euclidean sequence of monic remainders.
        """
        self._check(other)
        d = self.domain
        if not d.is_field:
            raise DomainError("gcd requires a field of coefficients")
        if isinstance(d, RationalField):
            a, b = (_primitive(f.int_coeffs[0]) for f in (self, other))
            while b:
                a, b = b, _primitive(_pseudo_divrem(a, b)[1])
            return _from_ints(a, a[-1] if a else 1)
        if isinstance(d, QuadField):
            m = d.m
            a, b = (_pair_primitive(*_pair_coeffs(f._coeffs, m)[0], m) for f in (self, other))
            while b[0]:
                a, b = b, _pair_primitive(*_pair_pseudo_divrem(*a, *b, m)[2:4], m)
            return Polynomial(d, _quads(*a, a[0][-1], m) if a[0] else [])
        a, b = self.monic(), other.monic()
        while not b.is_zero():
            a, b = b, (a % b).monic()
        return a

    def derivative(self) -> "Polynomial":
        d = self.domain
        if isinstance(d, RationalField):
            nums, den = self.int_coeffs
            return _from_ints([i * c for i, c in enumerate(nums)][1:], den)
        return Polynomial(d, [d.mul(d.from_fraction(Fraction(i)), c)
                              for i, c in enumerate(self._coeffs[1:], 1)])

    def __call__(self, point):
        d = self.domain
        if isinstance(d, RationalField):
            (a, b), (nums, den) = point.as_integer_ratio(), self.int_coeffs
            acc, bpow = 0, 1
            for c in reversed(nums):   # sum of nums_i a^i b^(deg - i); bpow ends at b^(deg + 1)
                acc, bpow = acc * a + c * bpow, bpow * b
            return Fraction(acc * b, bpow * den)
        acc = d.zero
        for c in reversed(self._coeffs):
            acc = d.add(d.mul(acc, point), c)
        return acc

    # -- valuations ----------------------------------------------------------

    def valuation_at(self, point) -> int:
        """Largest k with (t - point)^k dividing self; self must be nonzero."""
        return self._divide_out(point)[0]

    def order_at(self, point) -> tuple:
        """(k, c) with self = (t - point)^k (c + O(t - point)), c != 0: the
        valuation and the first non-zero Taylor coefficient at the point."""
        k, g = self._divide_out(point)
        return k, g(point)

    def _divide_out(self, point) -> tuple:
        """(k, g) with self = (t - point)^k g, g(point) != 0; self must be nonzero.

        Over Q the integer numerators are divided by the primitive b t - a,
        where point = a/b; by Gauss's lemma an exact quotient is integral.
        """
        if self.is_zero():
            raise ValueError("valuation of zero polynomial")
        d = self.domain
        if isinstance(d, RationalField):
            (a, b), (cs, den), k = point.as_integer_ratio(), self.int_coeffs, 0
            while (quot := _linear_quotient(cs, a, b)) is not None:
                cs, k = quot, k + 1
            return k, _from_ints([c * b ** k for c in cs], den) if k else self
        lin = Polynomial(d, [d.neg(point), d.one])
        k, f = 0, self
        while True:
            q, r = f.divrem(lin)
            if not r.is_zero():
                return k, f
            k, f = k + 1, q

    def reverse(self, deg_bound: int) -> "Polynomial":
        """Coefficient reversal t^deg_bound * f(1/t); needs deg <= deg_bound."""
        if self.degree > deg_bound:
            raise ValueError("degree exceeds bound in reversal")
        d, pad = self.domain, deg_bound - self.degree
        if isinstance(d, RationalField):
            return _from_ints([0] * pad + self.int_coeffs[0][::-1], self.int_coeffs[1])
        return Polynomial(d, [d.zero] * pad + list(self._coeffs[::-1]))

    def shift(self, point) -> "Polynomial":
        """Taylor shift: returns g with g(t) = f(t + point).

        Over Q, at point = a/b: b^n f(t + a/b) = h(b t), h(s) = sum nums_i b^(n-i) (s + a)^i,
        an integer Taylor shift by a of the scaled numerators.
        """
        d = self.domain
        if isinstance(d, RationalField) and self.degree > 0:
            (a, b), (nums, den), n = point.as_integer_ratio(), self.int_coeffs, self.degree
            cs = [c * b ** (n - i) for i, c in enumerate(nums)]
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    cs[j] += a * cs[j + 1]
            return _from_ints([c * b ** j for j, c in enumerate(cs)], den * b ** n)
        lin, out = Polynomial(d, [point, d.one]), Polynomial(d, [])
        for c in reversed(self.coeffs):
            out = out * lin + Polynomial.constant(d, c)
        return out

    def map_domain(self, target: Domain) -> "Polynomial":
        """Convert Q -> target (or Q(sqrt m) -> itself); fails loudly."""
        if self.domain == target:
            return self
        if isinstance(self.domain, RationalField):
            if isinstance(target, PadicRing):   # one inverse of the common denominator
                nums, den = self.int_coeffs
                inv = target.from_fraction(Fraction(1, den))
                return Polynomial(target, [c * inv % target.modulus for c in nums])
            return Polynomial(target, [target.from_fraction(c) for c in self.coeffs])
        if isinstance(self.domain, QuadField) and isinstance(target, QuadField):
            raise DomainError("mixed radicands are rejected")
        raise DomainError(f"no conversion {self.domain!r} -> {target!r}")


def _from_ints(nums: list[int], den: int = 1) -> Polynomial:
    """sum nums[i] t^i / den over Q, den != 0, made canonical; keeps (does not copy) nums."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    f = object.__new__(Polynomial)
    object.__setattr__(f, "domain", QQ)
    object.__setattr__(f, "_ints", (nums, den))
    object.__setattr__(f, "degree", len(nums) - 1)
    return f


def _linear_quotient(cs: list[int], a: int, b: int) -> list[int] | None:
    """The integer quotient of cs by b t - a, b > 0, or None when it does not divide."""
    quot, q = [], 0
    for c in reversed(cs[1:]):   # synthetic division, top down
        q, r = divmod(c + a * q, b)
        if r:
            return None
        quot.append(q)
    return None if cs[0] + a * q else quot[::-1]


def monic_sqrt(f: Polynomial) -> Polynomial | None:
    """The (unique) monic square root of a monic polynomial, or None, in every domain.

    For deg f = 2n, w_i follows from the top down: the t^(i+n) coefficient of
    w^2 is 2 w_i + sum_{i<j<n} w_j w_(i+n-j); the result is checked by squaring.
    Over Q on the numerators of f = F / E^2, since E w is integral (Gauss's
    lemma), so each step is an exact division by 2E; over Z/p^k on plain ints.
    """
    if f.degree % 2:
        return None
    d, n = f.domain, f.degree // 2
    over_q = isinstance(d, RationalField)
    if over_q:
        (cs, den), e = f.int_coeffs, math.isqrt(f.int_coeffs[1])
        if e * e != den:
            return None
    else:
        cs, e, inv2 = f._coeffs, d.one, d.inv(d.add(d.one, d.one))
    out = [e] * (n + 1)   # entries below the top are overwritten, top down
    for i in range(n - 1, -1, -1):
        acc = cs[i + n]
        for j in range(i + 1, n):
            acc = acc - out[j] * out[i + n - j]
        if over_q:
            out[i], r = divmod(acc, 2 * e)
            if r:
                return None
        else:
            out[i] = d.mul(acc, inv2)
    w = _from_ints(out, e) if over_q else Polynomial(d, out)
    return w if w * w == f else None


def _integer_coeffs(coeffs) -> tuple[list[int], int]:
    """(numerators, common denominator) of rational coefficients."""
    # a list, not a generator: unpacking a generator here cost certify ~1 MB of peak RSS
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(cs: list[int]) -> list[int]:
    """Integer coefficients without trailing zeros, divided by their content."""
    while cs and not cs[-1]:
        cs = cs[:-1]
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _pseudo_divrem(sn: list[int], on: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, mult) with mult * S = q * O + r and deg r < deg O, all integral.

    Each step scales by lc(O)/gcd(lc(O), c) only, not by lc(O), so mult
    divides lc(O)^(deg S - deg O + 1).  O must have a non-zero leading entry.
    """
    lc, k = on[-1], len(on)
    rem, quot, mult = list(sn), [0] * max(len(sn) - k + 1, 0), 1
    for i in range(len(sn) - k, -1, -1):
        c = rem.pop()
        if c:
            g = math.gcd(c, lc)
            s, c = lc // g, c // g
            if s != 1:
                rem, quot, mult = [s * r for r in rem], [s * q for q in quot], mult * s
            quot[i] = c
            for j in range(k - 1):
                rem[i + j] -= c * on[j]
    return quot, rem, mult


def _pair_pseudo_divrem(sa, sb, oa, ob, m: int):
    """(qa, qb, ra, rb, mult): `_pseudo_divrem` on (rational, sqrt(m)) numerator
    pairs, mult * S = Q * O + R; O's lead must be an integer, ob[-1] = 0."""
    lc, k = oa[-1], len(oa)
    ra, rb, mult = list(sa), list(sb), 1
    qa, qb = [0] * max(len(sa) - k + 1, 0), [0] * max(len(sa) - k + 1, 0)
    for i in range(len(sa) - k, -1, -1):
        ca, cb = ra.pop(), rb.pop()
        if ca or cb:
            g = math.gcd(ca, cb, lc)
            s, ca, cb = lc // g, ca // g, cb // g
            if s != 1:
                ra, rb = [s * r for r in ra], [s * r for r in rb]
                qa, qb, mult = [s * q for q in qa], [s * q for q in qb], mult * s
            qa[i], qb[i] = ca, cb
            for j in range(k - 1):
                ra[i + j] -= ca * oa[j] + m * cb * ob[j]
                rb[i + j] -= ca * ob[j] + cb * oa[j]
    return qa, qb, ra, rb, mult


def _pair_scale(xa, xb, ca: int, cb: int, m: int):
    """The numerator pairs of (xa + xb sqrt(m)) * (ca + cb sqrt(m)), entrywise."""
    return [a * ca + m * b * cb for a, b in zip(xa, xb)], [a * cb + b * ca for a, b in zip(xa, xb)]


def _pair_primitive(xa, xb, m: int):
    """Numerator pairs without trailing zeros, times the conjugate of their
    lead (so the lead is an integer), divided by the content of both parts."""
    while xa and not (xa[-1] or xb[-1]):
        xa, xb = xa[:-1], xb[:-1]
    if not xa:
        return xa, xb
    xa, xb = _pair_scale(xa, xb, xa[-1], -xb[-1], m)
    g = math.gcd(*xa, *xb)
    return [c // g for c in xa], [c // g for c in xb]


def _quads(xa, xb, den: int, m: int) -> list:
    """QuadNums (a + b sqrt(m)) / den from numerator pairs, each built once."""
    return [_quad(Fraction(a, den), Fraction(b, den), m) for a, b in zip(xa, xb)]


def _convolve(domain: Domain, xs, ys, n: int) -> list:
    """The first n coefficients of the product of coefficient lists xs and ys.

    Multiplies `Series` (products, `scale`, `inverse`) and, outside Q,
    `Polynomial` products and `scale`.  Over Q the integer numerators are
    convolved over one common denominator; over Z/p^k (GF(p) included) plain
    ints, reduced mod p^k once per output coefficient; over Q(sqrt m) the
    (rational part, sqrt(m) part) numerator pairs over one common denominator.
    Each output scalar is built once.  Short lists are read as padded with zeros.
    """
    xs, ys = xs[:n], ys[:n]
    if isinstance(domain, RationalField):
        (a, da), (b, db) = _integer_coeffs(xs), _integer_coeffs(ys)
        den = da * db
        return [Fraction(c, den) for c in _int_convolve(a, b, n)]
    if isinstance(domain, PadicRing):
        mod = domain.modulus
        return [c % mod for c in _int_convolve(xs, ys, n)]
    m = domain.m
    (xa, xb), dx = _pair_coeffs(xs, m)
    (ya, yb), dy = _pair_coeffs(ys, m)
    rat = [u + m * v for u, v in zip(_int_convolve(xa, ya, n), _int_convolve(xb, yb, n))]
    irr = [u + v for u, v in zip(_int_convolve(xa, yb, n), _int_convolve(xb, ya, n))]
    return _quads(rat, irr, dx * dy, m)


def _pair_coeffs(xs, m: int) -> tuple[tuple[list[int], list[int]], int]:
    """((rational numerators, sqrt(m) numerators), common denominator) of QuadNums."""
    for z in xs:
        if z.m != m:
            raise DomainError(f"mixed radicands {z.m} and {m}")
    a, den = _integer_coeffs([z.a for z in xs] + [z.b for z in xs])
    return (a[: len(xs)], a[len(xs):]), den


def _int_convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the integer product a * b."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i], i):
                out[j] += x * y
    return out


def roots_mod_p(f: Polynomial) -> set[int]:
    """All roots of f over F_p by exhaustive evaluation."""
    if not (isinstance(f.domain, PadicRing) and f.domain.is_field):
        raise DomainError("roots_mod_p needs a polynomial over GF(p)")
    if f.is_zero():
        raise ValueError("zero polynomial mod p")
    p, acc = f.domain.p, [0] * f.domain.p
    for c in reversed(f.coeffs):  # Horner at every residue at once, on plain ints
        acc = [(a * x + c) % p for x, a in enumerate(acc)]
    return {x for x, a in enumerate(acc) if not a}


def resultant(f: Polynomial, g: Polynomial):
    """Resultant over a field via the Euclidean remainder sequence."""
    f._check(g)
    d = f.domain
    if f.is_zero() or g.is_zero():
        return d.zero
    res = d.one
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return d.zero
        res = d.mul(res, d.pow(b.leading(), a.degree - r.degree))
        if (a.degree * b.degree) % 2:
            res = d.neg(res)
        a, b = b, r
    # b is a nonzero constant
    res = d.mul(res, d.pow(b.leading(), a.degree))
    return res


# ---------------------------------------------------------------------------
# rational functions over a field
# ---------------------------------------------------------------------------

class RationalFunction:
    """num/den with monic denominator and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        d = num.domain
        if den is None:
            den = Polynomial.constant(d, d.one)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.constant(d, d.one)
        elif den.degree > 0 and (g := num.gcd(den)).degree > 0:
            num, den = num // g, den // g
        if not d.eq(lead := den.leading(), d.one):  # a constant den takes no gcd, 1 no scaling
            inv = d.inv(lead)
            num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @property
    def domain(self):
        return self.num.domain

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            other = RationalFunction(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, Polynomial):
            other = RationalFunction(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __call__(self, point):
        dv = self.den(point)
        if self.domain.is_zero(dv):
            raise ZeroDivisionError("pole of rational function")
        return self.domain.div(self.num(point), dv)

    def valuation_at(self, point) -> int:
        """Order of vanishing at the point (negative at poles)."""
        if self.is_zero():
            raise ValueError("valuation of zero function")
        return self.num.valuation_at(point) - self.den.valuation_at(point)

    def __repr__(self):
        if self.is_polynomial():
            return f"RationalFunction({self.num.to_text()!r})"
        return f"RationalFunction({self.num.to_text()!r} / {self.den.to_text()!r})"

    def to_text(self) -> str:
        if self.is_polynomial():
            return self.num.to_text()
        return f"{self.num.to_text()} / {self.den.to_text()}"


# ---------------------------------------------------------------------------
# truncated power series (for local expansions at a cusp)
# ---------------------------------------------------------------------------

class Series:
    """Truncated power series: coefficients known modulo t^prec."""

    __slots__ = ("domain", "coeffs", "prec")

    def __init__(self, domain: Domain, coeffs, prec: int):
        cs = list(coeffs)[:prec]
        cs += [domain.zero] * (prec - len(cs))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    def __add__(self, other):
        n = min(self.prec, other.prec)
        d = self.domain
        return Series(d, [d.add(self.coeffs[i], other.coeffs[i]) for i in range(n)], n)

    def __sub__(self, other):
        n = min(self.prec, other.prec)
        d = self.domain
        return Series(d, [d.sub(self.coeffs[i], other.coeffs[i]) for i in range(n)], n)

    def __neg__(self):
        return Series(self.domain, [self.domain.neg(c) for c in self.coeffs], self.prec)

    def __mul__(self, other):
        n = min(self.prec, other.prec)
        return Series(self.domain, _convolve(self.domain, self.coeffs, other.coeffs, n), n)

    def scale(self, c):
        return Series(self.domain, _convolve(self.domain, [c], self.coeffs, self.prec), self.prec)

    def inverse(self) -> "Series":
        """Newton doubling g <- g - g (f g - 1) on `_convolve` in every domain,
        so over Q and Q(sqrt m) on integer numerators (pairs).  A zero
        precision or a non-unit constant term raises ZeroDivisionError."""
        d, n = self.domain, self.prec
        if n == 0 or not d.is_unit(self.coeffs[0]):
            raise ZeroDivisionError("series is not a unit")
        g = [d.inv(self.coeffs[0])]
        while len(g) < n:
            k = len(g)
            err = _convolve(d, self.coeffs, g, min(2 * k, n))[k:]
            g += [d.neg(c) for c in _convolve(d, g, err, len(err))]
        return Series(d, g, n)

    def __truediv__(self, other):
        return self * other.inverse()

    def valuation(self) -> int:
        """Order of vanishing; returns prec when zero to working precision."""
        for i, c in enumerate(self.coeffs):
            if not self.domain.is_zero(c):
                return i
        return self.prec

    def __getitem__(self, i):
        return self.coeffs[i] if i < self.prec else self.domain.zero

    def is_zero_to_prec(self) -> bool:
        return all(self.domain.is_zero(c) for c in self.coeffs)

    def __repr__(self):
        return f"Series({[self.domain.format(c) for c in self.coeffs]}, O(t^{self.prec}))"


def poly_series(f: Polynomial, point, prec: int) -> Series:
    """Expansion of f around t = point to the given precision."""
    return Series(f.domain, f.shift(point).coeffs, prec)

