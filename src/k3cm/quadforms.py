"""Positive definite binary quadratic forms and class-group structure.

A form (a, b, c) stands for the even rank-2 lattice [2a, b, 2c], i.e. the
intersection matrix with diagonal 2a, 2c and off-diagonal b.  Discriminants
are negative: d = b^2 - 4ac < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from k3cm.exact import squarefree_part, xgcd


@dataclass(frozen=True, order=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant < 0

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        if (a == c or a == b) and b < 0:
            return False
        return True

    def is_ambiguous(self) -> bool:
        """b = 0, a = b, or a = c: the classes of order dividing 2."""
        return self.b == 0 or self.a == self.b or self.a == self.c

    def gram(self) -> list[list[int]]:
        return [[2 * self.a, self.b], [self.b, 2 * self.c]]

    def __str__(self):
        return f"[{2 * self.a},{self.b},{2 * self.c}]"


def reduce_form(form: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss reduction to the unique reduced representative of the class."""
    if not form.is_positive_definite():
        raise ValueError(f"form {form} is not positive definite")
    a, b, c = form.a, form.b, form.c
    while True:
        # normalize: bring b into (-a, a]
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        break
    out = BinaryQuadraticForm(a, b, c)
    assert out.is_reduced() and out.discriminant == form.discriminant
    return out


def _check_discriminant(d: int):
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant (need d = 0, 1 mod 4)")


def enumerate_reduced(d: int) -> set[BinaryQuadraticForm]:
    """All reduced forms of discriminant d, one per class."""
    _check_discriminant(d)
    out = set()
    a_max = math.isqrt(-d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if (a == c or a == b) and b < 0:
                continue
            out.add(BinaryQuadraticForm(a, b, c))
    return out


def class_number(d: int) -> int:
    return len(enumerate_reduced(d))


def is_exponent_two(d: int) -> bool:
    """True iff every class of discriminant d is ambiguous."""
    return all(f.is_ambiguous() for f in enumerate_reduced(d))


def is_fundamental(d: int) -> bool:
    """Fundamental discriminant of an imaginary quadratic field."""
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree_part(d) == d
    m = d // 4
    return squarefree_part(m) == m and m % 4 in (2, 3)


def principal_form(d: int) -> BinaryQuadraticForm:
    _check_discriminant(d)
    k = d % 2
    return BinaryQuadraticForm(1, k, (k * k - d) // 4)


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Composition of classes via concordant representatives (reduced output).

    Used as the independent group-law oracle for the exponent-2 tests.
    """
    if f.discriminant != g.discriminant:
        raise ValueError("composition needs equal discriminants")
    return _compose_concordant(f, g)


def _find_represented_coprime(f: BinaryQuadraticForm, m: int) -> tuple[int, int, int]:
    """Find (x, y, value) with value = f(x,y) coprime to m."""
    for x in range(1, 40):
        for y in range(-40, 40):
            val = f.a * x * x + f.b * x * y + f.c * y * y
            if val != 0 and math.gcd(val, m) == 1:
                return x, y, val
    raise ValueError("no coprime represented value found")


def _equivalent_with_leading(f: BinaryQuadraticForm, x: int, y: int) -> BinaryQuadraticForm:
    """SL2(Z)-translate of f whose leading coefficient is f(x, y)."""
    g = math.gcd(x, y) if (x, y) != (0, 0) else 0
    assert g == 1, "primitive representation required"
    g_signed, u, v = xgcd(x, y)
    if g_signed < 0:
        u, v = -u, -v
    # matrix [[x, -v], [y, u]] has det 1
    a, b, c = f.a, f.b, f.c
    p, q, r, s = x, -v, y, u
    na = a * p * p + b * p * r + c * r * r
    nb = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    nc = a * q * q + b * q * s + c * s * s
    out = BinaryQuadraticForm(na, nb, nc)
    assert out.discriminant == f.discriminant
    return out


def _compose_concordant(f: BinaryQuadraticForm, g: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Compose by moving to concordant representatives (a1, b, a2 c')."""
    d = f.discriminant
    # choose a representative of g whose leading coefficient is coprime to a1
    x, y, val = _find_represented_coprime(g, f.a)
    gg = math.gcd(x, y)
    x, y = x // gg, y // gg
    g2 = _equivalent_with_leading(g, x, y)
    a1, a2 = f.a, g2.a
    assert math.gcd(a1, a2) == 1
    # align middle coefficients: find b = f.b mod 2a1, = g2.b mod 2a2
    g_, u, v = xgcd(2 * a1, 2 * a2)
    diff = g2.b - f.b
    assert diff % g_ == 0
    b = (f.b + 2 * a1 * (diff // g_) * u) % (4 * a1 * a2 // g_)
    # (b^2 - d) divisible by 4 a1 a2 for concordant pairs
    assert (b * b - d) % (4 * a1 * a2) == 0
    c = (b * b - d) // (4 * a1 * a2)
    return reduce_form(BinaryQuadraticForm(a1 * a2, b, c))


def form_class_order(f: BinaryQuadraticForm) -> int:
    """Order of the class of f in the class group (by repeated composition)."""
    d = f.discriminant
    one = reduce_form(principal_form(d))
    acc = reduce_form(f)
    n = 1
    while acc != one:
        acc = _compose_concordant(acc, f)
        n += 1
        if n > 10000:
            raise RuntimeError("runaway class order")
    return n
