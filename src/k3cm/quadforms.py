"""Positive definite binary quadratic forms and class-group structure.

A form (a, b, c) stands for the even rank-2 lattice [2a, b, 2c], i.e. the
intersection matrix with diagonal 2a, 2c and off-diagonal b.  Discriminants
are negative: d = b^2 - 4ac < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from k3cm.exact import squarefree_part


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
    return set(_reduced_forms(d))


def _reduced_forms(d: int):
    """The reduced forms of discriminant d, each once, by ascending a."""
    _check_discriminant(d)
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
            yield BinaryQuadraticForm(a, b, c)


def class_number(d: int) -> int:
    return len(enumerate_reduced(d))


def is_exponent_two(d: int, forms: set | None = None) -> bool:
    """True iff every class of discriminant d is ambiguous; stops at the first that is not. `forms`: d's, if known."""
    return all(f.is_ambiguous() for f in (_reduced_forms(d) if forms is None else forms))


def is_fundamental(d: int) -> bool:
    """Fundamental discriminant of an imaginary quadratic field."""
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree_part(d) == d
    m = d // 4
    return squarefree_part(m) == m and m % 4 in (2, 3)
