"""Hecke eigenvalue oracle for weight-3 CM newforms with rational coefficients.

Such a form is pinned down (up to quadratic twist) by an imaginary quadratic
field whose class group has exponent dividing 2.  For a prime p split in the
field, |a_p| is the absolute trace of a generator of the square of a prime
above p; inert primes give a_p = 0 and ramified primes are flagged so the
caller can skip them.  Matching is always done on |a_p|, which is exactly the
twist-invariant content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from k3cm.exact import is_square, kronecker, squarefree_part
from k3cm.quadforms import class_number, is_exponent_two

INERT = "inert"
SPLIT = "split"
RAMIFIED = "ramified"


def fundamental_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for d < 0."""
    if d >= 0:
        raise ValueError("need a negative integer")
    m = squarefree_part(d)
    return m if m % 4 == 1 else 4 * m


@dataclass(frozen=True)
class NewformOracle:
    """Per-prime |a_p| provider, keyed by the field discriminant.

    Takes any negative discriminant; non-fundamental input is reduced to the
    fundamental discriminant of its square class.
    """

    disc: int
    field_disc: int = field(init=False)
    h: int = field(init=False)

    def __post_init__(self):
        d0 = fundamental_discriminant(self.disc)
        object.__setattr__(self, "field_disc", d0)
        object.__setattr__(self, "h", class_number(d0))
        if not is_exponent_two(d0):
            raise ValueError(
                f"class group of {d0} has exponent > 2; no rational-eigenvalue form"
            )

    def prime_kind(self, p: int) -> str:
        if p == 2:
            raise ValueError("p = 2 is excluded by policy")
        sym = kronecker(self.field_disc, p)
        if sym == 0:
            return RAMIFIED
        return SPLIT if sym == 1 else INERT

    def eigenvalue_abs(self, p: int):
        """0 for inert p, RAMIFIED marker, or the set of admissible |a_p|.

        Split case: |t| over solutions of t^2 + |d'| s^2 = 4 p^2 with s != 0
        and the integrality parity t = d' s (mod 2); these are the traces of
        the generators of the square of a prime above p, including all unit
        twists when d' is -3 or -4.
        """
        kind = self.prime_kind(p)
        if kind == INERT:
            return 0
        if kind == RAMIFIED:
            return RAMIFIED
        d = -self.field_disc
        out = set()
        s_max = math.isqrt(4 * p * p // d)
        for s in range(1, s_max + 1):
            t2 = 4 * p * p - d * s * s
            if t2 <= 0 or not is_square(t2):
                continue
            t = math.isqrt(t2)
            if (t - d * s) % 2:
                continue
            out.add(t)
        if not out:
            raise ArithmeticError(f"no norm equation solution at split p={p}, d'={self.field_disc}")
        return out

    def matches(self, p: int, value: int) -> bool:
        """Is |value| an admissible |a_p| at the split prime p?"""
        vals = self.eigenvalue_abs(p)
        if vals == RAMIFIED:
            raise ValueError(f"p={p} ramified; caller must skip")
        if vals == 0:
            return value == 0
        return abs(value) in vals

    def split_primes(self, bound: int) -> list[int]:
        from k3cm.exact import primes_up_to

        return [p for p in primes_up_to(bound) if p != 2 and self.prime_kind(p) == SPLIT]


def exponent_two_table(max_abs: int) -> dict[int, list[int]]:
    """Fundamental discriminants with exponent-2 class group, |d| <= max_abs,
    grouped by class number (ascending |d| within each group)."""
    table: dict[int, list[int]] = {}
    for ad in range(3, max_abs + 1):
        d = -ad
        if d % 4 not in (0, 1):
            continue
        from k3cm.quadforms import is_fundamental

        if not is_fundamental(d):
            continue
        if is_exponent_two(d):
            table.setdefault(class_number(d), []).append(d)
    return table
