import math
import random

import pytest

from k3cm.quadforms import (
    BinaryQuadraticForm,
    class_number,
    enumerate_reduced,
    is_exponent_two,
    is_fundamental,
    reduce_form,
)
from oracles import compose, form_class_order, principal_form

F = BinaryQuadraticForm


def test_reduce_examples():
    assert reduce_form(F(5, -4, 5)) == F(5, 4, 5)
    assert reduce_form(F(5, -4, 5)).discriminant == -84
    assert reduce_form(F(1, 0, 21)) == F(1, 0, 21)
    # [22,11,34] is already reduced with discriminant -627
    f = F(11, 11, 17)
    assert reduce_form(f) == f and f.discriminant == -627


def test_reduce_rejects_indefinite():
    with pytest.raises(ValueError):
        reduce_form(F(1, 5, 1))


def test_enumerate_minus_84():
    got = enumerate_reduced(-84)
    assert got == {F(1, 0, 21), F(2, 2, 11), F(3, 0, 7), F(5, 4, 5)}
    assert class_number(-84) == 4


def test_enumerate_minus_4_and_5460():
    assert enumerate_reduced(-4) == {F(1, 0, 1)}
    assert class_number(-5460) == 16


def test_exponent_two():
    assert is_exponent_two(-5460)
    assert is_exponent_two(-3)
    assert not is_exponent_two(-23)
    assert enumerate_reduced(-23) == {F(1, 1, 6), F(2, 1, 3), F(2, -1, 3)}


def test_reduction_idempotent_and_sl2_invariant_random():
    rng = random.Random(42)
    count = 0
    while count < 500:
        a = rng.randrange(1, 30)
        b = rng.randrange(-30, 31)
        c = rng.randrange(1, 30)
        f = F(a, b, c)
        if f.discriminant >= 0:
            continue
        count += 1
        r = reduce_form(f)
        assert reduce_form(r) == r
        assert r.discriminant == f.discriminant
        # random small SL2(Z) translate reduces to the same representative
        p, q = 1, 0
        rr, s = rng.randrange(-3, 4), 1
        while p * s - q * rr != 1:
            p, q, rr, s = rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4)
        na = a * p * p + b * p * rr + c * rr * rr
        nb = 2 * a * p * q + b * (p * s + q * rr) + 2 * c * rr * s
        nc = a * q * q + b * q * s + c * s * s
        if na <= 0:
            continue
        assert reduce_form(F(na, nb, nc)) == r


def test_composition_group_law_spot_checks():
    # non-ambiguous class of disc -23 has order 3
    assert form_class_order(F(2, 1, 3)) == 3
    # ambiguous classes square to the principal class
    for d in (-84, -120, -340, -5460):
        for f in enumerate_reduced(d):
            sq = compose(f, f)
            assert sq == reduce_form(principal_form(d))


def test_exponent_two_matches_composition_oracle():
    # independent group-law check of the ambiguity-based predicate
    for d in range(-400, -2, -1):
        if d % 4 not in (0, 1):
            continue
        forms = enumerate_reduced(d)
        by_squares = all(
            compose(f, f) == reduce_form(principal_form(d)) for f in forms
        )
        assert by_squares == is_exponent_two(d)


def test_is_fundamental_matches_trial_division():
    def squarefree(n):
        return all(n % (q * q) for q in range(2, math.isqrt(abs(n)) + 1))

    for d in range(-2000, 1):
        m = d // 4
        expected = (d % 4 == 1 and squarefree(d)) or (d % 4 == 0 and m % 4 in (2, 3) and squarefree(m))
        assert is_fundamental(d) == (d < 0 and expected), d


def test_is_fundamental():
    assert is_fundamental(-4) and is_fundamental(-235) and is_fundamental(-88)
    assert not is_fundamental(-12) and not is_fundamental(-100) and not is_fundamental(-9)
