import pytest

from k3cm.newforms import (
    INERT,
    RAMIFIED,
    SPLIT,
    NewformOracle,
    exponent_two_table,
    fundamental_discriminant,
)
from oracles import split_primes

# the sixty-five exponent-2 field discriminants, grouped by class number
EXPECTED_TABLE = {
    1: [-3, -4, -7, -8, -11, -19, -43, -67, -163],
    2: [-15, -20, -24, -35, -40, -51, -52, -88, -91, -115, -123, -148, -187,
        -232, -235, -267, -403, -427],
    4: [-84, -120, -132, -168, -195, -228, -280, -312, -340, -372, -408, -435,
        -483, -520, -532, -555, -595, -627, -708, -715, -760, -795, -1012, -1435],
    8: [-420, -660, -840, -1092, -1155, -1320, -1380, -1428, -1540, -1848,
        -1995, -3003, -3315],
    16: [-5460],
}


def test_fundamental_discriminant():
    assert fundamental_discriminant(-88) == -88
    assert fundamental_discriminant(-4 * 43) == -43
    assert fundamental_discriminant(-900) == -4
    assert fundamental_discriminant(-1540) == -1540  # -1540 = 4*(-385), -385 = 3 mod 4


def test_exponent_two_table_is_complete():
    table = exponent_two_table(7000)
    assert {h: sorted(v, key=abs) for h, v in table.items()} == EXPECTED_TABLE
    assert sum(len(v) for v in table.values()) == 65


def test_oracle_rejects_large_exponent():
    with pytest.raises(ValueError):
        NewformOracle(-23)


def test_prime_kinds():
    o = NewformOracle(-88)
    assert o.prime_kind(23) == SPLIT
    assert o.prime_kind(7) == INERT
    assert o.prime_kind(11) == RAMIFIED
    with pytest.raises(ValueError):
        o.prime_kind(2)


def test_eigenvalue_examples():
    # 4*9 = 2^2 + 8*2^2 and the trace of (1+sqrt(-2))^2 is -2
    assert NewformOracle(-8).eigenvalue_abs(3) == {2}
    # -7 is a non-residue mod 3
    assert NewformOracle(-7).eigenvalue_abs(3) == 0
    # 484 = 6^2 + 7*8^2 is the unique admissible solution
    assert NewformOracle(-7).eigenvalue_abs(11) == {6}
    # 4*23^2 = 42^2 + 88*2^2
    assert NewformOracle(-88).eigenvalue_abs(23) == {42}
    assert NewformOracle(-88).eigenvalue_abs(11) == RAMIFIED


def test_non_fundamental_reduces_to_field_disc():
    o = NewformOracle(-900)  # square class of -1
    assert o.field_disc == -4
    # p = 5 = 1^2 + 2^2: traces 2|a^2-b^2| = 6 and 4ab = 8 (unit twists)
    assert o.eigenvalue_abs(5) == {6, 8}


def test_weil_bound_and_square_complement():
    table = exponent_two_table(7000)
    discs = [d for v in table.values() for d in v]
    assert len(discs) == 65
    from k3cm.exact import primes_up_to

    for d in discs:
        o = NewformOracle(d)
        for p in primes_up_to(500):
            if p == 2 or o.prime_kind(p) != SPLIT:
                continue
            vals = o.eigenvalue_abs(p)
            if d not in (-3, -4):
                assert len(vals) == 1, (d, p, vals)
            for t in vals:
                assert t <= 2 * p
                rest = 4 * p * p - t * t
                assert rest % (-d) == 0
                from k3cm.exact import is_square

                assert rest // (-d) > 0 and is_square(rest // (-d))


def test_split_primes_helper():
    o = NewformOracle(-88)
    sp = split_primes(o, 50)
    # (-88|p) = 1 checked by hand via quadratic residues for each entry
    assert sp == [13, 19, 23, 29, 31, 43, 47]
