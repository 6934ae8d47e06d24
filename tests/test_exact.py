import math
import random
from fractions import Fraction

import pytest

from k3cm.exact import (
    GF,
    QQ,
    DomainError,
    PadicRing,
    Polynomial,
    QuadField,
    QuadNum,
    RationalFunction,
    _convolve,
    _pair_coeffs,
    _pair_primitive,
    crt_combine,
    is_prime,
    kronecker,
    parse_quadnum,
    parse_rational,
    prime_divisors,
    rational_reconstruct,
    resultant,
    row_reduce,
    is_square,
    monic_sqrt,
    rational_sqrt,
    roots_mod_p,
    squarefree_part,
)

from oracles import (
    Series,
    frac_add,
    frac_derivative,
    frac_divrem,
    frac_eval,
    frac_gcd,
    frac_monic,
    frac_mul,
    frac_order_at,
    frac_reverse,
    frac_shift,
    frac_trim,
    from_fractions,
    poly_series,
    ratfun_series,
    reference_square_cofactor,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:   # the seeded tests run the same checks
    st = None


def P(domain, *coeffs):
    return from_fractions(domain, coeffs)


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------

def test_poly_mul_and_divrem():
    t_minus = P(QQ, -1, 1)
    t_plus = P(QQ, 1, 1)
    assert t_minus * t_plus == P(QQ, -1, 0, 1)
    q, r = P(QQ, 0, 0, 0, 1).divrem(P(QQ, 0, 0, 1))
    assert q == P(QQ, 0, 1) and r.is_zero()


def test_poly_gcd_monic():
    f = P(QQ, -1, 0, 1)     # t^2 - 1
    g = P(QQ, -1, 1)        # t - 1
    assert f.gcd(g) == g
    # gcd is monic even when inputs are scaled
    assert f.scale(Fraction(7)).gcd(g.scale(Fraction(-3, 5))) == g


def test_poly_domain_mixing_rejected():
    with pytest.raises(DomainError):
        P(QQ, 1, 1) + P(GF(7), 1, 1)


def test_poly_mod_p_conversion_fails_loudly():
    f = P(QQ, Fraction(1, 7), 1)
    with pytest.raises(DomainError):
        f.map_domain(GF(7))
    assert f.map_domain(GF(5)) == Polynomial(GF(5), [3, 1])


def test_ring_axioms_randomized():
    rng = random.Random(7)
    F = GF(101)
    for _ in range(60):
        f, g, h = (
            Polynomial(F, [rng.randrange(101) for _ in range(rng.randrange(1, 6))])
            for _ in range(3)
        )
        assert (f + g) * h == f * h + g * h
    for _ in range(30):
        f, g, h = (
            P(QQ, *[Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(4)])
            for _ in range(3)
        )
        assert (f + g) * h == f * h + g * h


def test_divrem_roundtrip_random():
    rng = random.Random(11)
    F = GF(13)
    for _ in range(60):
        f = Polynomial(F, [rng.randrange(13) for _ in range(rng.randrange(1, 8))])
        g = Polynomial(F, [rng.randrange(13) for _ in range(rng.randrange(1, 5))])
        if g.is_zero():
            continue
        q, r = f.divrem(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def test_valuation_at():
    f = P(QQ, 0, 0, 1) * P(QQ, -1, 1)   # t^2 (t - 1)
    assert f.valuation_at(Fraction(0)) == 2
    assert f.valuation_at(Fraction(1)) == 1
    assert P(QQ, 5).valuation_at(Fraction(0)) == 0
    g = P(QQ, Fraction(-5, 32), 1) ** 3 * P(QQ, Fraction(1, 3), 7) * P(QQ, 0, Fraction(2, 9))
    assert g.valuation_at(Fraction(5, 32)) == 3
    assert g.valuation_at(Fraction(-1, 21)) == 1
    assert g.valuation_at(0) == 1 and g.valuation_at(Fraction(5, 16)) == 0
    with pytest.raises(ValueError):
        Polynomial(QQ, []).valuation_at(Fraction(0))


def test_valuation_additive_random():
    rng = random.Random(3)
    for _ in range(40):
        f = P(QQ, *[rng.randrange(-4, 5) for _ in range(4)])
        g = P(QQ, *[rng.randrange(-4, 5) for _ in range(4)])
        if f.is_zero() or g.is_zero():
            continue
        pt = Fraction(rng.randrange(-2, 3))
        assert (f * g).valuation_at(pt) == f.valuation_at(pt) + g.valuation_at(pt)


def test_order_at_matches_taylor_shift():
    # (k, c) is the first non-zero coefficient of f(t + point), over Q, Q(sqrt m) and GF(p)
    rng = random.Random(29)
    K, F = QuadField(-7), GF(13)
    for d, pt in ((QQ, Fraction(-3, 4)), (QQ, Fraction(5)), (K, QuadNum(1, Fraction(1, 2), -7)), (F, 4)):
        lin = Polynomial(d, [d.neg(pt), d.one])
        for _ in range(25):
            f = Polynomial(d, random_coeffs(rng, d, top=5))
            if f.is_zero():
                continue
            f = f * lin ** rng.randrange(4)
            shifted = f.shift(pt).coeffs
            k = next(i for i, c in enumerate(shifted) if not d.is_zero(c))
            assert f.order_at(pt) == (k, shifted[k]) and f.valuation_at(pt) == k, (d, f)


# ---------------------------------------------------------------------------
# roots mod p
# ---------------------------------------------------------------------------

def test_roots_mod_p():
    F7 = GF(7)
    assert roots_mod_p(Polynomial(F7, [6, 0, 1])) == {1, 6}       # t^2 - 1
    assert roots_mod_p(Polynomial(F7, [1, 0, 1])) == set()        # t^2 + 1
    F5 = GF(5)
    assert roots_mod_p(Polynomial(F5, [0, 4, 0, 1])) == {0, 1, 4}  # t^3 - t


def test_roots_mod_p_match_evaluation_at_every_residue():
    rng = random.Random(20261018)
    for p in (2, 3, 101, 2999):
        F = GF(p)
        for _ in range(12):
            f = Polynomial(F, [rng.randrange(p) for _ in range(rng.randint(1, 9))])
            if f.is_zero():
                continue
            assert roots_mod_p(f) == {x for x in range(p) if f(x) == 0}, (p, f.coeffs)
        roots = set(rng.sample(range(p), min(p, 3)))   # a product of linear factors
        f = Polynomial(F, [1])
        for r in roots:
            f = f * Polynomial(F, [-r % p, 1])
        assert roots_mod_p(f) == roots
    with pytest.raises(ValueError):
        roots_mod_p(Polynomial(GF(101), []))


# ---------------------------------------------------------------------------
# CRT and rational reconstruction
# ---------------------------------------------------------------------------

def test_crt_basic():
    assert crt_combine([(1, 3), (2, 5)]) == (7, 15)
    assert crt_combine([(0, 11)]) == (0, 11)
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 4)])


def test_crt_five_over_thirtytwo():
    # residues of 5/32 modulo 101 and 103, forward-computed independently
    r1 = 5 * pow(32, -1, 101) % 101
    r2 = 5 * pow(32, -1, 103) % 103
    assert (r1, r2) == (98, 42)
    v, m = crt_combine([(r1, 101), (r2, 103)])
    assert m == 10403
    assert v % 101 == r1 and v % 103 == r2


def test_crt_then_reduce_is_identity_random():
    rng = random.Random(5)
    moduli = [7, 11, 13, 17]
    for _ in range(50):
        pairs = [(rng.randrange(m), m) for m in moduli]
        v, m = crt_combine(pairs)
        assert m == 7 * 11 * 13 * 17
        for r, mod in pairs:
            assert v % mod == r


def test_rational_reconstruct_examples():
    r = 5 * pow(32, -1, 10403) % 10403
    assert rational_reconstruct(r, 10403) == Fraction(5, 32)
    assert rational_reconstruct(2, 10**6) == Fraction(2)


def test_rational_reconstruct_roundtrip_random():
    rng = random.Random(17)
    for _ in range(500):
        u = rng.randrange(-400, 401)
        v = rng.randrange(1, 400)
        M = rng.randrange(2 * max(u * u, v * v) + 1, 10**7)
        from math import gcd

        if gcd(v, M) != 1:
            continue
        res = u * pow(v, -1, M) % M
        assert rational_reconstruct(res, M) == Fraction(u, v)


def test_rational_reconstruct_failure():
    # 1/2 mod an even-incompatible modulus has no small representative
    assert rational_reconstruct(661, 1322) is None


# ---------------------------------------------------------------------------
# quadratic field scalars
# ---------------------------------------------------------------------------

def test_quadnum_arith():
    K = QuadField(23)
    x = QuadNum(Fraction(6), Fraction(-1), 23)
    assert x * x.conjugate() == K.from_fraction(x.norm())
    assert x.norm() == 13
    assert (x * x.inverse()) == K.one


def test_quadnum_mixed_radicands_rejected():
    with pytest.raises(DomainError):
        QuadNum(1, 1, 23) + QuadNum(1, 1, 15)
    with pytest.raises(DomainError):
        QuadField(12)   # not squarefree


def reference_squarefree_part(n: int) -> int:
    """Squarefree kernel by trial division all the way to sqrt(|n|)."""
    if n == 0:
        return 0
    sign, n, out, d = (-1 if n < 0 else 1), abs(n), 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def test_squarefree_part_matches_trial_division():
    rng = random.Random(23)
    values = list(range(-3000, 3001))
    values += [rng.choice((1, -1)) * rng.getrandbits(40) for _ in range(100)]
    for n in values:
        assert squarefree_part(n) == reference_squarefree_part(n), n
    # k * q^2 with a prime q > 10^6: the square cofactor is never trial-divided
    for q in (1000003, 4546849):
        assert is_prime(q)
        for k in range(-60, 61):
            assert squarefree_part(k * q * q) == reference_squarefree_part(k), (k, q)


def test_prime_divisors_match_trial_by_primes():
    for n in range(-1000, 1001):
        assert prime_divisors(n) == [q for q in range(2, abs(n) + 1) if n % q == 0 and is_prime(q)], n
    assert prime_divisors(2**10 * 3 * 1000003**2) == [2, 3, 1000003]


def test_invalid_radicands_raise_after_valid_ones_are_cached():
    for m in (23, -1, 21, 5):
        QuadField(m)
        QuadNum(1, 1, m)
    for _ in range(2):
        for make in (lambda m: QuadNum(1, 1, m), QuadField):
            for m in (4, 12, 0, 1, -8):
                with pytest.raises(DomainError):
                    make(m)


def test_rational_field_constants():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert QQ.zero == 0 and QQ.one == 1 and isinstance(QQ.zero, Fraction)
    assert QQ.is_zero(0) and QQ.is_zero(Fraction(0, 7)) and not QQ.is_zero(Fraction(1, 3))


def test_quadnum_parse():
    x = parse_quadnum("6-1*sqrt(23)", 23)
    assert x == QuadNum(Fraction(6), Fraction(-1), 23)
    assert parse_quadnum("-3/2", 23) == QuadNum(Fraction(-3, 2), Fraction(0), 23)
    assert str(parse_quadnum("1/3+2*sqrt(5)", 5)) == "1/3+2*sqrt(5)"


def test_quadnum_format_parse_roundtrip():
    # negative, zero and fractional parts, alone and as polynomial coefficients
    rng = random.Random(14)
    for m in (21, -7, 2, -1):
        K = QuadField(m)
        parts = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(40)]
        parts += [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-5, 3)]
        xs = [QuadNum(a, b, m) for a in parts[:12] for b in parts[-16:]]
        xs += [QuadNum(parts[i], parts[i + 1], m) for i in range(0, 40, 2)]
        for x in xs:
            assert K.parse(K.format(x)) == x, K.format(x)
        f = Polynomial(K, xs[:9])
        assert Polynomial.from_text(K, f.to_text()) == f
    assert str(QuadNum(1, -2, 21)) == "1-2*sqrt(21)"


def test_quad_polynomials():
    K = QuadField(5)
    f = Polynomial(K, [K.one, QuadNum(0, 1, 5)])  # 1 + sqrt5 t
    g = f * f
    assert g.coeffs[1] == QuadNum(Fraction(0), Fraction(2), 5)
    assert g.coeffs[2] == QuadNum(Fraction(5), Fraction(0), 5)


# ---------------------------------------------------------------------------
# padic ring
# ---------------------------------------------------------------------------

def test_padic_ring():
    R = PadicRing(7, 2)
    x = R.from_fraction(Fraction(4, 9))
    assert 9 * x % 49 == 4
    with pytest.raises(ZeroDivisionError):
        R.inv(7)
    with pytest.raises(DomainError):
        R.from_fraction(Fraction(1, 7))
    # a unit of Z/p^k is a residue prime to p; in a field, any non-zero element
    assert R.is_unit(1) and R.is_unit(8) and R.is_unit(48)
    assert not any(R.is_unit(x) for x in (0, 7, 14, 42))
    assert GF(7).is_unit(3) and not GF(7).is_unit(0)
    assert QQ.is_unit(Fraction(7, 3)) and not QQ.is_unit(Fraction(0))


def test_row_reduce_over_q():
    F = Fraction
    rows = [[F(1), F(2), F(0), F(3)], [F(2), F(4), F(1), F(7)], [F(0), F(0), F(1), F(1)]]
    reduced, pivots = row_reduce(QQ, rows, 3)
    assert pivots == [0, 2]            # column 1 is twice column 0
    assert reduced == [[1, 2, 0, 3], [0, 0, 1, 1], [0, 0, 0, 0]]
    assert rows[1] == [2, 4, 1, 7]     # the input is not modified
    # the same system with an inconsistent right-hand side: 0 = 1 past the pivots
    rows[2][3] = F(2)
    reduced, pivots = row_reduce(QQ, rows, 3)
    assert pivots == [0, 2] and reduced[2] == [0, 0, 0, 1]
    reduced, pivots = row_reduce(QQ, [[F(2), F(1), F(1)]], 2)
    assert pivots == [0] and reduced == [[1, F(1, 2), F(1, 2)]]


def test_row_reduce_over_gf7():
    F7 = GF(7)
    # 3x + y = 2, x + 4y = 5 mod 7 (determinant 11 = 4)
    reduced, pivots = row_reduce(F7, [[3, 1, 2], [1, 4, 5]], 2)
    assert pivots == [0, 1]
    x, y = reduced[0][2], reduced[1][2]
    assert (3 * x + y - 2) % 7 == 0 and (x + 4 * y - 5) % 7 == 0
    assert reduced[0][:2] == [1, 0] and reduced[1][:2] == [0, 1]
    # determinant 3 * 5 - 1 = 14 = 0 mod 7: one pivot, the second row vanishes
    reduced, pivots = row_reduce(F7, [[3, 1], [1, 5]], 2)
    assert pivots == [0] and reduced[1] == [0, 0]


def test_row_reduce_over_padic_ring():
    R = PadicRing(7, 2)
    # column 0 holds 7 (not a unit) and 1: the row with 1 is the pivot
    reduced, pivots = row_reduce(R, [[7, 1, 0], [1, 2, 3]], 2)
    assert pivots == [0, 1]
    assert reduced[0][:2] == [1, 0] and reduced[1][:2] == [0, 1]
    x, y = reduced[0][2], reduced[1][2]
    assert (7 * x + y) % 49 == 0 and (x + 2 * y - 3) % 49 == 0
    # a column of non-units has no pivot even though it is non-zero
    reduced, pivots = row_reduce(R, [[7, 1], [14, 2]], 1)
    assert pivots == [] and reduced == [[7, 1], [14, 2]]


# ---------------------------------------------------------------------------
# the Series oracle (tests/oracles.py) and misc helpers
# ---------------------------------------------------------------------------

def test_series_expansion_and_inverse():
    f = P(QQ, 1, 1)          # 1 + t
    s = poly_series(f, Fraction(0), 5)
    inv = s.inverse()
    assert inv.coeffs == [Fraction(c) for c in (1, -1, 1, -1, 1)]
    rf = RationalFunction(P(QQ, 1), P(QQ, 1, 1))
    s2 = ratfun_series(rf, Fraction(0), 5)
    assert s2.coeffs == inv.coeffs


def test_series_at_shifted_point():
    f = P(QQ, 0, 0, 1)       # t^2 expanded at t = 1 is 1 + 2e + e^2
    s = poly_series(f, Fraction(1), 4)
    assert s.coeffs[:3] == [Fraction(1), Fraction(2), Fraction(1)]


def test_resultant_detects_common_roots():
    f = P(QQ, -1, 1) * P(QQ, -2, 1)
    g = P(QQ, -2, 1) * P(QQ, 3, 1)
    assert resultant(f, g) == 0
    h = P(QQ, 1, 1)
    r = resultant(f, h)
    assert r == f(Fraction(-1)) * 1  # res(f, t+1) = f(-1) up to lead^deg


def test_misc_number_theory():
    assert squarefree_part(-88) == -22
    assert kronecker(-88, 23) == 1
    assert kronecker(-7, 3) == -1
    assert is_prime(10403) is False and is_prime(101) is True
    assert is_square(0) and is_square(144) and not is_square(12) and not is_square(-4)
    assert rational_sqrt(0) == 0 and rational_sqrt(144) == 12
    assert rational_sqrt(Fraction(49, 36)) == Fraction(7, 6)
    assert rational_sqrt(Fraction(-49, 36)) is None and rational_sqrt(-1) is None
    assert rational_sqrt(12) is None and rational_sqrt(Fraction(9, 8)) is None


def test_rational_function_normalization():
    f = RationalFunction(P(QQ, 0, 2), P(QQ, 0, 0, 4))  # 2t / 4t^2 = (1/2)/t
    assert f.num == P(QQ, Fraction(1, 2))
    assert f.den == P(QQ, 0, 1)
    assert f.valuation_at(Fraction(0)) == -1


def gcd_route(num, den):
    """RationalFunction's normalization with the gcd always taken: lowest terms, den monic."""
    d = num.domain
    if num.is_zero():
        return num, Polynomial.constant(d, d.one)
    g = num.gcd(den)
    num, den = num // g, den // g
    inv = d.inv(den.leading())
    return num.scale(inv), den.scale(inv)


def test_constant_denominator_matches_the_gcd_route():
    # a constant denominator takes no gcd, and one of 1 no scaling either
    K = QuadField(23)
    root = QuadNum(Fraction(2), Fraction(-1, 3), 23)
    for d, c in ((QQ, Fraction(-3, 7)), (K, K.from_fraction(Fraction(5, 2))), (K, root)):
        one, const = Polynomial.constant(d, d.one), Polynomial.constant(d, c)
        nums = [P(d, 1, -2, 0, 5), P(d, Fraction(3, 4)), Polynomial(d, [])]
        if d == K:
            nums.append(Polynomial(K, [root, K.zero, root * root]))
        for num in nums:
            assert RationalFunction(num) == RationalFunction(num, one)
            for den in (one, const, P(d, -2, 1) * const):
                f = RationalFunction(num, den)
                assert (f.num, f.den) == gcd_route(num, den), (num, den)
                assert f.den.leading() == d.one


def test_parse_rational_roundtrip():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == Fraction(17)


# ---------------------------------------------------------------------------
# integer kernels against the generic loops they replace
# ---------------------------------------------------------------------------

def reference_mul(f, g):
    """Polynomial product by the generic loop over the domain's operations."""
    d = f.domain
    if f.is_zero() or g.is_zero():
        return Polynomial(d, [])
    out = [d.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if d.is_zero(a):
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = d.add(out[i + j], d.mul(a, b))
    return Polynomial(d, out)


def reference_series_mul(s, t):
    """Truncated series product by the generic loop."""
    n, d = min(s.prec, t.prec), s.domain
    out = [d.zero] * n
    for i, a in enumerate(s.coeffs[:n]):
        if d.is_zero(a):
            continue
        for j in range(n - i):
            b = t.coeffs[j]
            if not d.is_zero(b):
                out[i + j] = d.add(out[i + j], d.mul(a, b))
    return Series(d, out, n)


def reference_divrem(f, g):
    """Long division by the domain's operations (Fraction arithmetic over Q)."""
    d = f.domain
    lead_inv = d.inv(g.leading())
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return Polynomial(d, []), f
    quot = [d.zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = d.mul(rem[len(g.coeffs) + i - 1], lead_inv)
        quot[i] = c
        if d.is_zero(c):
            continue
        for j, b in enumerate(g.coeffs):
            rem[i + j] = d.sub(rem[i + j], d.mul(c, b))
    return Polynomial(d, quot), Polynomial(d, rem[: len(g.coeffs) - 1])


def reference_gcd(f, g):
    """Euclid on monic remainders, with the reference division."""
    a, b = f.monic(), g.monic()
    while not b.is_zero():
        a, b = b, reference_divrem(a, b)[1].monic()
    return a


KERNEL_DOMAINS = [QQ] + [QuadField(m) for m in (-1, 2, 21, -23, 85)] + [GF(p) for p in (2, 3, 29, 101)]


def random_scalar(rng, d):
    if rng.random() < 0.3:
        return d.zero
    if isinstance(d, QuadField):
        # the public constructor, so the parts are Fractions whatever the kernels do
        return QuadNum(Fraction(rng.randrange(-40, 41), rng.randrange(1, 13)),
                       Fraction(rng.randrange(-40, 41), rng.randrange(1, 13)), d.m)
    if d == QQ:
        return Fraction(rng.randrange(-40, 41), rng.randrange(1, 13))
    return rng.randrange(d.modulus if isinstance(d, PadicRing) else d.p)


def random_coeffs(rng, d, top=7):
    """0..top coefficients; about half the non-empty lists get a negative leading entry."""
    cs = [random_scalar(rng, d) for _ in range(rng.randrange(top + 1))]
    if cs and d == QQ and rng.random() < 0.5:
        cs[-1] = -abs(cs[-1]) or Fraction(-1, rng.randrange(1, 9))
    return cs


def assert_scalar_types(d, cs):
    for c in cs:
        if isinstance(d, QuadField):
            assert type(c) is QuadNum and c.m == d.m
            assert type(c.a) is Fraction and type(c.b) is Fraction
        elif d == QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 <= c < (d.modulus if isinstance(d, PadicRing) else d.p)


def test_kernel_products_match_generic_loop():
    rng = random.Random(41)
    for d in KERNEL_DOMAINS:
        for _ in range(60):
            f, g = Polynomial(d, random_coeffs(rng, d)), Polynomial(d, random_coeffs(rng, d))
            prod = f * g
            assert prod == reference_mul(f, g), (d, f, g)
            assert_scalar_types(d, prod.coeffs)
            s = Series(d, random_coeffs(rng, d), rng.randrange(9))
            t = Series(d, random_coeffs(rng, d), rng.randrange(9))
            got, want = s * t, reference_series_mul(s, t)
            assert (got.prec, got.coeffs) == (want.prec, want.coeffs), (d, s, t)
            assert_scalar_types(d, got.coeffs)


def test_convolve_truncates_and_pads():
    rng = random.Random(43)
    for d in KERNEL_DOMAINS:
        for _ in range(40):
            xs, ys = random_coeffs(rng, d), random_coeffs(rng, d)
            full = reference_mul(Polynomial(d, xs), Polynomial(d, ys)).coeffs
            for n in range(len(xs) + len(ys) + 1):
                want = list(full[:n]) + [d.zero] * (n - len(full))
                assert _convolve(d, xs, ys, n) == want, (d, xs, ys, n)
        assert _convolve(d, [], [], 3) == [d.zero] * 3


def test_kernel_division_and_gcd_match_long_division():
    rng = random.Random(47)
    for d in KERNEL_DOMAINS:
        for _ in range(60):
            f = Polynomial(d, random_coeffs(rng, d))
            g = Polynomial(d, random_coeffs(rng, d, top=rng.choice((1, 4))))  # degree 0 often
            if g.is_zero():
                assert f.gcd(g) == reference_gcd(f, g) == f.monic()
                with pytest.raises(ZeroDivisionError):
                    f.divrem(g)
                continue
            q, r = f.divrem(g)
            assert (q, r) == reference_divrem(f, g), (d, f, g)
            assert_scalar_types(d, q.coeffs + r.coeffs)
            h = Polynomial(d, random_coeffs(rng, d, top=3))
            for a, b in ((f, g), (f * h, g * h), (g, f * g)):
                got = a.gcd(b)
                assert got == reference_gcd(a, b), (d, a, b)
                assert got.is_zero() or got.leading() == d.one
                assert_scalar_types(d, got.coeffs)


def test_quadnum_results_keep_fraction_parts_and_radicand():
    K = QuadField(-23)
    x, y = QuadNum(Fraction(3, 4), -2, -23), QuadNum(5, Fraction(1, 6), -23)
    results = [x + y, x - y, x * y, -x, x.conjugate(), x.inverse(), K.div(x, y),
               K.from_fraction(Fraction(7, 3)), K.zero, K.one]
    for z in results:
        assert type(z.a) is Fraction and type(z.b) is Fraction and z.m == -23
    assert x * x.inverse() == K.one and K.zero is K.zero and K.one is K.one
    other = QuadNum(1, 1, 21)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(DomainError):
            op(x, other)
    with pytest.raises(DomainError):   # a stray coefficient of another field
        Polynomial(K, [x, other]) * Polynomial(K, [y])


def reference_series_inverse(s):
    """The term-by-term recurrence out[n] = -inv0 * sum_{i>=1} s_i out[n-i]."""
    d = s.domain
    inv0 = d.inv(s.coeffs[0])
    out = [inv0] + [d.zero] * (s.prec - 1)
    for n in range(1, s.prec):
        acc = d.zero
        for i in range(1, n + 1):
            acc = d.add(acc, d.mul(s.coeffs[i], out[n - i]))
        out[n] = d.neg(d.mul(inv0, acc))
    return Series(d, out, s.prec)


def reference_scale(f, c):
    """Coefficientwise d.mul, for a Polynomial or a Series."""
    d = f.domain
    cs = [d.mul(c, a) for a in f.coeffs]
    return Series(d, cs, f.prec) if isinstance(f, Series) else Polynomial(d, cs)


def reference_derivative(f):
    """Coefficient i of f' as i repeated additions of f_i."""
    d = f.domain
    out = []
    for i in range(1, len(f.coeffs)):
        acc = d.zero
        for _ in range(i):
            acc = d.add(acc, f.coeffs[i])
        out.append(acc)
    return Polynomial(d, out)


SERIES_DOMAINS = KERNEL_DOMAINS + [PadicRing(5, 3), PadicRing(2, 6)]


def test_series_inverse_and_scale_match_reference():
    rng = random.Random(59)
    for d in SERIES_DOMAINS:
        for prec in range(1, 14):
            for _ in range(4):
                cs = random_coeffs(rng, d, top=prec + 2)
                cs = [d.one if not cs or d.is_zero(cs[0]) else cs[0]] + cs[1:]
                s = Series(d, cs, prec)
                c = random_scalar(rng, d)
                for got, want in ((s.scale(c), reference_scale(s, c)),
                                  (Polynomial(d, cs).scale(c), reference_scale(Polynomial(d, cs), c))):
                    assert got.coeffs == want.coeffs, (d, cs, c)
                    assert_scalar_types(d, got.coeffs)
                if not d.is_unit(cs[0]):
                    with pytest.raises(ZeroDivisionError, match="not a unit"):
                        s.inverse()
                    continue
                inv = s.inverse()
                assert (inv.prec, inv.coeffs) == (prec, reference_series_inverse(s).coeffs), (d, s)
                assert_scalar_types(d, inv.coeffs)
                assert (s * inv).coeffs == [d.one] + [d.zero] * (prec - 1)
            non_unit = d.p if isinstance(d, PadicRing) else d.zero
            with pytest.raises(ZeroDivisionError, match="not a unit"):
                Series(d, [non_unit, d.one], prec).inverse()


def test_series_inverse_at_zero_precision_is_not_a_unit():
    for d in SERIES_DOMAINS:
        with pytest.raises(ZeroDivisionError, match="series is not a unit"):
            Series(d, [d.one], 0).inverse()


def test_derivative_matches_repeated_addition():
    rng = random.Random(61)
    for d in SERIES_DOMAINS:
        for _ in range(30):
            f = Polynomial(d, random_coeffs(rng, d, top=12))   # exponents past 2, 3 and 5
            got = f.derivative()
            assert got == reference_derivative(f), (d, f)
            assert_scalar_types(d, got.coeffs)
    assert Polynomial.from_text(GF(3), "1;1;1;1;1").derivative().to_text() == "1;2;0;1"
    assert Polynomial.from_text(GF(2), "1;1;1;1;1").derivative().to_text() == "1;0;1"


def random_quad_cubic(rng, K):
    """A cubic over K whose lead has a non-zero sqrt(m) part."""
    lead = QuadNum(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
                   Fraction(rng.choice((-5, -2, 1, 3)), rng.randrange(1, 7)), K.m)
    return Polynomial(K, [random_scalar(rng, K) for _ in range(3)] + [lead])


def test_quad_divrem_and_gcd_match_reference_on_large_products():
    rng = random.Random(67)
    for m in (-23, 21, 85, 2):
        K = QuadField(m)
        for _ in range(2):
            c = random_quad_cubic(rng, K)
            f = c * Polynomial(K, [random_scalar(rng, K) for _ in range(17)] + [K.one])
            g = c * random_quad_cubic(rng, K) ** 6
            assert f.degree >= 20 and g.degree >= 21
            for a, b in ((f, g), (g, f), (f, c), (g, c * c), (f * g, g), (c, f)):
                q, r = a.divrem(b)
                assert (q, r) == reference_divrem(a, b), (m, a, b)
                assert_scalar_types(K, q.coeffs + r.coeffs)
            for a, b in ((f, g), (f * c, g), (f, Polynomial.constant(K, K.one) + f)):
                got = a.gcd(b)
                assert got == reference_gcd(a, b), (m, a, b)
                assert_scalar_types(K, got.coeffs)
            assert f.gcd(g) % c.monic() == Polynomial(K, [])


def test_pair_primitive_has_integer_lead_and_content_one():
    rng = random.Random(71)
    for m in (-23, 21, 85, 2):
        K = QuadField(m)
        for _ in range(20):
            f = Polynomial(K, random_coeffs(rng, K, top=9))
            if f.is_zero() or f.leading().b == 0:
                continue
            f = f.scale(K.from_fraction(Fraction(rng.randrange(2, 30))))   # content to remove
            (xa, xb), _ = _pair_coeffs(f.coeffs, m)
            pa, pb = _pair_primitive(xa + [0], xb + [0], m)
            assert len(pa) == len(pb) == len(f.coeffs)
            assert pb[-1] == 0 and pa[-1] != 0
            assert math.gcd(*pa, *pb) == 1
            assert Polynomial(K, [QuadNum(a, b, m) for a, b in zip(pa, pb)]).monic() == f.monic()


# ---------------------------------------------------------------------------
# polynomials over Q: the integer form against plain Fraction lists
# ---------------------------------------------------------------------------

def assert_q_form(f, want):
    """f's integer form is canonical, reads as the Fraction list want, and f
    equals (with the same hash) the polynomial built from want."""
    nums, den = f.int_coeffs
    assert den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1]), (nums, den)
    assert list(f.coeffs) == want and f.degree == len(want) - 1, (f, want)
    assert_scalar_types(QQ, f.coeffs)
    g = Polynomial(QQ, want)
    assert f == g and g == f and hash(f) == hash(g)


def check_q_ops(xs, ys, c, a):
    """Every Q kernel on f, g (built from xs, ys), a scalar c and a point a."""
    f, g, fx, gx = Polynomial(QQ, xs), Polynomial(QQ, ys), frac_trim(xs), frac_trim(ys)
    assert_q_form(f, fx)
    assert_q_form(f + g, frac_add(fx, gx))
    assert_q_form(f - g, frac_add(fx, gx, -1))
    assert_q_form(-f, frac_add([], fx, -1))
    assert_q_form(f * g, frac_mul(fx, gx))
    assert_q_form(f.scale(c), frac_trim(c * x for x in fx))
    assert_q_form(f.derivative(), frac_derivative(fx))
    assert_q_form(f.monic(), frac_monic(fx))
    assert_q_form(f.shift(a), frac_shift(fx, a))
    assert_q_form(f.reverse(len(fx) + 1), frac_reverse(fx, len(fx) + 1))
    assert_q_form(f.gcd(g), frac_gcd(fx, gx))
    assert f(a) == frac_eval(fx, a) and type(f(a)) is Fraction
    if gx:
        (q, r), (wq, wr) = f.divrem(g), frac_divrem(fx, gx)
        assert_q_form(q, wq)
        assert_q_form(r, wr)
    if fx:
        h = f * Polynomial(QQ, [-a, 1]) ** 2
        for poly, cs in ((f, fx), (h, frac_mul(fx, frac_mul([-a, 1], [-a, 1])))):
            k, lc = frac_order_at(cs, a)
            assert poly.order_at(a) == (k, lc) and poly.valuation_at(a) == k, (poly, a)
            assert type(lc) is Fraction


EDGE_Q_LISTS = [[Fraction(c) for c in cs] for cs in (
    [], [0], [0, 0], [Fraction(-7, 3)], [0, Fraction(-1, 2), 0],
    [Fraction(1, 10**30), 0, Fraction(-10**30, 7), 0, 0], [Fraction(-3, 4), Fraction(5, 6), Fraction(-9, 8)],
)]


def random_q_list(rng):
    """0..7 coefficients with small or 30-digit parts, either sign, zeros inside and at the top."""
    size = rng.choice((5, 10**6, 10**30))
    cs = [Fraction(rng.randrange(-size, size + 1), rng.choice((1, -1)) * rng.randrange(1, size + 1))
          if rng.random() < 0.8 else Fraction(0) for _ in range(rng.randrange(8))]
    return cs + [Fraction(0)] * rng.randrange(3)


def test_q_form_matches_fraction_lists_on_fixed_seeds():
    for xs in EDGE_Q_LISTS:
        for ys in EDGE_Q_LISTS:
            check_q_ops(xs, ys, Fraction(-2, 3), Fraction(-1, 2))
    rng = random.Random(73)
    for _ in range(250):
        c = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12)) if rng.random() < 0.9 else 0
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        check_q_ops(random_q_list(rng), random_q_list(rng), c, a)


if st is None:
    @pytest.mark.skip(reason="hypothesis is not installed; the fixed-seed test runs the same checks")
    def test_q_form_matches_fraction_lists_under_hypothesis():
        pass
else:
    _q_lists = st.tuples(
        st.lists(st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**30)), max_size=7),
        st.integers(0, 2),
    ).map(lambda pair: pair[0] + [Fraction(0)] * pair[1])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_q_lists, _q_lists, st.fractions(max_denominator=10**30),
           st.fractions(min_value=-20, max_value=20, max_denominator=40))
    def test_q_form_matches_fraction_lists_under_hypothesis(xs, ys, c, a):
        check_q_ops(xs, ys, c, a)


def coeffs_built(f) -> bool:
    """Whether f's Fraction coefficients exist yet (the slot behind `coeffs` is set)."""
    return hasattr(f, "_coeffs")


def test_kernel_results_build_fraction_coeffs_only_when_read():
    f = Polynomial(QQ, [Fraction(1, 2), Fraction(-3, 4), 5])
    assert coeffs_built(f) and f.int_coeffs is f.int_coeffs   # computed once, then kept
    results = [f + f, f - f, -f, f * f, f.scale(Fraction(-2, 9)), f.monic(), f.derivative(),
               f.reverse(4), f.gcd(f * f), *f.divrem(f * f + f), (f * f).divrem(f)[0],
               (f * Polynomial(QQ, [-1, 1]))._divide_out(1)[1]]
    for g in results:
        assert not coeffs_built(g)
        _ = (g.degree, g.is_zero(), g == f, hash(g), g(Fraction(2, 7)), g.leading() if g.degree >= 0 else 0)
        if not g.is_zero():
            _ = (g.valuation_at(Fraction(1, 2)), g.order_at(0))
        assert not coeffs_built(g), g
        assert g.coeffs is g.coeffs and coeffs_built(g)
        assert g == Polynomial(QQ, g.coeffs)


# ---------------------------------------------------------------------------
# the one monic square root, against two squarefree decompositions
# ---------------------------------------------------------------------------

def test_monic_sqrt_matches_squarefree_reference():
    rng = random.Random(79)
    for d in (QQ, QuadField(21), GF(101)):
        t = Polynomial.x(d)
        for _ in range(40):
            w = Polynomial(d, random_coeffs(rng, d, top=6))
            v = Polynomial(d, random_coeffs(rng, d, top=4))
            if w.is_zero() or v.is_zero():
                continue
            c = random_scalar(rng, d)
            cases = [w * w, w * w * v * v, w * w * v, w * w * (t - Polynomial.constant(d, c)),
                     w * w * v * v * (t * t + Polynomial.constant(d, c)), w * v, v]
            for f in (g.monic() for g in cases):
                want = reference_square_cofactor(RationalFunction(f))
                got = monic_sqrt(f)
                if want[0] is None:
                    assert got is None, (d, f)
                else:
                    assert want[0] == d.one and want[1].den.degree == 0, (d, f)
                    assert got == want[1].num and got * got == f, (d, f)
                    assert_scalar_types(d, got.coeffs)
        for f in (Polynomial(d, []), t, t ** 3, t ** 2 * (t + Polynomial.constant(d, d.one))):
            assert monic_sqrt(f) is None
        assert monic_sqrt(Polynomial.constant(d, d.one)) == Polynomial.constant(d, d.one)
    # over Q a denominator that is not a square, and a square one without a square root
    assert monic_sqrt(P(QQ, Fraction(1, 2), 0, 1)) is None
    assert monic_sqrt(P(QQ, Fraction(1, 4), 0, 1)) is None
    assert monic_sqrt(P(QQ, Fraction(1, 4), 1, 1)) == P(QQ, Fraction(1, 2), 1)

