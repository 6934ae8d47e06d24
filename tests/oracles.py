"""Reference implementations that the package no longer carries, kept as test oracles."""

import math
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

from k3cm.counting import (
    CountingError,
    TwistTable,
    _character_table,
    _fiber_count,
    _fiber_mod_p,
    _node_fixed,
    count_family_member,
    fixed_components,
)
from k3cm.exact import (
    GF,
    QQ,
    Polynomial,
    QuadField,
    QuadNum,
    Domain,
    RationalFunction,
    _convolve,
    primes_up_to,
    rational_sqrt,
    roots_mod_p,
    squarefree_part,
    xgcd,
)
from k3cm.lattices import DiscriminantForm, smith_normal_form
from k3cm.newforms import SPLIT, NewformOracle
from k3cm.quadforms import BinaryQuadraticForm, _check_discriminant, reduce_form
from k3cm.sections import Section, SectionError, _same_square_class
from k3cm.surfaces import (
    Cusp,
    SurfaceError,
    WeierstrassSurface,
    _roots_of_squarefree,
    squarefree_decomposition,
    walk_fibers,
)


def rational_roots(f: Polynomial) -> dict:
    """Roots of f in Q with multiplicities: `_roots_of_squarefree` on each squarefree factor,
    as `delta_cusps` takes them, with no integer factorization of the coefficients."""
    assert f.domain == QQ
    return {r: mult for g, mult in squarefree_decomposition(f)[1] for r in _roots_of_squarefree(g)}


def from_fractions(domain, fracs) -> Polynomial:
    """The polynomial with ascending coefficients fracs (rationals) mapped into domain."""
    return Polynomial(domain, [domain.from_fraction(Fraction(c)) for c in fracs])


# ---------------------------------------------------------------------------
# truncated power series: local expansions the package no longer makes
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


def node_series_newton(surface: WeierstrassSurface, t0, x0, prec: int) -> Series:
    """Power series x(t) of the critical point of the fiber cubic near x0.

    The root of f'(x) = 3x^2 + 2 a2 x + a4 by Newton iteration in the series
    ring at t0, as `surfaces.node_series` computed it before its square-root
    recurrence; requires f''(x0) != 0 at t0 (true at any I_n node).
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



def ratfun_series(f: RationalFunction, point, prec: int) -> Series:
    """Expansion of f around t = point; the point must not be a pole."""
    den = poly_series(f.den, point, prec)
    if f.domain.is_zero(den.coeffs[0]):
        raise ZeroDivisionError("expansion at a pole")
    return poly_series(f.num, point, prec) / den


def det_bareiss(m) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination).

    Works on any square matrix, symmetric or not: the SNF tests read the
    determinants of the unimodular transforms U and V with it, and the
    lattice tests check `GramLattice.det` against it.
    """
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def dense_minors(gram) -> tuple:
    """`GramLattice._minors` as a dense Bareiss elimination: every row below the
    pivot is updated at every step, rows that are 0 in the pivot column too.

    (1, M_1, M_2, ...), the leading principal minors of a congruent Gram
    matrix; a zero pivot is replaced by congruence (a swap with a later
    nonzero diagonal entry, or adding a row and column that meets row k off
    the diagonal), and the tuple stops short of M_n exactly when the form is
    degenerate.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    minors = [1]
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][i]), None)
            if i is not None:
                a[k], a[i] = a[i], a[k]
                for row in a:
                    row[k], row[i] = row[i], row[k]
            else:
                i = next((i for i in range(k + 1, n) if a[k][i]), None)
                if i is None:
                    break
                a[k] = [x + y for x, y in zip(a[k], a[i])]
                for row in a:
                    row[k] += row[i]
        piv = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) // minors[-1]
        minors.append(piv)
    return tuple(minors)


# ---------------------------------------------------------------------------
# polynomials over Q as plain lists of Fractions, ascending, no trailing zeros
# ---------------------------------------------------------------------------

def frac_trim(xs) -> list:
    xs = [Fraction(c) for c in xs]
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


def frac_add(xs, ys, sign=1) -> list:
    return frac_trim(x + sign * y for x, y in zip_longest(xs, ys, fillvalue=Fraction(0)))


def frac_mul(xs, ys) -> list:
    out = [Fraction(0)] * max(len(xs) + len(ys) - 1, 0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] += x * y
    return frac_trim(out)


def frac_divrem(xs, ys) -> tuple[list, list]:
    """Long division; ys must be non-zero."""
    xs, ys = frac_trim(xs), frac_trim(ys)
    quot, rem = [Fraction(0)] * max(len(xs) - len(ys) + 1, 0), list(xs)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(ys) - 1] / ys[-1]
        quot[i] = c
        for j, y in enumerate(ys):
            rem[i + j] -= c * y
    return frac_trim(quot), frac_trim(rem[: len(ys) - 1])


def frac_monic(xs) -> list:
    return [c / xs[-1] for c in xs] if xs else []


def frac_gcd(xs, ys) -> list:
    """Euclid on monic remainders."""
    a, b = frac_monic(frac_trim(xs)), frac_monic(frac_trim(ys))
    while b:
        a, b = b, frac_monic(frac_divrem(a, b)[1])
    return a


def frac_derivative(xs) -> list:
    return frac_trim([i * c for i, c in enumerate(xs)][1:])


def frac_eval(xs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(xs):
        acc = acc * x + c
    return acc


def frac_shift(xs, a) -> list:
    """f(t + a), by Horner on lists."""
    out = []
    for c in reversed(xs):
        out = frac_add(frac_mul(out, [a, 1]), [c])
    return out


def frac_reverse(xs, n) -> list:
    return frac_trim((list(xs) + [Fraction(0)] * (n + 1 - len(xs)))[::-1])


def frac_order_at(xs, a) -> tuple[int, Fraction]:
    """(k, c): (t - a)^k exactly divides f, and c = (f / (t - a)^k)(a); f non-zero."""
    k, xs = 0, frac_trim(xs)
    while frac_eval(xs, a) == 0:
        xs, k = frac_divrem(xs, [-a, 1])[0], k + 1
    return k, frac_eval(xs, a)


# ---------------------------------------------------------------------------
# section verification as it was before the one monic square root
# ---------------------------------------------------------------------------

def reference_rhs(surface, u: RationalFunction) -> RationalFunction:
    """u^3 + a2 u^2 + a4 u + a6 by `RationalFunction` arithmetic (six gcds)."""
    a2, a4, a6 = (RationalFunction(f) for f in (surface.a2, surface.a4, surface.a6))
    return ((u + a2) * u + a4) * u + a6


def reference_square_cofactor(R: RationalFunction):
    """R = m * w^2 by two squarefree decompositions; (m, w) or (None, None)."""
    dom = R.domain
    lead_n, sq_n = squarefree_decomposition(R.num)
    lead_d, sq_d = squarefree_decomposition(R.den)
    one = Polynomial.constant(dom, dom.one)
    wn, wd = one, one
    for g, e in sq_n:
        if e % 2:
            return None, None
        wn = wn * g ** (e // 2)
    for g, e in sq_d:
        if e % 2:
            return None, None
        wd = wd * g ** (e // 2)
    m = dom.div(lead_n, lead_d)
    if dom == QQ:
        m0 = Fraction(m)
        kernel = squarefree_part(m0.numerator * m0.denominator)
        wn = wn.scale(rational_sqrt(m0 / kernel))
        m = Fraction(kernel)
    return m, RationalFunction(wn, wd)


# ---------------------------------------------------------------------------
# lattice helpers the package does not need, and L^v/L from one whole-matrix SNF
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def group_order(df: DiscriminantForm) -> int:
    """|L^v / L|: the product of the invariant factors."""
    out = 1
    for d in df.orders:
        out *= d
    return out


def q_value(df: DiscriminantForm, coeffs) -> Fraction:
    """q(sum coeffs[i] * g_i) mod 2Z."""
    total = Fraction(0)
    k = len(df.orders)
    for i in range(k):
        total += coeffs[i] * coeffs[i] * df.qmat[i][i]
        for j in range(i + 1, k):
            total += 2 * coeffs[i] * coeffs[j] * df.qmat[i][j]
    return Fraction(total.numerator % (2 * total.denominator), total.denominator)


def b_value(df: DiscriminantForm, x, y) -> Fraction:
    """b(sum x[i] g_i, sum y[j] g_j) mod Z."""
    total = sum(x[i] * y[j] * df.qmat[i][j] for i in range(len(x)) for j in range(len(y)))
    return Fraction(total.numerator % total.denominator, total.denominator)


def reference_discriminant_form(lattice) -> DiscriminantForm:
    """L^v/L with generators read off the column transform of the whole Gram matrix's SNF."""
    if not lattice.is_even():
        raise ValueError("discriminant form needs an even lattice")
    n = lattice.rank
    G = [list(r) for r in lattice.gram]
    if lattice.det == 0:
        raise ValueError("degenerate lattice")
    D, _, V = smith_normal_form(G)
    gens, orders = [], []
    for i in range(n):
        d = D[i][i]
        if d > 1:
            orders.append(d)
            gens.append([V[r][i] % d for r in range(n)])
    k = len(gens)
    qmat = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        Gw = [sum(G[r][c] * gens[i][c] for c in range(n)) for r in range(n)]
        for j in range(i, k):
            val = sum(Gw[r] * gens[j][r] for r in range(n))
            qmat[i][j] = qmat[j][i] = Fraction(val, orders[i] * orders[j])
    return DiscriminantForm(tuple(orders), tuple(tuple(row) for row in qmat))


# ---------------------------------------------------------------------------
# the group law (independent oracle for the pairing formula)
# ---------------------------------------------------------------------------

def section_sum(surface: WeierstrassSurface, p: Section, q: Section) -> RationalFunction:
    """x-coordinate of P + Q on y^2 = x^3 + a2 x^2 + a4 x + a6.

    Returns a rational function over the smallest field containing the
    slope; used as an independent cross-check of the height pairing via
    <P,Q> = (h(P+Q) - h(P) - h(Q)) / 2.
    """
    dom = p.domain
    scale = _same_square_class(dom, q.msq, p.msq)
    if scale is not None:
        wq = q.w * Polynomial.constant(dom, scale)
        if p.u == q.u:
            raise SectionError("doubling not needed by the oracle")
        lam_w = (p.w - wq) / (p.u - q.u)  # slope = sqrt(m) * lam_w
        m = p.msq
        a2 = RationalFunction(surface.a2.map_domain(dom) if surface.domain != dom else surface.a2)
        mconst = Polynomial.constant(dom, dom.from_fraction(Fraction(m)) if isinstance(m, Fraction) else m)
        x3 = lam_w * lam_w * mconst - a2 - p.u - q.u
        return x3
    # different square classes: slope lives in Q(sqrt(m_p m_q))
    if dom != QQ:
        raise SectionError("mixed quadratic classes over a quadratic field")
    m1, m2 = Fraction(p.msq), Fraction(q.msq)
    mprod = squarefree_part((m1 * m2).numerator * (m1 * m2).denominator)
    K = QuadField(mprod)
    ru = lambda f: RationalFunction(f.num.map_domain(K), f.den.map_domain(K))
    up, uq, wp, wq = ru(p.u), ru(q.u), ru(p.w), ru(q.w)
    # y_p y_q = sqrt(m1 m2) w_p w_q ; sqrt(m1 m2) = r sqrt(mprod)
    r0 = rational_sqrt((m1 * m2) / mprod)
    assert r0 is not None
    r = K.from_fraction(r0) * QuadNum(Fraction(0), Fraction(1), mprod)
    # slope^2 = (y_p - y_q)^2/(u_p-u_q)^2 = (m1 w_p^2 + m2 w_q^2 - 2 r sqrt? ...)
    num = (
        wp * wp * Polynomial.constant(K, K.from_fraction(m1))
        + wq * wq * Polynomial.constant(K, K.from_fraction(m2))
        - wp * wq * Polynomial.constant(K, r) * Polynomial.constant(K, K.from_fraction(Fraction(2)))
    )
    den = (up - uq) * (up - uq)
    a2 = RationalFunction(surface.a2.map_domain(K))
    return num / den - a2 - up - uq


# ---------------------------------------------------------------------------
# class-group composition (independent oracle for the exponent-2 predicate)
# ---------------------------------------------------------------------------

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


def principal_form(d: int) -> BinaryQuadraticForm:
    """The form x^2 + kxy + ((k^2 - d)/4) y^2, k = d mod 2: the identity class of discriminant d."""
    _check_discriminant(d)
    k = d % 2
    return BinaryQuadraticForm(1, k, (k * k - d) // 4)


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


def split_primes(oracle: NewformOracle, bound: int) -> list[int]:
    """The odd primes up to bound that split in the oracle's field."""
    return [p for p in primes_up_to(bound) if p != 2 and oracle.prime_kind(p) == SPLIT]


# ---------------------------------------------------------------------------
# a twist family member's fibers, row by row, as `analyze_fibers_mod_p` lists them
# ---------------------------------------------------------------------------

def fiber_rows(fibers, p: int) -> list[tuple]:
    """(t0, or None at infinity, label, fixed components) of each fiber over GF(p)."""
    return [(f.cusp.value if f.cusp.kind == "finite" else None, f.label(), fixed_components(f, p))
            for f in fibers]


def twist_fibers(table: TwistTable, lam: int) -> list[tuple]:
    """The member's fibers read off the twist table as `fiber_rows`, infinity last.

    At a cusp t0 of g the member has g's fiber twisted by t0 - lambda, which
    multiplies a node's split class by t0 - lambda; at t = lambda it has an
    I0* fiber with Z[lambda] roots of its residual cubic.
    """
    p, fibers = table.p, []
    for t0, f in table.cusps.items():
        if f.kind == "I" and f.n >= 2:
            f = replace(f, split_class=f.split_class * (t0 - lam) % p)
        fibers.append(f)
    rows = fiber_rows(fibers, p) + [(lam, "I0*", 1 + table.Z[lam])]
    rows.sort(key=lambda row: row[0])
    if table.inf_fiber is not None:
        rows += fiber_rows([table.inf_fiber], p)
    return rows


def table_fibers(table: TwistTable) -> dict:
    """What a twist table holds of g's fibers over GF(p), as `classified_fibers_of_g` gives it."""
    p = table.p
    return {"cusps": {t0: (f.label(), fixed_components(f, p)) for t0, f in table.cusps.items()},
            "nodes": table.nodes, "shared": table.shared, "inf_count": table.inf_count,
            "inf_fiber": table.inf_fiber and table.inf_fiber.label()}


def classified_fibers_of_g(family, p: int) -> dict:
    """`table_fibers` by classifying g mod p: g and its chart at infinity mapped to GF(p), then
    `walk_fibers` with `_fiber_mod_p` at the roots of Delta_g mod p and at s = 0 of the chart.

    The route the twist table took before it read g's fibers off Q; a fiber outside the
    counting tables raises the CountingError that route raised.
    """
    g = family.untwisted.map_domain(family.residue_field(p))
    chart = family.chart_at_infinity.map_domain(g.domain)
    chi = _character_table(p)
    at = [(Cusp.finite(t0), g.delta.valuation_at(t0)) for t0 in sorted(roots_mod_p(g.delta))]
    out = {"cusps": {}, "nodes": [], "shared": 0, "inf_count": _fiber_count(chart, 0, chi), "inf_fiber": None}
    for fib, fixed in walk_fibers(g, at, chart, 18, _fiber_mod_p):
        if fib.cusp.kind == "infinity":
            out["inf_fiber"] = fib.label()
        else:
            out["cusps"][fib.cusp.value] = (fib.label(), fixed)
        if fib.cusp.kind == "finite" and fib.kind == "I" and fib.n >= 2:
            s = chi[fib.split_class]
            out["nodes"].append((fib.cusp.value, _node_fixed(fib.n, s), _node_fixed(fib.n, -s)))
        else:
            out["shared"] += fixed
    out["nodes"] = tuple(out["nodes"])
    return out


def scan_by_member(family, p: int, oracle: NewformOracle) -> set[int]:
    """The lambda `scan_prime` keeps at a good split prime, one O(p) `count_family_member` each."""
    admissible = oracle.eigenvalue_abs(p)
    out = set()
    for lam in range(p):
        if lam in family.degenerate_lambdas(p):
            continue
        _, _, cands = count_family_member(family, p, lam)
        if any(abs(c) in admissible for c in cands):
            out.add(lam)
    return out


def depressed_per_t(surface, weight: int, p: int) -> tuple[list, list]:
    """A, B of the cubic depressed at t = 0, ..., p - 1, then at infinity, one t at a time.

    a2, a4, a6 mapped to GF(p) and evaluated by integer Horner (at infinity their
    t^w, t^2w, t^3w coefficients), then X -> X - c2/3: with s = c2/3,
    A = c4 - 3s^2 and B = c6 - s c4 + 2s^3, as counting took them before it read
    A and B off the surface's c4 and c6.
    """
    third = pow(3, -1, p)
    columns = []
    for k, f in enumerate((surface.a2, surface.a4, surface.a6), 1):
        f = f.map_domain(GF(p))
        column = []
        for t in range(p):
            v = 0
            for c in reversed(f.coeffs):
                v = v * t + c
            column.append(v % p)
        columns.append(column + [f[k * weight]])
    A, B = [], []
    for c2, c4, c6 in zip(*columns):
        s = c2 * third % p
        A.append((c4 - 3 * s * s) % p)
        B.append((c6 - s * c4 + 2 * s * s * s) % p)
    return A, B


def untwisted_mod(family, p: int) -> tuple:
    """(a2', a4', a6'): g's coefficients over GF(p), p a good prime."""
    F = family.residue_field(p)
    return tuple(f.map_domain(F) for f in (family.untwisted.a2, family.untwisted.a4, family.untwisted.a6))


def twist_sums(family, p: int) -> tuple[list, list]:
    """S[t] = sum_X chi(g_t(X)) and Z[t] = #{X : g_t(X) = 0}, walking all p^2 pairs (t, X)."""
    a2, a4, a6 = untwisted_mod(family, p)
    chi = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    S, Z = [], []
    for t in range(p):
        c2, c4, c6 = a2(t), a4(t), a6(t)
        vals = [chi[(((x + c2) * x + c4) * x + c6) % p] for x in range(p)]
        S.append(sum(vals))
        Z.append(vals.count(0))
    return S, Z


# ---------------------------------------------------------------------------
# c4, c6, Delta through the b-invariants
# ---------------------------------------------------------------------------

def reference_discriminant_polys(a2, a4, a6):
    """(c4, c6, Delta) of y^2 = x^3 + a2 x^2 + a4 x + a6 through b2, b4, b6, b8, as
    `surfaces` took them before its closed forms; no division, so any domain."""
    d = a2.domain
    c = lambda q: Polynomial.constant(d, d.from_fraction(Fraction(q)))
    b2, b4, b6 = c(4) * a2, c(2) * a4, c(4) * a6
    b8 = c(4) * a2 * a6 - a4 * a4
    c4 = b2 * b2 - c(24) * b4
    c6 = -(b2 * b2 * b2) + c(36) * b2 * b4 - c(216) * b6
    delta = -(b2 * b2) * b8 - c(8) * (b4 ** 3) - c(27) * (b6 * b6) + c(9) * b2 * b4 * b6
    return c4, c6, delta


# ---------------------------------------------------------------------------
# a family's bad primes, one reduction at a time
# ---------------------------------------------------------------------------

def reduces_cleanly(family, p: int) -> bool:
    """True where g (`Family.untwisted`) keeps its fixed cusps mod p.

    p > 5, g's coefficients are p-integral, and Delta_g mod p, recomputed
    from g's reduced coefficients, keeps its degree and the (degree,
    multiplicity) pattern of its squarefree decomposition over GF(p) (Yun's
    algorithm, sound for multiplicities below p).
    """
    g = family.untwisted
    coeffs = (g.a2, g.a4, g.a6)
    if p <= 5 or any(f.int_coeffs[1] % p == 0 for f in coeffs):
        return False
    delta_p = reference_discriminant_polys(*(f.map_domain(GF(p)) for f in coeffs))[2]
    if delta_p.is_zero() or delta_p.degree != g.delta.degree:
        return False
    pattern = lambda f: sorted((h.degree, m) for h, m in squarefree_decomposition(f)[1])
    return pattern(delta_p) == pattern(g.delta)


def reference_cache_load(path) -> dict:
    """The count log as `CountCache` once read it, line by line: (KEY, p, lambda) -> count.

    Blank and comment lines are skipped, a line of other than four fields is
    reported corrupt on stderr, every field is read by `int` (so `03` is 3, and
    `x` raises ValueError), and a key logged with two counts raises CountingError.
    """
    data = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return data
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 4:
            print(f"cache: skipping corrupt line {line.strip()!r}", file=sys.stderr)
            continue
        key, n = (parts[0], int(parts[1]), int(parts[2])), int(parts[3])
        if data.setdefault(key, n) != n:
            raise CountingError(f"cache conflict for {key}: {data[key]} vs {n} (determinism breach)")
    return data
