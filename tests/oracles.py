"""Reference implementations that the package no longer carries, kept as test oracles."""

from fractions import Fraction
from itertools import zip_longest

from k3cm.exact import QQ, Polynomial, RationalFunction, Series, poly_series, rational_sqrt, squarefree_part
from k3cm.lattices import DiscriminantForm, smith_normal_form
from k3cm.surfaces import squarefree_decomposition


def from_fractions(domain, fracs) -> Polynomial:
    """The polynomial with ascending coefficients fracs (rationals) mapped into domain."""
    return Polynomial(domain, [domain.from_fraction(Fraction(c)) for c in fracs])


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
