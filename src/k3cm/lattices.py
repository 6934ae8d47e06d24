"""Integer Gram lattices, Smith normal form, and finite quadratic forms.

The endgame here is match_transcendental: given the rank-20 Neron-Severi
Gram matrix of a verified surface, enumerate the reduced positive definite
rank-2 candidates of the same determinant and pick the one whose finite
quadratic form is minus that of the input.  Uniqueness of the match is part
of the contract (single-class genus for surfaces over Q) and is enforced.

A finite quadratic form is the orthogonal sum of its p-primary parts, and an
isometry maps each part onto the same prime's part (Nikulin 1979), so the
forms are compared one prime at a time: an odd part Z/p by its character,
any other part by a brute-force search over a group of order p^k, never the
whole group of order |d|.  Only candidates whose characters at the odd p || d,
read in closed form, agree with those of -q_ns (Conway-Sloane, Ch. 15) are
compared: on the paper's fields (one class per genus) one candidate is left.
det and the signature come from one Bareiss elimination that rescales a row
which is 0 in the pivot column only when it next reads it.

L^v/L is read off an elimination on unit entries that records only the
column transform; a Smith normal form runs on the block left, at most 2 x 2
on the NS lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from k3cm.exact import kronecker, prime_divisors
from k3cm.quadforms import BinaryQuadraticForm, enumerate_reduced


# ---------------------------------------------------------------------------
# integer matrix helpers
# ---------------------------------------------------------------------------

def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*m*V = D, D diagonal, d1 | d2 | ..., U,V unimodular."""
    a = [row[:] for row in m]
    if not a:
        return [], [], []
    rows, cols = len(a), len(a[0])
    U, V = mat_identity(rows), mat_identity(cols)

    def nearest_div(x, y):
        q, r = divmod(x, y)
        if 2 * abs(r) > abs(y):
            q += 1
        return q

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    k = 0
    while k < min(rows, cols):
        # smallest nonzero pivot tames coefficient growth (the first one, row by row)
        pivot = min(((abs(a[i][j]), i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j]),
                    default=None)
        if pivot is None:
            break
        swap_rows(k, pivot[1])
        swap_cols(k, pivot[2])
        # clear row and column k (balanced remainders keep entries small)
        while True:
            changed = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    q = nearest_div(a[i][k], a[k][k])
                    row_op(i, k, q)
                    if a[i][k]:
                        swap_rows(k, i)
                    changed = True
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = nearest_div(a[k][j], a[k][k])
                    col_op(j, k, q)
                    if a[k][j]:
                        swap_cols(k, j)
                    changed = True
            if not changed:
                break
        # enforce the divisibility chain
        bad = next((i for i in range(k + 1, rows) if any(a[i][j] % a[k][k] for j in range(k + 1, cols))),
                   None)
        if bad is not None:
            row_op(k, bad, -1)  # adds row `bad` into row k, re-run the pivot
            continue
        k += 1
    # normalize signs
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            U[i] = [-x for x in U[i]]
    return a, U, V


# ---------------------------------------------------------------------------
# Gram lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramLattice:
    gram: tuple  # tuple of tuples, symmetric integers

    def __init__(self, gram):
        rows = tuple(tuple(map(int, row)) for row in gram)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("gram matrix must be square")
        if rows != tuple(map(tuple, gram)):
            i, j = next((i, j) for i, row in enumerate(gram) for j, x in enumerate(row) if x != rows[i][j])
            raise ValueError(f"gram entry ({i}, {j}) = {gram[i][j]!r} is not an integer")
        if rows != tuple(zip(*rows)):
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def _minors(self) -> tuple:
        """(1, M_1, M_2, ...): the leading principal minors of a congruent Gram matrix.

        One fraction-free (Bareiss) elimination.  A zero pivot is first replaced
        by congruence, which keeps det: a swap with a later nonzero diagonal
        entry, or adding a row and column that meets row k off the diagonal.
        It stops short of M_n exactly when the lattice is degenerate.  A row
        that is 0 in the pivot column, which step k would only multiply by
        M_k / M_(k-1), keeps the step of its last update and is rescaled when read.
        """
        n = self.rank
        a = [list(row) for row in self.gram]
        minors, step = [1], [0] * n

        def read(i):  # row i from the pivot column k on, as of M_k
            if step[i] != k:
                m, d = minors[k], minors[step[i]]
                a[i][k:], step[i] = [x * m // d for x in a[i][k:]], k
            return a[i]

        for k in range(n):
            if a[k][k] == 0:
                i = next((i for i in range(k + 1, n) if a[i][i]), None)
                if i is not None:
                    a[k], a[i], step[k], step[i] = a[i], a[k], step[i], step[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
                else:
                    i = next((i for i in range(k + 1, n) if a[k][i]), None)
                    if i is None:
                        break
                    a[k] = [x + y for x, y in zip(read(k), read(i))]
                    for row in a:
                        row[k] += row[i]
            pivot_row = read(k)
            piv, prev, tail = pivot_row[k], minors[-1], pivot_row[k + 1:]
            for i in range(k + 1, n):
                if a[i][k]:
                    row = read(i)
                    f = row[k]
                    row[k + 1:] = [(x * piv - f * y) // prev for x, y in zip(row[k + 1:], tail)]
                    step[i] = k + 1
            minors.append(piv)
        return tuple(minors)

    @property
    def det(self) -> int:
        return self._minors[-1] if len(self._minors) > self.rank else 0

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def signature(self) -> tuple[int, int]:
        """(n_plus, n_minus) over Q: the pivot M_k / M_{k-1} has the sign of M_k M_{k-1}."""
        m = self._minors
        if len(m) <= self.rank:
            raise ValueError("degenerate lattice")
        pos = sum((x > 0) == (y > 0) for x, y in zip(m, m[1:]))
        return pos, self.rank - pos


# ---------------------------------------------------------------------------
# discriminant forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminantForm:
    """Finite quadratic form on L^v / L presented by cyclic generators.

    orders: invariant factors > 1 (ascending divisibility);
    qmat[i][j]: the rational pairing values g_i . g_j of the chosen dual
    generators; q(x) is read mod 2Z on the diagonal and the pairing mod Z.
    """

    orders: tuple
    qmat: tuple  # tuple of tuples of Fraction

    def negated(self) -> "DiscriminantForm":
        return DiscriminantForm(
            self.orders, tuple(tuple(-x for x in row) for row in self.qmat)
        )

    def _scaled(self, D: int):
        """qmat times D, as integers; D must clear every denominator."""
        return [[int(x * D) for x in row] for row in self.qmat]

    def _element_table(self, qm, D: int) -> dict[tuple[int, int], list[tuple]]:
        """Every group element, keyed by (its order, D * q mod 2D); qm = _scaled(D)."""
        rows = [((), 0, 1)]  # (element, D * q, order), grown one cyclic factor at a time
        for t, o in enumerate(self.orders):
            grown = []
            for el, q, order in rows:
                cross = 2 * sum(x * qm[i][t] for i, x in enumerate(el))
                grown += [(el + (a,), q + a * (a * qm[t][t] + cross), lcm(order, o // gcd(a, o)))
                          for a in range(o)]
            rows = grown
        table: dict[tuple[int, int], list[tuple]] = {}
        for el, q, order in rows:
            table.setdefault((order, q % (2 * D)), []).append(el)
        return table

    @cached_property
    def primary_parts(self) -> dict[int, "DiscriminantForm"]:
        """The p-primary parts {p: part} for each prime p of the exponent, built once.

        The part at p is generated by (o_i / p^e) g_i, of order p^e, for each
        invariant factor o_i with p^e || o_i, e >= 1; its qmat is scaled to
        match.  Parts at different primes are orthogonal and together make up
        the whole form (Nikulin 1979).
        """
        parts = {}
        for p in prime_divisors(self.orders[-1] if self.orders else 1):
            idx, orders, mult = [], [], []
            for i, o in enumerate(self.orders):
                pe = gcd(o, p ** o.bit_length())  # the p-power part of o
                if pe > 1:
                    idx.append(i)
                    orders.append(pe)
                    mult.append(o // pe)
            qmat = tuple(
                tuple(mult[a] * mult[b] * self.qmat[i][j] for b, j in enumerate(idx))
                for a, i in enumerate(idx)
            )
            parts[p] = DiscriminantForm(tuple(orders), qmat)
        return parts

    def is_isomorphic(self, other: "DiscriminantForm") -> bool:
        """Isometry test, one p-primary part at a time.

        An isometry maps each p-primary part onto the p-primary part of the
        image, so two forms are isometric iff their parts are, prime by prime:
        an odd Z/p by its character (`_character`), any other part by brute force.
        """
        if self.orders != other.orders:
            return False
        theirs = other.primary_parts
        return all(part._isometric_to(theirs[p]) if (eps := _character(part, p)) is None
                   else eps == _character(theirs[p], p)
                   for p, part in self.primary_parts.items())

    def _isometric_to(self, other: "DiscriminantForm") -> bool:
        """Brute-force isometry search preserving orders, q and the pairing.

        Enumerates every element of both groups, so it is meant for one
        p-primary part at a time; on a whole form it is the test oracle.
        """
        if self.orders != other.orders:
            return False
        if not self.orders:
            return True
        D = lcm(*(Fraction(x).denominator for f in (self, other) for row in f.qmat for x in row))
        qms, qmo = self._scaled(D), other._scaled(D)
        mine, buckets = self._element_table(qms, D), other._element_table(qmo, D)
        # the (order, q) value multiset is a cheap isometry invariant
        if {key: len(els) for key, els in mine.items()} != {
            key: len(els) for key, els in buckets.items()
        }:
            return False
        return _extend_isometry(self.orders, qms, qmo, D, buckets, [])


def _extend_isometry(orders, qms, qmo, D, buckets, images) -> bool:
    """Extend images of the first generators to an isometry, by backtracking.

    Candidates for the next generator come from `buckets` (same order and q);
    each must pair with the earlier images as the generators do.  A module
    function, not a closure: a recursive closure keeps a reference cycle.
    """
    idx, k = len(images), len(orders)
    if idx == k:
        return _generates(orders, images)
    key = (orders[idx], qms[idx][idx] % (2 * D))
    for cand in buckets.get(key, []):
        fits = all(
            qms[idx][prev] % D
            == sum(cand[i] * images[prev][j] * qmo[i][j] for i in range(k) for j in range(k)) % D
            for prev in range(idx)
        )
        if fits and _extend_isometry(orders, qms, qmo, D, buckets, images + [cand]):
            return True
    return False


def _generates(orders, images) -> bool:
    """Do the image tuples generate all of prod Z/orders?

    The images generate iff the Z-span of the image vectors together with
    diag(orders) is all of Z^r, i.e. the SNF index of that column span is 1.
    """
    r = len(orders)
    cols = [list(img) for img in images] + [
        [orders[i] if i == j else 0 for i in range(r)] for j in range(r)
    ]
    mat = [[cols[c][rr] for c in range(len(cols))] for rr in range(r)]
    D, _, _ = smith_normal_form(mat)
    index = 1
    for i in range(r):
        index *= D[i][i]
    return index == 1


def _unit_pivot_elimination(G) -> tuple[list[list[int]], list[list[int]]]:
    """Eliminate G on entries +-1; (the block left, the columns of V on it).

    Where no entry is +-1, `_make_unit` may make one.  Each step clears a
    unit entry's column by row operations, which are not
    recorded, and its row by column operations, which V records.  Then
    G = U^-1 (+-1 ... (+) block) V^-1 with U, V unimodular, so Z^n / G Z^n
    is the cokernel of the block.
    """
    n = len(G)
    a = [list(row) for row in G]
    V = mat_identity(n)  # V[c] is column c of the transform
    rows, cols = list(range(n)), list(range(n))
    while True:
        pivot = next(((i, j) for i in rows for j in cols if a[i][j] in (1, -1)), None)
        if pivot is None and (pivot := _make_unit(a, V, rows, cols)) is None:
            return [[a[r][c] for c in cols] for r in rows], [V[c] for c in cols]
        i, j = pivot
        rows.remove(i)
        cols.remove(j)
        s = a[i][j]
        pivot_row = [(c, s * a[i][c]) for c in cols if a[i][c]]
        for r in rows:
            if f := a[r][j]:
                for c, q in pivot_row:
                    a[r][c] -= f * q
        for c, q in pivot_row:
            V[c] = [x - q * y for x, y in zip(V[c], V[j])]


def _make_unit(a, V, rows, cols):
    """Where no entry is +-1, make one by Euclid on the rows of a column
    whose entries are coprime, maybe once another column is added to it
    (as two fibers' blocks leave coprime diagonal entries); its (row,
    column), or None."""
    def column(j, k):  # column j, plus column k unless k == j
        return [a[r][j] + a[r][k] * (k != j) for r in rows]

    j, k = next(((j, k) for j in cols for k in cols if gcd(*column(j, k)) == 1), (None, None))
    if j is None:
        return None
    if k != j:
        for r in rows:
            a[r][j] += a[r][k]
        V[j] = [x + y for x, y in zip(V[j], V[k])]
    while True:
        i = min((r for r in rows if a[r][j]), key=lambda r: abs(a[r][j]))
        if a[i][j] in (1, -1):
            return i, j
        for r in rows:
            if r != i and a[r][j]:
                q = a[r][j] // a[i][j]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]


def discriminant_form(lattice: GramLattice) -> DiscriminantForm:
    """Nikulin's finite quadratic form on L^v/L for an even lattice.

    L^v = G^-1 Z^n is spanned by the columns of V D^-1 for unimodular
    U G V = D diagonal; V is the unit pivots' transform times the SNF's W.
    """
    if not lattice.is_even():
        raise ValueError("discriminant form needs an even lattice")
    if lattice.det == 0:
        raise ValueError("degenerate lattice")
    G = lattice.gram
    block, vcols = _unit_pivot_elimination(G)
    D, _, W = smith_normal_form(block)
    # generators of L^v/L: columns of V W scaled by 1/d_i, for d_i > 1.
    # Translating a generator by a lattice vector changes q by an even
    # integer, so the integer parts of the coordinates can be dropped.
    gens = []
    orders = []
    for i in range(len(block)):
        d = D[i][i]
        if d > 1:
            orders.append(d)
            gens.append([sum(row[i] * v[r] for row, v in zip(W, vcols)) % d
                         for r in range(lattice.rank)])
    k = len(gens)
    qmat = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        Gg = [sum(map(mul, row, gens[i])) for row in G]
        for j in range(i, k):
            qmat[i][j] = qmat[j][i] = Fraction(sum(map(mul, Gg, gens[j])), orders[i] * orders[j])
    return DiscriminantForm(tuple(orders), tuple(tuple(row) for row in qmat))


# ---------------------------------------------------------------------------
# transcendental lattice matching
# ---------------------------------------------------------------------------

class MatchError(ValueError):
    pass


def form_lattice(f: BinaryQuadraticForm) -> GramLattice:
    return GramLattice(f.gram())


def _character(part: DiscriminantForm, p: int) -> int | None:
    """(p q(g) | p) of an odd part Z/p = <g>, which classifies it, or None.

    p q(g) is an integer prime to p, even as q(p g) is in 2Z, and q(a g) =
    a^2 q(g) multiplies it by a square mod 2p."""
    return kronecker(int(p * part.qmat[0][0]), p) if p > 2 and part.orders == (p,) else None


def _candidate_character(f: BinaryQuadraticForm, p: int) -> int:
    """eps_p of [2a,b,2c] at an odd p || d, with no Smith normal form.

    The p-part is generated by (-b, 2a)/p, of q = 2a (-d/p)/p, or, when p | a
    (so p does not divide c), by (2c, -b)/p, of q = 2c (-d/p)/p.
    """
    m = f.a if f.a % p else f.c
    return kronecker(2 * m * (-f.discriminant // p), p)


def match_transcendental(ns: GramLattice) -> BinaryQuadraticForm:
    """The unique reduced [2a,b,2c] with q = -q_ns and |disc| = |det ns|.

    The input must be an even hyperbolic-signature lattice (one positive
    eigenvalue); for rank-20 input this is the Neron-Severi lattice of a
    singular K3 surface and the output is its transcendental lattice.
    """
    pos, neg = ns.signature()
    if pos != 1:
        raise MatchError(f"expected signature (1, n-1), got ({pos}, {neg})")
    d = ns.det
    if d >= 0:
        raise MatchError("determinant must be negative")
    target = discriminant_form(ns).negated()
    chars = {p: eps for p, part in target.primary_parts.items()
             if (eps := _character(part, p)) is not None}
    matches = [cand for cand in sorted(enumerate_reduced(d))
               if all(_candidate_character(cand, p) == e for p, e in chars.items())
               and discriminant_form(form_lattice(cand)).is_isomorphic(target)]
    if not matches:
        raise MatchError(f"no rank-2 form of discriminant {d} matches the input")
    if len(matches) > 1:
        raise MatchError(f"genus of discriminant {d} has several classes: {matches}")
    return matches[0]


# ---------------------------------------------------------------------------
# Neron-Severi assembly from fiber root blocks and section rows
# ---------------------------------------------------------------------------

def assemble_ns_gram(blocks, rows) -> GramLattice:
    """Gram matrix on {O, F, non-identity fiber components, sections}.

    blocks: one fiber descriptor per root block (`rank`, `edges`, `vertex`),
    an orbit fiber once per conjugate.  rows: one (P.O, components, P.Q) per
    section: the component met in each block (None for the identity one) and
    the intersection numbers with the earlier sections.
    """
    offs = []
    pos = 2
    for b in blocks:
        offs.append(pos)
        pos += b.rank
    size = pos + len(rows)
    g = [[0] * size for _ in range(size)]
    g[0][0] = -2          # O.O
    g[0][1] = g[1][0] = 1  # O.F
    for b, off in zip(blocks, offs):
        for i in range(b.rank):
            g[off + i][off + i] = -2
        for i, j in b.edges:
            g[off + i][off + j] = g[off + j][off + i] = 1
    for s_idx, (pO, components, pq) in enumerate(rows):
        r = pos + s_idx
        g[r][r] = -2
        g[r][1] = g[1][r] = 1    # P.F
        g[r][0] = g[0][r] = pO   # P.O
        for b, off, comp in zip(blocks, offs, components, strict=True):
            if comp is not None:
                v = off + b.vertex(comp)
                g[r][v] = g[v][r] = 1
        for j, val in enumerate(pq):
            g[r][pos + j] = g[pos + j][r] = val
    return GramLattice(g)
