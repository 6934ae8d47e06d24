"""Point counts of elliptic K3 fibrations over F_p and Lefschetz matching.

The raw count of a Weierstrass model over F_p is p + 1 + S(t) on the fiber
at each t, S(t) = sum_X chi(cubic_t(X)), plus the fiber at infinity off the
chart `flipped()`.  S comes from isomorphism classes, not from the p^2 pairs
(t, X): the cubic depressed by X -> X - a2/3 is X^3 + A X + B with A = -c4/48
and B = -c6/864, read off the model's c4 and c6 over Q and evaluated mod p at
every t by running sums (`_depressed_coefficients`); X -> aX moves (A, B) to
a class with A in {0, 1, n} (n the least non-residue), whose character sums
for every B are one big-integer correlation packed through `array` slots,
and each t's S is a list lookup (`depressed_cubic_sums`).  The smooth count
adds p per Frobenius-fixed non-identity component of the reducible fibers,
t_alg = 2 + those components, and the two sign choices for the leftover +-p
eigenvalue give the candidate traces compared against the newform oracle.
`count_surface` counts a surface over Q this way, at good primes of its
model only; `count_weierstrass`, O(p^2), is the brute-force reference.

Fibers mod p are typed by `surfaces.classify_at`, the Kodaira rules over Q,
run over GF(p) at the roots of Delta mod p, and `fixed_components` reads
the fixed components off the `FiberDescriptor`.  A fiber outside those
rules or tables raises CountingError naming the surface, p and the cusp;
where the fiber type is the reason, its cause is UnsupportedFiberError.

Family members are counted through a quadratic twist: lambda enters only
as (t-lambda)^(1,2,3) on (a2, a4, a6).  Substituting x = (t-lambda) X
gives x^3 + a2 x^2 + a4 x + a6 = (t-lambda)^3 g_t(X), where g is the
untwisted model (`Family.untwisted`).  A `TwistTable`, built once per
(family, p), holds g's S(t) and Z(t) = #{X : g_t(X) = 0}, and g's fibers at
the family's degenerate lambdas and at infinity, its fibers over Q
(`Family.fixed_fibers`, types kept by the bad-prime rule) reduced mod p: a
node's split class is -2AB there (f''/2 = -9B/2A at the double root -3B/2A).
Then a member is read off it:

* raw count = p(p+1) + (infinity fiber count) + sum_{t != lambda} chi(t-lambda) S(t),
  the fiber y^2 = x^3 at t = lambda having p+1 points.  For all p members
  (`TwistTable.raw_counts`) that sum is one cyclic correlation of chi with
  S + p, one big-integer product;
* at a finite cusp t0 of g the member has g's fiber twisted by the constant
  t0 - lambda: an I_n node's split class is multiplied by it, while an I_1 or
  I_0* fiber (whose residual cubic only scales) keeps its fixed components;
* at t = lambda the member has an I0* fiber whose residual cubic g_lambda has
  Z(lambda) roots;
* at infinity the twist factor (1 - lambda s) is 1 at s = 0, so the fiber and
  its count are g's, at s = 0 of g's chart `flipped()` (g has weight 3).

So a member's fixed components are one integer, with no fiber list built per
member.  They cancel in the candidate traces, r -+ p with r = raw - (p+1)^2,
so a scan matches on `TwistTable.raw_counts` alone; `TwistTable.members`
takes them for every lambda as one list, for `count` output, the log and
`count_family_member`.  A lambda on a cusp of g (Delta_g(lambda) = 0, where
the I0* meets a fixed fiber) raises CountingError naming the cusp and p.

`CountCache` is the `--cache` log, kept by the `count` and `search` commands
alone: no counting or search function takes it.  It is conflict-checked and
never a source of counts: a command computes its counts, then puts them in
one `batch()`, and a count that differs from the log's is a determinism
breach.  The key, `log_key`, digests the family's coefficient data, so two
families with one name and other data never share a count.  An entry is the
line `KEY p lambda count` as `put` writes it: four fields one space apart,
the last three canonical integers, padding around the line allowed.  Blank
and `#` lines are skipped; any other line is reported corrupt on stderr.  A
command reads the log once, in bulk: one regular-expression pass indexes
"KEY p lambda" -> "count" as text.
"""

from __future__ import annotations

import hashlib
import re
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType

from k3cm.exact import GF, PadicRing, roots_mod_p
from k3cm.surfaces import (
    Cusp,
    FiberDescriptor,
    SurfaceError,
    UnsupportedFiberError,
    WeierstrassSurface,
    classify_at,
    walk_fibers,
)


class CountingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# mod-p fibers
# ---------------------------------------------------------------------------

def fixed_components(fib: FiberDescriptor, p: int) -> int:
    """Frobenius-fixed non-identity components of a fiber over GF(p), as `classify_at` types it.

    I_n: all n - 1 when the node's split class is a square mod p, else the
    middle one of an even n.  I_0*: the double component and one leg per root
    of the residual cubic.
    """
    if fib.kind == "I":
        return _node_fixed(fib.n, 1 if fib.n < 2 else pow(fib.split_class, (p - 1) // 2, p))
    if fib.n:
        raise UnsupportedFiberError(f"I{fib.n}* fibers are outside the counting tables")
    return 1 + len(roots_mod_p(fib.residual_cubic))


def _node_fixed(n: int, s: int) -> int:
    """An I_n fiber's fixed components: all n - 1 if split (s = 1); else Frobenius reflects
    the cycle and fixes only the middle component of an even n."""
    return n - 1 if s == 1 else 1 - n % 2


def analyze_fibers_mod_p(surface: WeierstrassSurface) -> list[FiberDescriptor]:
    """The singular fibers of a surface over GF(p), infinity last.

    Valid at good primes only: the caller guarantees that the generic
    configuration reduces cleanly (no cusp collisions, no denominators).
    A fiber outside the counting tables raises CountingError naming the
    surface, p and the cusp.
    """
    F = surface.domain
    if not (isinstance(F, PadicRing) and F.is_field):
        raise CountingError("analyze_fibers_mod_p expects a GF(p) surface")
    return [fib for fib, _ in _fibers_mod_p(surface)]


def _fibers_mod_p(surface) -> list[tuple[FiberDescriptor, int]]:
    """(fiber, fixed components) at each root of Delta mod p, then at infinity."""
    delta = surface.delta
    cusps = [(Cusp.finite(t0), delta.valuation_at(t0)) for t0 in sorted(roots_mod_p(delta))]
    return walk_fibers(surface, cusps, _fiber_mod_p)


def _fiber_mod_p(surface, cusp: Cusp, vd: int, place: Cusp | None = None) -> tuple[FiberDescriptor, int]:
    """`classify_at` over GF(p), with the fiber's fixed components; an error names the
    surface, p and the cusp."""
    p = surface.domain.p
    try:
        fib = classify_at(surface, cusp, vd, place)
        return fib, fixed_components(fib, p)
    except (SurfaceError, UnsupportedFiberError) as exc:
        raise CountingError(f"{surface.name or 'surface'} mod {p} at t={cusp}: {exc}") from exc


def _character_table(p: int) -> list[int]:
    """chi[x] = legendre symbol (x|p) with chi[0] = 0."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, p):
        chi[x * x % p] = 1
    return chi


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _fiber_count(surface, t: int, chi: list) -> int:
    """Points of the model's fiber at t over GF(p), its point at infinity included."""
    p = surface.domain.p
    c2, c4, c6 = surface.a2(t), surface.a4(t), surface.a6(t)
    return p + 1 + sum(map(chi.__getitem__, [(((x + c2) * x + c4) * x + c6) % p for x in range(p)]))


def count_weierstrass(surface: WeierstrassSurface) -> int:
    """Raw point count of the Weierstrass model over GF(p), brute force, fiber by fiber."""
    p = surface.domain.p
    chi = _character_table(p)
    finite = sum(_fiber_count(surface, t, chi) for t in range(p))
    return finite + _fiber_count(surface.flipped(), 0, chi)


def lefschetz_candidates(count: int, p: int, t_alg: int) -> tuple[int, int]:
    """The two sign choices for the transcendental trace alpha + beta."""
    r = count - 1 - p * p - p * t_alg
    return r - p, r + p


def count_surface(surface_q: WeierstrassSurface, p: int):
    """(smooth count, t_alg, candidates) for a Q-surface reduced mod a good prime p.

    raw = p(p+1) + (p+1 + S at s = 0 of `flipped()`) + sum_t S(t), the S sums of
    its own cubic as a twist table takes them.  A bad prime of the model
    (`WeierstrassSurface.is_bad_prime`) raises CountingError.
    """
    if surface_q.is_bad_prime(p):
        raise CountingError(f"{surface_q.name or 'surface'}: p = {p} is a bad prime of its model")
    S, _ = depressed_cubic_sums(p, _character_table(p), *_depressed_coefficients(surface_q, p))
    fixed = sum(n for _, n in _fibers_mod_p(surface_q.map_domain(GF(p))))
    smooth = p * (p + 1) + p + 1 + sum(S) + p * fixed
    return smooth, 2 + fixed, lefschetz_candidates(smooth, p, 2 + fixed)


# ---------------------------------------------------------------------------
# S sums: O(p) list-level steps per model and p
# ---------------------------------------------------------------------------

def depressed_cubic_sums(p: int, chi: list, A: list, B: list) -> tuple[list, list]:
    """S[i] = sum_X chi(X^3 + A[i] X + B[i]) and Z[i] = #{X : X^3 + A[i] X + B[i] = 0}.

    X = aY turns X^3 + c a^2 X + B into a^3 (Y^3 + cY + B/a^3), so writing
    A = c a^2 with c in {0, 1, n}, n the least non-residue (a = 1 when A = 0):
    S = chi(a) F_c(B/a^3) and Z = N_c(-B/a^3), where N_c(v) = #{Y : Y^3 + cY = v}
    and F_c(b) = sum_v N_c(v) chi(v + b).  Three O(p) tables, then one index per pair
    into F_0 F_1 F_2 -F_0 -F_1 -F_2 laid end to end, and into the N_c(-b) likewise.
    """
    n = chi.index(-1)
    N = [_cubic_value_counts(c, p) for c in (0, 1, n)]
    F = _correlate_with_chi(N, chi, p)
    offset, inv_a3 = [0] * p, [1] * p     # A = c a^2: p (c's place, + 3 if chi(a) = -1), a^-3 mod p
    for a in range(1, (p + 1) // 2):
        aa, flip = a * a % p, 3 * p * (chi[a] == -1)
        offset[aa], offset[aa * n % p] = p + flip, 2 * p + flip
        inv_a3[aa] = inv_a3[aa * n % p] = pow(a, -3, p)
    index = [offset[a] + b * inv_a3[a] % p for a, b in zip(A, B)]
    signed = [v for f in F for v in f] + [-v for f in F for v in f]
    at_minus_b = [v for counts in N for v in counts[:1] + counts[:0:-1]] * 2
    return list(map(signed.__getitem__, index)), list(map(at_minus_b.__getitem__, index))


def _cubic_value_counts(c: int, p: int) -> list[int]:
    """counts[v] = #{Y in F_p : Y^3 + cY = v}, each at most 3."""
    counts = [0] * p
    for y in range(p):
        counts[(y * y + c) * y % p] += 1
    return counts


def _correlate_with_chi(rows: list, chi: list, p: int) -> list[list[int]]:
    """F[b] = sum_v values[v] chi(v + b) for b in F_p, for each row of values >= 0, one big-integer product each.

    Each row reversed and chi + 1, packed once for all rows, fill the slots of two
    integers (Kronecker substitution), each slot an item of the smallest array type
    that holds 2 sum(values) of every row.  Slot k of a product is the linear correlation
    L[k] = sum_v values[v] (chi(v + k - p + 1) + 1) over 0 <= v + k - p + 1 < p,
    and the cyclic one is L[p - 1 + b] + L[b - 1] = F[b] + sum(values), folded
    in one shift-and-add.  No slot exceeds 2 sum(values), so none carries into
    the next; where that does not fit 8 bytes, CountingError.
    """
    totals = [sum(values) for values in rows]
    code = next((c for c in "BHILQ" if 2 * max(totals) < 1 << 8 * array(c).itemsize), None)
    if code is None:
        raise CountingError(f"correlation at p = {p}: 2 * {max(totals)} does not fit a slot of 8 bytes")
    bits = 8 * array(code).itemsize
    low, packed = (p - 1) * bits, int.from_bytes(_little(array(code, [x + 1 for x in chi])), "little")
    linear = [int.from_bytes(_little(array(code, values[::-1])), "little") * packed for values in rows]
    folded = [(x >> low) + ((x & ((1 << low) - 1)) << bits) for x in linear]
    return [[v - t for v in _little(array(code, f.to_bytes(p * bits // 8, "little")))] for f, t in zip(folded, totals)]


def _little(slots: array) -> array:
    """The array with its items little-endian on any host (an array holds them in sys.byteorder)."""
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _depressed_coefficients(surface, p: int) -> tuple[list, list]:
    """A, B with the cubic at t depressed to X^3 + A[t] X + B[t] at t = 0, ..., p - 1, then at infinity.

    A = -c4/48 and B = -c6/864 off the surface's c4 and c6 over Q, reduced mod p;
    at infinity their t^2w and t^3w coefficients, w the model's weight (s = 0 of `flipped()`).
    """
    out = []
    for f, scale, top in ((surface.c4, -48, 2 * surface.weight), (surface.c6, -864, 3 * surface.weight)):
        nums, den = f.int_coeffs
        inv = pow(scale * den, -1, p)
        cs = [c * inv % p for c in nums]
        out.append(_values_mod(cs, p) + [cs[top] if top < len(cs) else 0])
    return out[0], out[1]


def _values_mod(cs: list, p: int) -> list[int]:
    """The polynomial with ascending integer coefficients cs at t = 0, ..., p - 1, reduced mod p:
    from its forward differences at t = 0, each row the running sum of the one above."""
    row, heads = [sum(c * t ** k for k, c in enumerate(cs)) for t in range(len(cs))] or [0], []
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    values = [heads.pop()] * p
    for head in reversed(heads):
        values = list(accumulate(values, initial=head))
    return [v % p for v in values[:p]]


@dataclass(frozen=True)
class TwistTable:
    """Member-independent counting data of a (1, 2, 3)-twist family at p.

    A member off the cusps of g is read off it: `raw_counts` holds every
    member's Weierstrass count (all a scan reads) and `members` every member's
    smooth count, its Frobenius-fixed non-identity components an integer,
    with no per-member fiber list.
    """

    p: int
    chi: list          # chi[x] = (x|p), twice over, so chi[p + d] = (d|p) for -p < d < p
    S: list            # S[t] = sum_X chi(g_t(X))
    Z: list            # Z[t] = #{X : g_t(X) = 0}
    cusps: dict        # finite cusp t0 of g -> g's fiber there over GF(p), its fiber over Q reduced
    inf_fiber: FiberDescriptor | None   # g's fiber at infinity over Q reduced, None if smooth
    inf_count: int     # points on the fiber at infinity, its point at infinity included
    shared: int        # fixed components of the fibers no lambda changes: I_1, I_0*, infinity
    nodes: tuple       # (t0, kept, flipped): an I_n cusp's fixed components by chi(t0 - lambda) = 1, -1

    @staticmethod
    def build(family, p: int) -> "TwistTable":
        """The table of g mod a good prime p, whose fibers are g's over Q (`Family.fixed_fibers`).

        A fiber of g that the counting tables reject raises CountingError naming g, p and the cusp.
        """
        if p <= 3:
            raise CountingError(f"twist table at p = {p}: the cubic is depressed by X -> X - c2/3")
        F, g = family.residue_field(p), family.untwisted
        A, B = _depressed_coefficients(g, p)
        chi = _character_table(p)
        S, Z = depressed_cubic_sums(p, chi, A, B)
        at = [(t0, Cusp.finite(t0), fib) for t0, fib in sorted(family.degenerate_lambdas(p).items())]
        at += [(p, fib.cusp, fib) for fib in family.fixed_fibers[-1:] if fib.cusp.kind == "infinity"]
        fibers, nodes, shared = {}, [], 0
        for i, cusp, over_q in at:   # index p: the fiber at infinity
            if over_q.kind == "I*":
                fib = replace(over_q, cusp=cusp, residual_cubic=over_q.residual_cubic.map_domain(F))
            else:
                fib = FiberDescriptor(cusp, "I", over_q.n, split_class=-2 * A[i] * B[i] % p)
            try:
                fixed = fixed_components(fib, p)
            except UnsupportedFiberError as exc:   # in the words of `classify_at` on g or its chart
                where = (g if i < p else g.flipped()).name
                raise CountingError(f"{where} mod {p} at t={i % p}: {exc}") from exc
            fibers[i] = fib
            if i < p and fib.kind == "I" and fib.n >= 2:
                s = chi[fib.split_class]   # the twist multiplies the split class by t0 - lambda
                nodes.append((i, _node_fixed(fib.n, s), _node_fixed(fib.n, -s)))
            else:
                shared += fixed
        inf_fiber = fibers.pop(p, None)
        return TwistTable(p, chi + chi, S[:p], Z[:p], fibers, inf_fiber, p + 1 + S[p], shared, tuple(nodes))

    @cached_property
    def raw_counts(self) -> list[int]:
        """Every lambda's raw count (equal to `count_weierstrass`), from one correlation of chi with S + p.

        S(t) + p >= 0 since |S(t)| <= p, and the shift adds p sum_t chi(t - lambda) = 0.
        Taken once per table: a search scans the same (family, p) for each field.
        """
        p = self.p
        corr, = _correlate_with_chi([[s + p for s in self.S]], self.chi[:p], p)
        base = p * (p + 1) + self.inf_count
        return [base + c for c in corr[:1] + corr[:0:-1]]   # corr[-lambda]

    @cached_property
    def members(self) -> MappingProxyType:
        """lambda -> (smooth count, t_alg, candidates) off the cusps of g, read-only, taken once.

        Every lambda's fixed components are one list, one pass per node over chi[p + t0 - lambda].
        """
        p, chi = self.p, self.chi
        fixed = [self.shared + 1 + z for z in self.Z]
        for t0, kept, flipped in self.nodes:
            share = (kept, kept, flipped)      # by chi = 0, 1, -1
            fixed = [f + share[c] for f, c in zip(fixed, chi[p + t0:t0:-1])]
        return MappingProxyType({lam: _member(p, raw, fixed[lam])
                                 for lam, raw in enumerate(self.raw_counts) if lam not in self.cusps})


def twist_table(family, p: int) -> TwistTable:
    """The family's twist table at p, built on first use and kept on the family.

    Where g has a fiber the counting tables reject, each call raises CountingError.
    """
    tables = family.twist_tables
    if p not in tables:
        tables[p] = TwistTable.build(family, p)
    return tables[p]


def on_cusp(family, p: int, lam: int) -> str:
    """The words for a lambda mod p on a cusp of g, where the member is degenerate."""
    fib = family.degenerate_lambdas(p)[lam]
    return f"lambda = {lam} lies on the cusp {fib.label()} = {fib.cusp} mod {p}"


def count_family_member(family, p: int, lam: int):
    """(smooth count, t_alg, candidates) for the family member at lambda mod p.

    Read off the family's twist table (`TwistTable.members`); a lambda on a
    cusp of g raises CountingError.
    """
    table = twist_table(family, p)
    lam_p = lam % p
    if lam_p in table.cusps:
        raise CountingError(f"{on_cusp(family, p, lam_p)}; its member is degenerate")
    return table.members[lam_p]


def _member(p: int, raw: int, fixed: int) -> tuple:
    """(smooth count, t_alg, candidates) from a member's raw count and its fixed components."""
    smooth, t_alg = raw + p * fixed, 2 + fixed
    return smooth, t_alg, lefschetz_candidates(smooth, p, t_alg)


# ---------------------------------------------------------------------------
# count cache (append-only, conflict-checked)
# ---------------------------------------------------------------------------

_INT, _PAD = r"(?:0|-?[1-9][0-9]*)", r"[^\S\n]*"     # a canonical integer; padding within a line
_ENTRY = rf"([^\s#]\S* {_INT} {_INT}) ({_INT})"      # "KEY p lambda count", as `put` writes it
_ENTRIES = re.compile(rf"^{_PAD}{_ENTRY}{_PAD}$", re.M)
_CORRUPT = re.compile(rf"^{_PAD}(?![\s#]|{_ENTRY}{_PAD}$)(?P<line>.+?){_PAD}$", re.M)   # [\s#] keeps padding out of the line


def _conflict(key: str, known: str, count: str) -> CountingError:
    """The determinism breach of a key with two counts, the key named as (KEY, p, lambda)."""
    fam, p, lam = key.split(" ")
    return CountingError(f"cache conflict for {(fam, int(p), int(lam))}: {known} vs {count} (determinism breach)")


def log_key(family) -> str:
    """A short digest of the family's coefficient data (A, B, C, prefactors, mu): the log's key.

    Families with the same data share counts whatever their names; a family
    file that reuses a name with other data gets keys of its own.  A mu-polynomial is
    written as by `Polynomial.to_text`, through its Fractions' str, at a quarter of the cost.
    """
    blocks = "|".join(",".join(";".join(map(str, c.coeffs)) or "0" for c in block)
                      for block in (family.A, family.B, family.C))
    text = f"{blocks}|{family.pre_a2}{family.pre_a4}{family.pre_a6}|{family.mu}"
    return hashlib.blake2s(text.encode(), digest_size=6).hexdigest()


class CountCache:
    """Append-only, conflict-checked log file of smooth counts keyed by (`log_key`, p, lambda).

    The `count` and `search` commands compute every count and then `put` it;
    no count is read from the log.  A put that differs from a logged count,
    or two logged counts that differ, raise CountingError (a determinism
    breach).  Puts made inside `batch()` reach the file in one append when
    the block ends; outside a batch each put appends at once.
    """

    def __init__(self, path):
        self.path = path
        self.data: dict[str, str] = {}
        self._pending: list[str] | None = None   # lines of the open batch
        self._load()

    def _load(self):
        """The log's entries; its other lines, up to a conflicting entry, reported corrupt."""
        try:
            with open(self.path) as fh:
                text = fh.read()
        except FileNotFoundError:
            return
        entries = _ENTRIES.findall(text)
        self.data = dict(entries)
        seen, clash = {}, None
        if len(self.data) < len(entries):   # a key logged twice: the first other count raises
            clash = next((m for m in _ENTRIES.finditer(text) if seen.setdefault(m[1], m[2]) != m[2]), None)
        if len(entries) < text.count("\n") or not text.endswith("\n"):   # a line other than an entry
            for m in _CORRUPT.finditer(text, 0, clash.start() if clash else len(text)):
                print(f"cache: skipping corrupt line {m['line']!r}", file=sys.stderr)
        if clash:
            raise _conflict(clash[1], seen[clash[1]], clash[2])

    def get(self, fam: str, p: int, lam: int):
        return None if (n := self.data.get(f"{fam} {p} {lam}")) is None else int(n)

    def put(self, fam: str, p: int, lam: int, count: int):
        key, n = f"{fam} {p} {lam}", f"{count}"
        known = self.data.get(key)
        if known is not None:
            if known != n:
                raise _conflict(key, known, n)
            return
        self.data[key] = n
        line = f"{key} {n}\n"
        if self._pending is not None:
            self._pending.append(line)
        else:
            with open(self.path, "a") as fh:
                fh.write(line)

    @contextmanager
    def batch(self):
        """Collect the puts of the block and append them in one write, also on error."""
        self._pending = []
        try:
            yield self
        finally:
            lines, self._pending = self._pending, None
            if lines:
                with open(self.path, "a") as fh:
                    fh.write("".join(lines))
