"""Point counts of elliptic K3 fibrations over F_p and Lefschetz matching.

The raw count walks the (singular) Weierstrass model fiberwise with a
precomputed quadratic-character table; smooth-model corrections add the
component count of every resolved reducible fiber that is rational over
F_p.  The algebraic trace collects the Frobenius-fixed divisor classes, and
the two sign choices for the leftover +-p eigenvalue give the candidate
transcendental traces compared against the newform oracle.

Family members are counted through a quadratic twist: lambda enters only
as (t-lambda)^(1,2,3) on (a2, a4, a6).  Substituting x = (t-lambda) X
gives x^3 + a2 x^2 + a4 x + a6 = (t-lambda)^3 g_t(X), where g is the
untwisted model (`Family.untwisted`).  A `TwistTable`, built once per
(family, p), holds S(t) = sum_X chi(g_t(X)) and Z(t) = #{X : g_t(X) = 0},
g's fibers at the family's degenerate lambdas and at infinity with its point
count.  S and Z come from isomorphism classes, not from the p^2 pairs
(t, X): shifting X by c2/3 depresses g_t to X^3 + A X + B, and X -> aX
moves (A, B) to a class with A in {0, 1, n} (n the least non-residue), whose
character sums for every B are one big-integer correlation
(`depressed_cubic_sums`).  Then each member costs O(p):

* raw count = p(p+1) + (infinity fiber count) + sum_{t != lambda} chi(t-lambda) S(t),
  the fiber y^2 = x^3 at t = lambda having p+1 points;
* at a finite cusp t0 of g the member has g's fiber twisted by the constant
  t0 - lambda: an I_n (n >= 2) node split flips when chi(t0-lambda) = -1,
  while an I_1 or I_0* fiber (whose residual cubic only scales) keeps its
  fixed components;
* at t = lambda the member has an I0* fiber whose residual cubic is g_lambda,
  so r3 = Z(lambda);
* at infinity the twist factor (1 - lambda s) is 1 at s = 0, so the fiber and
  its count are g's, read off the chart (a2'.reverse(3), a4'.reverse(6),
  a6'.reverse(9)), whose c4, c6, Delta are g's reversed.

So a member's Frobenius-fixed non-identity components are one integer,
`TwistTable.fixed(lambda)`: a build-time constant for the fibers no lambda
changes, a kept or flipped share per node, and 1 + Z(lambda); smooth count =
raw + p * fixed and t_alg = 2 + fixed, with no fiber list built per member.

The twist table is the only way a family member is counted.  A lambda on a
cusp of g (Delta_g(lambda) = 0, where the I0* meets a fixed fiber) raises
CountingError naming the cusp and p, and so does a prime where g has a
fiber the counting tables reject, naming g, p and the cusp.

Fibers mod p are typed by the Kodaira rules of `surfaces.classify_at`, the
ones that classify fibers over Q, run over GF(p) at the roots of Delta mod p.
A fiber those rules reject (an additive type other than I_0*, a model that
is not normalized there) or an I_m* fiber with m >= 1 raises CountingError.

`CountCache` keys each count on the family's coefficient digest, so two
families with the same name and other data never share a count; a scan
appends its new counts to the file in one `batch()`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import mul

from k3cm.exact import GF, PadicRing, roots_mod_p
from k3cm.surfaces import Cusp, SurfaceError, UnsupportedFiberError, WeierstrassSurface, classify_at


class CountingError(ValueError):
    pass


@dataclass(frozen=True)
class FpFiber:
    """A reducible fiber of the reduced surface at one F_p-rational cusp."""

    t0: int | None        # None encodes the cusp at infinity
    kind: str             # "I" or "I*"
    n: int
    split: bool = True    # I_n: node tangents rational over F_p
    r3: int = 0           # I_0*: rational roots of the residual cubic

    @property
    def fixed_components(self) -> int:
        """Frobenius-fixed non-identity components."""
        if self.kind == "I":
            if self.n < 2:
                return 0
            if self.split:
                return self.n - 1
            return 1 if self.n % 2 == 0 else 0
        if self.n == 0:
            return 1 + self.r3
        raise CountingError("I_m* fibers are outside the counting tables")


# ---------------------------------------------------------------------------
# mod-p fiber analysis
# ---------------------------------------------------------------------------

def analyze_fibers_mod_p(surface: WeierstrassSurface) -> list[FpFiber]:
    """Classify the singular fibers of a surface over GF(p), infinity last.

    Valid at good primes only: the caller guarantees that the generic
    configuration reduces cleanly (no cusp collisions, no denominators).
    """
    F = surface.domain
    if not (isinstance(F, PadicRing) and F.is_field):
        raise CountingError("analyze_fibers_mod_p expects a GF(p) surface")
    chi = _character_table(F.p)
    delta = surface.delta
    out = [_fp_fiber(surface, t0, delta.valuation_at(t0), chi) for t0 in sorted(roots_mod_p(delta))]
    if delta.degree < 24:
        out.append(replace(_fp_fiber(surface.flipped(), 0, 24 - delta.degree, chi), t0=None))
    return out


def _fp_fiber(surface, t0: int, vd: int, chi) -> FpFiber:
    """The fiber at t0, where v(Delta) = vd, as `classify_at` types it over GF(p), as counting data."""
    p = surface.domain.p
    where = f"{surface.name or 'surface'} mod {p} at t={t0}"
    try:
        fib = classify_at(surface, Cusp.finite(t0), vd)
    except (SurfaceError, UnsupportedFiberError) as exc:
        raise CountingError(f"{where}: {exc}") from exc
    if fib.kind == "I":
        return FpFiber(t0, "I", fib.n, split=fib.n < 2 or chi[fib.split_class] == 1)
    if fib.n:
        raise CountingError(f"{where}: I{fib.n}* fibers are outside the counting tables")
    return FpFiber(t0, "I*", 0, r3=len(roots_mod_p(fib.residual_cubic)))


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

def count_weierstrass(surface: WeierstrassSurface) -> int:
    """Raw point count of the Weierstrass model over GF(p), brute force.

    Per fiber: sum over x of 1 + chi(RHS), plus the point at infinity.
    """
    F = surface.domain
    p = F.p
    chi = _character_table(p)
    total = 0
    for chart in (surface, surface.flipped()):
        ts = range(p) if chart is surface else (0,)
        for t in ts:
            vals = _cubic_values(chart.a2(t), chart.a4(t), chart.a6(t), p)
            total += p + 1 + sum(map(chi.__getitem__, vals))
    return total


def _cubic_values(c2, c4, c6, p: int) -> list[int]:
    """x^3 + c2 x^2 + c4 x + c6 mod p at x = 0, ..., p - 1."""
    return [(((x + c2) * x + c4) * x + c6) % p for x in range(p)]


# ---------------------------------------------------------------------------
# twist table: O(p) Python steps per (family, p), O(p) per member
# ---------------------------------------------------------------------------

def depressed_cubic_sums(p: int, chi: list, A: list, B: list) -> tuple[list, list]:
    """S[i] = sum_X chi(X^3 + A[i] X + B[i]) and Z[i] = #{X : X^3 + A[i] X + B[i] = 0}.

    X = aY turns X^3 + c a^2 X + B into a^3 (Y^3 + cY + B/a^3), so writing
    A = c a^2 with c in {0, 1, n}, n the least non-residue (a = 1 when A = 0):
    S = chi(a) F_c(B/a^3) and Z = N_c(-B/a^3), where N_c(v) = #{Y : Y^3 + cY = v}
    and F_c(b) = sum_v N_c(v) chi(v + b).  Three O(p) tables, then O(1) per pair.
    """
    n = chi.index(-1)
    N = [_cubic_value_counts(c, p) for c in (0, 1, n)]
    F = [_correlate_with_chi(counts, chi, p) for counts in N]
    cls = [(0, 1, 1)] * p           # cls[A] = (index of c, chi(a), a^-3 mod p)
    for a in range(1, (p + 1) // 2):
        aa, entry = a * a % p, (chi[a], pow(a, -3, p))
        cls[aa] = (1, *entry)
        cls[aa * n % p] = (2, *entry)
    S, Z = [], []
    for A_i, B_i in zip(A, B):
        k, s, inv_a3 = cls[A_i]
        b = B_i * inv_a3 % p
        S.append(s * F[k][b])
        Z.append(N[k][-b])          # N_c(-b mod p): index -b is p - b for b > 0
    return S, Z


def _cubic_value_counts(c: int, p: int) -> list[int]:
    """counts[v] = #{Y in F_p : Y^3 + cY = v}, each at most 3."""
    counts = [0] * p
    for y in range(p):
        counts[(y * y + c) * y % p] += 1
    return counts


def _correlate_with_chi(counts: list, chi: list, p: int) -> list[int]:
    """F[b] = sum_v counts[v] chi(v + b) for b in F_p, from one big-integer product.

    counts reversed and chi + 1 over two periods fill fixed-width byte slots
    of two integers (Kronecker substitution); slot p - 1 + b of the product
    is sum_v counts[v] (chi(v + b) + 1) = F[b] + p.  No slot exceeds 2p, so
    a slot of bytes holding 2p never carries into the next.
    """
    width = ((2 * p).bit_length() + 7) // 8
    slot = [v.to_bytes(width, "little") for v in range(4)]
    u = int.from_bytes(b"".join([slot[k] for k in reversed(counts)]), "little")
    w = int.from_bytes(b"".join([slot[x + 1] for x in chi + chi]), "little")
    raw = (u * w).to_bytes(3 * p * width, "little")
    start = (p - 1) * width
    return [int.from_bytes(raw[i:i + width], "little") - p
            for i in range(start, start + p * width, width)]


def _depressed_coefficients(a2, a4, a6, p: int) -> tuple[list, list]:
    """A, B with g_t(X - c2/3) = X^3 + A[t] X + B[t] at t = 0, ..., p - 1.

    (c2, c4, c6) = (a2, a4, a6)(t) by integer Horner on the coefficients;
    with s = c2/3, A = c4 - 3s^2 and B = c6 - s c4 + 2s^3.
    """
    third = pow(3, -1, p)
    A, B = [], []
    for c2, c4, c6 in zip(*(_values_mod(poly, p) for poly in (a2, a4, a6))):
        s = c2 * third % p
        A.append((c4 - 3 * s * s) % p)
        B.append((c6 - s * c4 + 2 * s * s * s) % p)
    return A, B


def _values_mod(poly, p: int) -> list[int]:
    """poly(t) mod p at t = 0, ..., p - 1, by integer Horner, reduced once."""
    cs = poly.coeffs[::-1]
    out = []
    for t in range(p):
        v = 0
        for c in cs:
            v = v * t + c
        out.append(v % p)
    return out


@dataclass(frozen=True)
class TwistTable:
    """Member-independent counting data of a (1, 2, 3)-twist family at p.

    A member off the cusps of g is read off it in O(p): `raw_count` is its
    Weierstrass count and `fixed` its Frobenius-fixed non-identity
    components, an integer, with no per-member fiber list.
    """

    p: int
    chi: list          # chi[x] = (x|p), twice over, so chi[p + d] = (d|p) for -p < d < p
    S: list            # S[t] = sum_X chi(g_t(X))
    Z: list            # Z[t] = #{X : g_t(X) = 0}
    cusps: dict        # finite cusp t0 of g -> g's FpFiber there
    inf_fiber: FpFiber | None
    inf_count: int     # points on the fiber at infinity, its point at infinity included
    shared: int        # fixed components of the fibers no lambda changes: I_1, I_0*, infinity
    nodes: tuple       # (t0, kept, flipped): an I_n cusp's fixed components by chi(t0 - lambda) = 1, -1

    @staticmethod
    def build(family, p: int) -> "TwistTable":
        """The table of g mod a good prime p; at each cusp v(Delta_g) is g's over Q.

        A fiber of g that the counting tables reject raises CountingError naming g, p and the cusp.
        """
        if p <= 3:
            raise CountingError(f"twist table at p = {p}: the cubic is depressed by X -> X - c2/3")
        g = family.untwisted.map_domain(family.residue_field(p))
        a2, a4, a6 = g.a2, g.a4, g.a6
        chi = _character_table(p)
        S, Z = depressed_cubic_sums(p, chi, *_depressed_coefficients(a2, a4, a6, p))
        cusps = {t0: _fp_fiber(g, t0, fib.euler, chi)
                 for t0, fib in sorted(family.degenerate_lambdas(p).items())}
        chart = WeierstrassSurface(   # s = 1/t, X' = X/t^3: g has degrees (3, 6, 9)
            a2.reverse(3), a4.reverse(6), a6.reverse(9), name=f"{g.name}~inf",
            _invariants=(g.c4.reverse(6), g.c6.reverse(9), g.delta.reverse(18)),
        )
        is_node = lambda f: f.kind == "I" and f.n >= 2
        nodes = tuple((t0, f.fixed_components, replace(f, split=not f.split).fixed_components)
                      for t0, f in cusps.items() if is_node(f))
        shared = sum(f.fixed_components for f in cusps.values() if not is_node(f))
        inf_fiber = None
        if g.delta.degree < 18:   # the member's 24 - deg Delta > 0, Delta = (t-lambda)^6 Delta_g
            inf_fiber = replace(_fp_fiber(chart, 0, 18 - g.delta.degree, chi), t0=None)
            shared += inf_fiber.fixed_components
        inf_vals = _cubic_values(chart.a2(0), chart.a4(0), chart.a6(0), p)
        inf_count = p + 1 + sum(map(chi.__getitem__, inf_vals))
        return TwistTable(p, chi + chi, S, Z, cusps, inf_fiber, inf_count, shared, nodes)

    def fixed(self, lam: int) -> int:
        """The member's Frobenius-fixed non-identity components, summed over its fibers.

        The shared constant, each node's share after the flip by chi(t0 - lambda),
        and 1 + Z[lambda] at the I0* fiber over t = lambda.
        """
        chi, p = self.chi, self.p
        out = self.shared + 1 + self.Z[lam]
        for t0, kept, flipped in self.nodes:
            out += flipped if chi[p + t0 - lam] == -1 else kept
        return out

    def raw_count(self, lam: int) -> int:
        """The member's raw Weierstrass count, equal to `count_weierstrass`."""
        p = self.p
        twisted = sum(map(mul, self.chi[p - lam:2 * p - lam], self.S))
        return p * (p + 1) + self.inf_count + twisted


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


def smooth_correction(fibers: list[FpFiber], p: int) -> int:
    """Sum of p * (fixed non-identity components) over F_p-rational cusps."""
    return sum(p * f.fixed_components for f in fibers)


def algebraic_trace(fibers: list[FpFiber], rational_sections: int = 0) -> int:
    """2 (for O and F) + per-fiber fixed components + fixed sections."""
    return 2 + sum(f.fixed_components for f in fibers) + rational_sections


def lefschetz_candidates(count: int, p: int, t_alg: int) -> tuple[int, int]:
    """The two sign choices for the transcendental trace alpha + beta."""
    r = count - 1 - p * p - p * t_alg
    return r - p, r + p


def count_surface(surface_q: WeierstrassSurface, p: int, sections: int = 0):
    """(smooth count, t_alg, candidates) for a Q-surface reduced mod p."""
    surf_p = surface_q.map_domain(GF(p))
    fibers = analyze_fibers_mod_p(surf_p)
    raw = count_weierstrass(surf_p)
    smooth = raw + smooth_correction(fibers, p)
    t_alg = algebraic_trace(fibers, sections)
    return smooth, t_alg, lefschetz_candidates(smooth, p, t_alg)


# ---------------------------------------------------------------------------
# count cache (append-only, conflict-checked)
# ---------------------------------------------------------------------------

class CountCache:
    """Append-only store of raw smooth counts keyed by (family digest, p, lambda).

    Puts made inside `batch()` reach the file in one append when the block
    ends; outside a batch each put appends at once.
    """

    def __init__(self, path=None):
        self.path = path
        self.data: dict[tuple[str, int, int], int] = {}
        self._pending: list[str] | None = None   # lines of the open batch
        if path is not None:
            self._load()

    def _load(self):
        try:
            with open(self.path) as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return
        data = self.data
        for line in lines:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 4:
                print(f"cache: skipping corrupt line {line.strip()!r}", file=sys.stderr)
                continue
            key, n = (parts[0], int(parts[1]), int(parts[2])), int(parts[3])
            if data.setdefault(key, n) != n:
                raise CountingError(
                    f"cache conflict for {key}: {data[key]} vs {n} (determinism breach)"
                )

    def get(self, fam: str, p: int, lam: int):
        return self.data.get((fam, p, lam))

    def put(self, fam: str, p: int, lam: int, count: int):
        key = (fam, p, lam)
        known = self.data.get(key)
        if known is not None:
            if known != count:
                raise CountingError(
                    f"cache conflict for {key}: {known} vs {count} (determinism breach)"
                )
            return
        self.data[key] = count
        if self.path is not None:
            line = f"{fam} {p} {lam} {count}\n"
            if self._pending is not None:
                self._pending.append(line)
            else:
                with open(self.path, "a") as fh:
                    fh.write(line)

    @contextmanager
    def batch(self):
        """Collect the puts of the block and append them in one write, also on error.

        A nested batch writes with the outermost one.
        """
        if self._pending is not None:
            yield self
            return
        self._pending = []
        try:
            yield self
        finally:
            lines, self._pending = self._pending, None
            if lines and self.path is not None:
                with open(self.path, "a") as fh:
                    fh.write("".join(lines))


def count_family_member(family, p: int, lam: int, cache: CountCache | None = None):
    """(smooth count, t_alg, candidates) for the family member at lambda mod p.

    Read off the family's twist table in O(p); a lambda on a cusp of g
    raises CountingError.  The cache keys on the family's coefficient digest.
    """
    table = twist_table(family, p)
    lam_p = lam % p
    if lam_p in table.cusps:
        raise CountingError(f"{on_cusp(family, p, lam_p)}; its member is degenerate")
    fixed = table.fixed(lam_p)
    smooth = cache.get(family.digest, p, lam) if cache is not None else None
    if smooth is None:
        smooth = table.raw_count(lam_p) + p * fixed
        if cache is not None:
            cache.put(family.digest, p, lam, smooth)
    t_alg = 2 + fixed
    return smooth, t_alg, lefschetz_candidates(smooth, p, t_alg)
