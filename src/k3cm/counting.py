"""Point counts of elliptic K3 fibrations over F_p and Lefschetz matching.

The raw count walks the (singular) Weierstrass model fiberwise with a
precomputed quadratic-character table; smooth-model corrections add the
component count of every resolved reducible fiber that is rational over
F_p.  The algebraic trace collects the Frobenius-fixed divisor classes, and
the two sign choices for the leftover +-p eigenvalue give the candidate
transcendental traces compared against the newform oracle.

Family members are counted through a quadratic twist when lambda enters
only as (t-lambda)^(1,2,3) on (a2, a4, a6).  Substituting x = (t-lambda) X
gives x^3 + a2 x^2 + a4 x + a6 = (t-lambda)^3 g_t(X), where g_t is the
untwisted model and does not depend on lambda.  A `TwistTable`, built once
per (family, p) in O(p^2), holds S(t) = sum_X chi(g_t(X)) and
Z(t) = #{X : g_t(X) = 0}, the fibers of g at its finite cusps and the fiber
at infinity with its point count; then each member costs O(p):

* raw count = p(p+1) + (infinity fiber count) + sum_{t != lambda} chi(t-lambda) S(t),
  the fiber y^2 = x^3 at t = lambda having p+1 points;
* at a finite cusp t0 of g the member has g's fiber, an I_n (n >= 2) node
  split flipping when chi(t0-lambda) = -1;
* at t = lambda the member has an I0* fiber whose residual cubic is g_lambda,
  so r3 = Z(lambda);
* at infinity the twist factor (1 - lambda s) is 1 at s = 0, so the fiber and
  its count are g's, read off the chart (a2'.reverse(3), a4'.reverse(6),
  a6'.reverse(9)).

The twist path needs Delta_g(lambda) != 0; a member with lambda on a cusp of
g is counted the general way (specialize, `analyze_fibers_mod_p`,
`count_weierstrass`), and so is every member of a prime where g has a fiber
the table cannot carry (an I* type at a fixed cusp, or one the counting
tables reject).  Families of any other shape always take the general path.

Fibers mod p are typed by the Kodaira rules of `surfaces.classify_at`, the
ones that classify fibers over Q, run over GF(p) at the roots of Delta mod p.
A fiber those rules reject (an additive type other than I_0*, a model that
is not normalized there) or an I_m* fiber with m >= 1 raises CountingError,
so that a scan skips the member.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class CountRecord:
    family: str
    p: int
    lam: int
    count: int      # smooth-model count #X(F_p)
    t_alg: int

    def __post_init__(self):
        p = self.p
        resid = self.count - 1 - p * p - p * self.t_alg
        if abs(resid) > 3 * p:
            raise CountingError(
                f"count {self.count} violates the Weil window at p={p}"
            )


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
    out = [_fp_fiber(surface, t0, chi) for t0 in sorted(roots_mod_p(surface.delta))]
    if surface.delta.degree < 24:
        out.append(replace(_fp_fiber(surface.flipped(), 0, chi), t0=None))
    return out


def _fp_fiber(surface, t0: int, chi) -> FpFiber:
    """The fiber at t0 as `classify_at` types it over GF(p), as counting data."""
    p = surface.domain.p
    where = f"{surface.name or 'surface'} mod {p} at t={t0}"
    try:
        fib = classify_at(surface, Cusp.finite(t0))
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
# twist table: one O(p^2) pass per (family, p), O(p) per member
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistTable:
    """Member-independent counting data of a (1, 2, 3)-twist family at p."""

    p: int
    chi: list          # chi[x] = (x|p), twice over, so chi[p + d] = (d|p) for -p < d < p
    S: list            # S[t] = sum_X chi(g_t(X))
    Z: list            # Z[t] = #{X : g_t(X) = 0}
    cusps: dict        # finite cusp t0 of g -> g's FpFiber there (all of kind "I")
    inf_fiber: FpFiber | None
    inf_count: int     # points on the fiber at infinity, its point at infinity included

    @staticmethod
    def build(family, p: int) -> "TwistTable":
        a2, a4, a6 = family.untwisted_mod(p)
        g = WeierstrassSurface(a2, a4, a6, name=f"{family.name}@p{p}~untwisted")
        chi = _character_table(p)
        S, Z = [], []
        for t in range(p):
            vals = _cubic_values(a2(t), a4(t), a6(t), p)
            S.append(sum(map(chi.__getitem__, vals)))
            Z.append(vals.count(0))
        cusps = {t0: _fp_fiber(g, t0, chi) for t0 in sorted(roots_mod_p(g.delta))}
        chart = WeierstrassSurface(a2.reverse(3), a4.reverse(6), a6.reverse(9), name=f"{g.name}~inf")
        inf_fiber = None
        if g.delta.degree < 18:   # the member's 24 - deg Delta > 0, Delta = (t-lambda)^6 Delta_g
            inf_fiber = replace(_fp_fiber(chart, 0, chi), t0=None)
        if any(f.kind != "I" for f in [*cusps.values(), inf_fiber] if f is not None):
            raise CountingError(f"twist table at p = {p} covers I_n fibers of g only")
        inf_vals = _cubic_values(chart.a2(0), chart.a4(0), chart.a6(0), p)
        inf_count = p + 1 + sum(map(chi.__getitem__, inf_vals))
        return TwistTable(p, chi + chi, S, Z, cusps, inf_fiber, inf_count)

    def fibers(self, lam: int) -> list[FpFiber]:
        """The member's reducible fibers, ordered as `analyze_fibers_mod_p` lists them."""
        out = []
        for t0, f in self.cusps.items():
            flip = f.n >= 2 and self.chi[self.p + t0 - lam] == -1
            out.append(FpFiber(t0, "I", f.n, f.split != flip))
        out.append(FpFiber(lam, "I*", 0, r3=self.Z[lam]))
        out.sort(key=lambda f: f.t0)
        if self.inf_fiber is not None:
            out.append(self.inf_fiber)
        return out

    def raw_count(self, lam: int) -> int:
        """The member's raw Weierstrass count, equal to `count_weierstrass`."""
        p = self.p
        twisted = sum(map(mul, self.chi[p - lam:2 * p - lam], self.S))
        return p * (p + 1) + self.inf_count + twisted


def twist_table(family, p: int) -> TwistTable | None:
    """The family's twist table at p, built on first use and kept on the family.

    None when the family is not a (1, 2, 3) twist in (t-lambda), or when g
    has a fiber at p that the table cannot carry.
    """
    tables = family.twist_tables
    if p not in tables:
        table = None
        if family.twist_exponents == (1, 2, 3):
            try:
                table = TwistTable.build(family, p)
            except CountingError:
                pass
        tables[p] = table
    return tables[p]


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
    """Append-only store of raw smooth counts keyed by (family, p, lambda)."""

    def __init__(self, path=None):
        self.path = path
        self.data: dict[tuple[str, int, int], int] = {}
        if path is not None:
            self._load()

    def _load(self):
        import os

        if not os.path.exists(self.path):
            return
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 4:
                    import sys

                    print(f"cache: skipping corrupt line {line!r}", file=sys.stderr)
                    continue
                fam, p, lam, n = parts[0], int(parts[1]), int(parts[2]), int(parts[3])
                self._insert(fam, p, lam, n)

    def _insert(self, fam, p, lam, n):
        key = (fam, p, lam)
        if key in self.data and self.data[key] != n:
            raise CountingError(
                f"cache conflict for {key}: {self.data[key]} vs {n} (determinism breach)"
            )
        self.data[key] = n

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
        self._insert(fam, p, lam, count)
        if self.path is not None:
            with open(self.path, "a") as fh:
                fh.write(f"{fam} {p} {lam} {count}\n")


def count_family_member(family, p: int, lam: int, cache: CountCache | None = None):
    """(smooth count, t_alg, candidates) for the family member at lambda mod p.

    Read off the family's twist table in O(p) where it applies; otherwise
    the member is specialized and counted by brute force.
    """
    table = twist_table(family, p)
    lam_p = lam % p
    if table is not None and lam_p not in table.cusps:
        fibers = table.fibers(lam_p)
        raw_count = lambda: table.raw_count(lam_p)
    else:
        surf = family.specialize_mod(p, lam)
        fibers = analyze_fibers_mod_p(surf)
        raw_count = lambda: count_weierstrass(surf)
    cached = cache.get(family.name, p, lam) if cache is not None else None
    if cached is None:
        smooth = raw_count() + smooth_correction(fibers, p)
        if cache is not None:
            cache.put(family.name, p, lam, smooth)
    else:
        smooth = cached
    t_alg = algebraic_trace(fibers, 0)
    return smooth, t_alg, lefschetz_candidates(smooth, p, t_alg)
