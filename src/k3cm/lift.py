"""Recovering exact section coefficients by p-adic Newton iteration.

The ansatz builder turns a contact plan into (i) affine models of the
section coordinates u and w whose linear constraints are already solved
and (ii) the polynomial system stating u^3 + a2 u^2 + a4 u + a6 = m w^2
coefficientwise.  Solutions are located exhaustively mod p, their p-adic
accuracy doubled with an exact-Jacobian Newton step, and the coordinates
recognized in Q by rational reconstruction with a final exact verification
of every equation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from k3cm.exact import (
    GF,
    QQ,
    PadicRing,
    Polynomial,
    RationalFunction,
    monic_sqrt,
    rational_reconstruct,
    row_reduce,
)
from k3cm.sections import verify_section
from k3cm.surfaces import WeierstrassSurface, node_series, root_disc_product


class LiftError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial: {exponent tuple: Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[tuple(e)] = c

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, Fraction(0)) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return self + other.scale(-1)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def derivative(self, i: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MultiPoly(self.nvars, out)

    def evaluate(self, values, domain=QQ):
        """Evaluate at domain scalars (values aligned with variables)."""
        total = domain.zero
        for e, c in self.terms.items():
            term = domain.from_fraction(c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = domain.mul(term, values[i])
            total = domain.add(total, term)
        return total

    def denominator_lcm(self) -> int:
        import math

        out = 1
        for c in self.terms.values():
            out = out * c.denominator // math.gcd(out, c.denominator)
        return out

    def pin(self, i: int) -> "MultiPoly":
        """Substitute variable i := 1 and drop it from the variable list."""
        out: dict = {}
        for e, c in self.terms.items():
            e2 = e[:i] + e[i + 1 :]
            v = out.get(e2, Fraction(0)) + c
            if v:
                out[e2] = v
            else:
                out.pop(e2, None)
        return MultiPoly(self.nvars - 1, out)

    def __repr__(self):
        return f"MultiPoly({self.terms})"


@dataclass
class PolySystem:
    """Equations over Q in named variables, with optional guard equations.

    The core equations drive the Newton iteration (a square invertible
    subsystem is selected at the mod-p stage); guards are extra equations
    verified only on exact rational candidates.
    """

    variables: list[str]
    equations: list[MultiPoly]
    guards: list[MultiPoly] = field(default_factory=list)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def check_p_integral(self, p: int):
        for eq in self.equations + self.guards:
            if eq.denominator_lcm() % p == 0:
                raise LiftError(f"system coefficients are not {p}-integral")


# ---------------------------------------------------------------------------
# the section ansatz
# ---------------------------------------------------------------------------

@dataclass
class SectionAnsatz:
    """Degree-bounded u and w with contact constraints already solved.

    u_affine / w_affine: per-coefficient affine forms over the free
    variables (z_1..z_r for u, then z_{r+1}.. for w, then m last).  The pair
    (m, w) carries a scale gauge (m, w) ~ (m c^2, w/c); `pinned` removes it
    by fixing one free w-coordinate to 1.
    """

    surface: WeierstrassSurface
    plan: list
    u_affine: list   # MultiPoly per t-coefficient of u (degree <= 4)
    w_affine: list   # MultiPoly per t-coefficient of w (degree <= 6)
    n_u_free: int
    n_w_free: int
    system: PolySystem
    pin_index: int | None = None

    def u_for(self, values, domain=QQ) -> Polynomial:
        return Polynomial(domain, [a.evaluate(values, domain) for a in self.u_affine])

    def pinned(self, j: int) -> "SectionAnsatz":
        """Gauge-fixed copy with free w-coordinate j set to 1."""
        if not 0 <= j < self.n_w_free:
            raise LiftError("pin index out of range")
        var = self.n_u_free + j
        names = [n for i, n in enumerate(self.system.variables) if i != var]
        return SectionAnsatz(
            surface=self.surface,
            plan=self.plan,
            u_affine=[a.pin(var) for a in self.u_affine],
            w_affine=[a.pin(var) for a in self.w_affine],
            n_u_free=self.n_u_free,
            n_w_free=self.n_w_free - 1,
            system=PolySystem(
                names,
                [e.pin(var) for e in self.system.equations],
                [g.pin(var) for g in self.system.guards],
            ),
            pin_index=j,
        )


def build_ansatz(surface: WeierstrassSurface, fibers, plan: dict, expected_disc: int | None = None) -> SectionAnsatz:
    """Polynomial system for a (P.O) = 0 section with prescribed contacts.

    plan: fiber index -> contact spec: an integer k for I_n (component pair
    {k, n-k}), or "leg" for a non-identity I_0* contact.  Degree bounds are
    4 for u and 6 for w; the fiber contact divisibilities become linear
    constraints whose inhomogeneous parts come from the node drift series.
    """
    corr = Fraction(0)
    for idx, spec in plan.items():
        f = fibers[idx]
        if f.kind == "I*" and f.n:
            raise LiftError("I_m* contacts are not part of the ansatz builder")
        corr += f.correction(int(spec) if f.kind == "I" else "near")
    hgt = 4 - corr
    if hgt <= 0:
        raise LiftError(f"infeasible plan: implied height {hgt} <= 0")
    if (2 * hgt).denominator % 2 == 0:
        raise LiftError(f"plan violates 2-adic integrality: 2h = {2 * hgt}")
    implied = -hgt * root_disc_product(fibers)
    if expected_disc is not None and implied != expected_disc:
        raise LiftError(f"plan implies disc {implied}, not the target {expected_disc}")

    rows_u, rhs_u = [], []
    rows_w, rhs_w = [], []
    for idx, spec in plan.items():
        f = fibers[idx]
        if f.kind == "I":
            k = int(spec)
            ku, kw = k, k
        else:
            ku, kw = 1, 2
        _contact_rows(surface, f, ku, 5, rows_u, rhs_u, node=True)
        _contact_rows(surface, f, kw, 7, rows_w, rhs_w, node=False)
    u_aff, nu = _affine_solutions(rows_u, rhs_u, 5, 0)
    w_aff, nw = _affine_solutions(rows_w, rhs_w, 7, nu)
    nvars = nu + nw + 1
    u_aff = [_expand_vars(a, nvars) for a in u_aff]
    w_aff = [_expand_vars(a, nvars) for a in w_aff]

    # coefficientwise equations of u^3 + a2 u^2 + a4 u + a6 - m w^2
    m_var = MultiPoly.variable(nvars, nvars - 1)
    u2 = _convolve(u_aff, u_aff, nvars)
    u3 = _convolve(u2, u_aff, nvars)
    a2co = [MultiPoly.constant(nvars, c) for c in surface.a2.coeffs]
    a4co = [MultiPoly.constant(nvars, c) for c in surface.a4.coeffs]
    a6co = [MultiPoly.constant(nvars, c) for c in surface.a6.coeffs]
    terms = [u3, _convolve(a2co, u2, nvars), _convolve(a4co, u_aff, nvars), a6co]
    w2 = _convolve(w_aff, w_aff, nvars)
    mw2 = [m_var * c for c in w2]
    deg = max(len(t) for t in terms + [mw2])
    eqs = []
    for i in range(deg):
        e = MultiPoly(nvars)
        for t in terms:
            if i < len(t):
                e = e + t[i]
        if i < len(mw2):
            e = e - mw2[i]
        if not e.is_zero():
            eqs.append(e)
    names = [f"z{i+1}" for i in range(nu + nw)] + ["m"]
    system = PolySystem(names, eqs)
    return SectionAnsatz(surface, plan, u_aff, w_aff, nu, nw, system)


def _contact_rows(surface, fiber, k, width, rows, rhs, node: bool):
    """Linear conditions: the first k local coefficients match the target.

    For u the target is the node drift series (x = 0 line for star fibers);
    for w the target is zero.
    """
    cusp = fiber.cusp
    if cusp.kind == "orbit":
        raise LiftError("ansatz contacts at orbit cusps are unsupported")
    if cusp.kind == "infinity":
        chart = surface.flipped()
        t0 = Fraction(0)
        reversed_idx = True
    else:
        chart = surface
        t0 = cusp.value
        reversed_idx = False
    if node and fiber.kind == "I" and fiber.n >= 2:
        target = node_series(chart, t0, Fraction(fiber.node_x), k + 1)
        targets = [target[i] for i in range(k)]
    else:
        targets = [Fraction(0)] * k
    # Taylor rows: coefficient of (t0 + eps)^j expansions, eps-order i < k
    deg = width - 1
    for i in range(k):
        row = [Fraction(0)] * width
        for j in range(width):
            src = deg - j if reversed_idx else j
            if i <= j:
                row[src] += _binom(j, i) * (t0 ** (j - i))
        rows.append(row)
        rhs.append(targets[i])


def _binom(n, k):
    import math

    return Fraction(math.comb(n, k))


def _affine_solutions(rows, rhs, width, var_offset):
    """Solve the linear constraints; coefficients become affine MultiPolys.

    Returns (affine list over a temporary variable count, n_free).
    """
    aug, pivots = row_reduce(QQ, [row + [b] for row, b in zip(rows, rhs)], width)
    if any(row[width] for row in aug[len(pivots):]):
        raise LiftError("contact plan is linearly inconsistent")
    free_cols = [c for c in range(width) if c not in pivots]
    nfree = len(free_cols)
    # temporary total variable count: var_offset + nfree + slack; expanded later
    tmp_nvars = var_offset + nfree + 1
    coeffs = []
    for c in range(width):
        if c in free_cols:
            i = free_cols.index(c)
            coeffs.append(MultiPoly.variable(tmp_nvars, var_offset + i))
        else:
            rrow = pivots.index(c)
            e = MultiPoly.constant(tmp_nvars, aug[rrow][width])
            for fi, fc in enumerate(free_cols):
                val = aug[rrow][fc]
                if val:
                    e = e - MultiPoly.variable(tmp_nvars, var_offset + fi).scale(val)
            coeffs.append(e)
    return coeffs, nfree


def _expand_vars(mp: MultiPoly, nvars: int) -> MultiPoly:
    out = {}
    for e, c in mp.terms.items():
        e2 = tuple(list(e) + [0] * (nvars - len(e)))
        out[e2] = c
    return MultiPoly(nvars, out)


def _convolve(a, b, nvars):
    out = [MultiPoly(nvars) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if y.is_zero():
                continue
            out[i + j] = out[i + j] + x * y
    return out


# ---------------------------------------------------------------------------
# Algorithm steps: exhaustive mod-p solve, Newton doubling, lift + verify
# ---------------------------------------------------------------------------

def solve_mod_p(ansatz: SectionAnsatz, p: int) -> list[tuple[int, ...]]:
    """All solutions of the gauge-fixed ansatz system over F_p, by structured search.

    The free u-coefficients are scanned exhaustively; the p^(n_u) values
    scanned are capped at 2*10^6.  For each u, R = u^3 + a2 u^2 + a4 u + a6
    must be lc(R) times the square of a monic w0, and then w = c*w0 for a
    scalar c, so one linear solve of w_affine(z_w) = c*w0 in (z_w, c) gives
    z_w and m = lc(R)/c^2.  The pin fixes the scale, so a u yields at most
    one solution, and solutions come in the order of u.  Each candidate is
    checked against every equation.  Empty output is a report, not an error.
    """
    ansatz.system.check_p_integral(p)
    F = GF(p)
    nu, nw = ansatz.n_u_free, ansatz.n_w_free
    if ansatz.pin_index is None and nw:
        raise LiftError("the (m, w) scale is not fixed: pin a free w-coordinate first")
    if p ** nu > 2 * 10**6:
        raise LiftError(f"mod-{p} search space of {p}^{nu} values of u exceeds the cap of 2*10^6")
    surf_p = ansatz.surface.map_domain(F)
    u_rows = _affine_rows(ansatz.u_affine, 0, nu, F)
    w_rows = _affine_rows(ansatz.w_affine, nu, nw, F)
    sols = []
    for zu in itertools.product(range(p), repeat=nu):
        u = Polynomial(F, [sum((a * z for a, z in zip(row, zu)), row[nu]) % p for row in u_rows])
        R = ((u + surf_p.a2) * u + surf_p.a4) * u + surf_p.a6
        if R.is_zero():
            continue
        w0 = monic_sqrt(R.monic())
        if w0 is None or w0.degree >= len(w_rows):
            continue
        # w_affine(z_w) - c*w0 = 0, with z_w and c as the unknowns
        rows = [row[:nw] + [-w0[j] % p, -row[nw] % p] for j, row in enumerate(w_rows)]
        aug, pivots = row_reduce(F, rows, nw + 1)
        c = aug[nw][nw + 1] if len(pivots) > nw else 0
        if not c or any(row[nw + 1] for row in aug[nw + 1 :]):
            continue
        values = zu + tuple(row[nw + 1] for row in aug[:nw]) + (F.div(R.leading(), c * c),)
        if all(eq.evaluate(values, F) == 0 for eq in ansatz.system.equations):
            sols.append(values)
    return sols


def _affine_rows(affs, offset: int, n: int, F) -> list[list[int]]:
    """Affine forms in variables offset..offset+n-1 as rows [coefficients..., constant] over F."""
    rows = []
    for aff in affs:
        row = [0] * (n + 1)
        for e, c in aff.terms.items():
            row[e.index(1) - offset if any(e) else n] = F.from_fraction(c)
        rows.append(row)
    return rows


def newton_double(system: PolySystem, solution, p: int, k: int, row_choice=None):
    """One Newton step: precision k -> 2k with an exact Jacobian solve.

    solution: tuple of residues mod p^k satisfying the system mod p^k.
    Returns (new solution mod p^{2k}, row_choice) where row_choice is the
    square invertible equation subset selected at the first step.
    """
    n = len(system.variables)
    mod_small = p ** k
    ring = PadicRing(p, 2 * k)
    mod = ring.modulus
    # residuals must vanish mod p^k
    for eq in system.equations:
        if _eval_int(eq, solution, mod_small) % mod_small:
            raise LiftError("newton step rejected: residual does not vanish mod p^k")
    if row_choice is None:
        jac_p = [
            [_eval_int(eq.derivative(j), solution, p) % p for j in range(n)]
            for eq in system.equations
        ]
        row_choice = _independent_rows(jac_p, p)
        if row_choice is None:
            raise LiftError("singular Jacobian mod p: regularity condition fails")
    eqs = [system.equations[i] for i in row_choice]
    fvec = [_eval_int(eq, solution, mod) for eq in eqs]
    jac = [
        [_eval_int(eq.derivative(j), solution, mod) for j in range(n)] for eq in eqs
    ]
    delta = _solve_linear_mod(jac, [-f % mod for f in fvec], ring)
    new = tuple((s + d) % mod for s, d in zip(solution, delta))
    for eq in system.equations:
        if _eval_int(eq, new, mod) % mod:
            raise LiftError("newton step rejected: residual did not double in valuation")
    return new, row_choice


def _eval_int(eq: MultiPoly, values, mod: int) -> int:
    den = eq.denominator_lcm()
    inv_den = pow(den, -1, mod)
    total = 0
    for e, c in eq.terms.items():
        term = c.numerator * (den // c.denominator) % mod
        for i, k in enumerate(e):
            if k:
                term = term * pow(values[i], k, mod) % mod
        total = (total + term) % mod
    return total * inv_den % mod


def _independent_rows(jac_p, p):
    """The first rows of jac_p, in order, forming an invertible square submatrix mod p.

    Taking each row that is independent of those already taken is the same
    as taking the pivot columns of the transpose in reduced echelon form.
    None when the rank is below the number of columns.
    """
    n = len(jac_p[0]) if jac_p else 0
    _, pivots = row_reduce(GF(p), [list(col) for col in zip(*jac_p)], len(jac_p))
    return pivots if len(pivots) == n else None


def _solve_linear_mod(a, b, ring: PadicRing):
    """Solve a x = b in Z/p^k (the ring) for a matrix invertible mod p."""
    n = len(b)
    m, pivots = row_reduce(ring, [row + [v] for row, v in zip(a, b)], n)
    if len(pivots) < n:
        raise LiftError("Jacobian lost invertibility mod p")
    return [row[n] for row in m]


def _lift_one(system: PolySystem, sol, p: int, max_doublings: int, trace):
    """Newton-double one mod-p solution, reconstructing and verifying after each step.

    Returns (values, approximation): values is the exact rational solution
    satisfying every equation and guard over Q, or None when the precision
    budget runs out or a step fails; the approximation is the last one reached.
    Each completed step appends (p, k) to trace when a list is given.
    """
    cur, k, row_choice = sol, 1, None
    for _ in range(max_doublings):
        try:
            cur, row_choice = newton_double(system, cur, p, k, row_choice)
        except LiftError:
            break
        k *= 2
        if trace is not None:
            trace.append((p, k))
        mod = p ** k
        cand = [rational_reconstruct(c % mod, mod) for c in cur]
        if any(c is None for c in cand):
            continue
        values = tuple(cand)
        if all(eq.evaluate(values, QQ) == 0 for eq in system.equations + system.guards):
            return values, cur
    return None, cur


def lift_and_verify(ansatz: SectionAnsatz, p: int, max_doublings: int = 10, trace=None):
    """Full Algorithm-12 loop; returns the exact rational solution vector.

    Gauge-fixes the (m, w) scale by pinning each free w-coordinate in turn,
    doubles the p-adic precision with verified Newton steps, reconstructs
    every coordinate, and accepts only candidates satisfying all equations
    and guards exactly over Q.
    """
    best, reasons = None, []
    pins = range(ansatz.n_w_free) if ansatz.pin_index is None and ansatz.n_w_free else [None]
    for pin in pins:
        fixed = ansatz.pinned(pin) if pin is not None else ansatz
        try:
            sols = solve_mod_p(fixed, p)
        except LiftError as exc:
            reasons.append(f"pin {pin}: {exc}")
            continue
        for sol in sols:
            values, best = _lift_one(fixed.system, sol, p, max_doublings, trace)
            if values is not None:
                return values, fixed
        reasons.append(f"pin {pin}: none of {len(sols)} mod-{p} solutions lifted")
    why = "; ".join(reasons)
    if best is not None:
        raise LiftError(f"precision budget exhausted at p = {p}; best approximation {best} ({why})")
    raise LiftError(f"no mod-p solution lifted to Q at p = {p} ({why})")


def recover_section(surface, fibers, plan: dict, p: int, expected_disc=None, trace=None):
    """build_ansatz + solve + lift, returning a verified Section."""
    ansatz = build_ansatz(surface, fibers, plan, expected_disc)
    values, fixed = lift_and_verify(ansatz, p, trace=trace)
    u = fixed.u_for(values, QQ)
    return verify_section(surface, RationalFunction(u))


def lift_system(system: PolySystem, p: int, max_doublings: int = 10, trace=None):
    """Generic Algorithm-12 run on a stand-alone polynomial system.

    Solutions mod p are located by exhaustive search (the search space is
    capped), Newton-doubled, reconstructed, and verified exactly; the first
    candidate satisfying every equation and guard over Q wins.
    """
    system.check_p_integral(p)
    n = system.nvars
    if p ** n > 2 * 10**6:
        raise LiftError(f"mod-{p} search space too large for the exhaustive step")
    F = GF(p)
    sols = [
        vals
        for vals in itertools.product(range(p), repeat=n)
        if all(eq.evaluate(vals, F) == 0 for eq in system.equations)
    ]
    best = None
    for sol in sols:
        values, best = _lift_one(system, sol, p, max_doublings, trace)
        if values is not None:
            return values
    if best is not None:
        raise LiftError(f"no rational solution found; best approximation {best}")
    raise LiftError("no mod-p solution exists")
