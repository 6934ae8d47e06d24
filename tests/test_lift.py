import itertools
import random
from fractions import Fraction

import pytest

from k3cm import lift
from k3cm.exact import GF, QQ, PadicRing, Polynomial, RationalFunction, row_reduce
from k3cm.fixtures import parse_ratfun, registry
from k3cm.lift import (
    LiftError,
    MultiPoly,
    PolySystem,
    _independent_rows,
    _solve_linear_mod,
    build_ansatz,
    lift_and_verify,
    lift_system,
    newton_double,
    recover_section,
    solve_mod_p,
)
from k3cm.newforms import NewformOracle
from k3cm.search import usable_primes
from k3cm.sections import height, ns_discriminant, verify_section
from k3cm.surfaces import classify_fibers


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def fam(reg):
    return reg.family("xlm")


def plan_for(fibers, spec):
    plan = {}
    for i, f in enumerate(fibers):
        if f.label() in spec:
            plan[i] = spec[f.label()]
    return plan


def test_multipoly_basics():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = x * x - MultiPoly.constant(2, Fraction(4, 9))
    assert f.evaluate((Fraction(2, 3), Fraction(0))) == 0
    assert f.derivative(0).evaluate((Fraction(1), Fraction(0))) == 2
    g = (x + y) * (x - y)
    assert g.evaluate((Fraction(3), Fraction(2))) == 5


def test_simple_square_system():
    # x^2 = 4/9 over F_7: roots 3 and 4; lift yields +-2/3
    f = MultiPoly.variable(1, 0) * MultiPoly.variable(1, 0) - MultiPoly.constant(1, Fraction(4, 9))
    system = PolySystem(["x"], [f])
    values = lift_system(system, 7)
    assert values[0] in (Fraction(2, 3), Fraction(-2, 3))


def test_newton_doubling_step():
    f = MultiPoly.variable(1, 0) * MultiPoly.variable(1, 0) - MultiPoly.constant(1, Fraction(4, 9))
    system = PolySystem(["x"], [f])
    new, rows = newton_double(system, (3,), 7, 1)
    # 2/3 = 2 * 33 = 17 mod 49, and 17 = 3 mod 7
    assert new[0] == 17
    assert (17 * 17 * 9 - 4) % 49 == 0 and 17 % 7 == 3


def test_irrational_system_never_stabilizes():
    f = MultiPoly.variable(1, 0) * MultiPoly.variable(1, 0) - MultiPoly.constant(1, 2)
    system = PolySystem(["x"], [f])
    with pytest.raises(LiftError):
        lift_system(system, 7, max_doublings=6)


def test_non_p_integral_rejected():
    f = MultiPoly.variable(1, 0) - MultiPoly.constant(1, Fraction(1, 7))
    system = PolySystem(["x"], [f])
    with pytest.raises(LiftError):
        system.check_p_integral(7)


def test_infeasible_plan_raises(reg, fam):
    surf = fam.specialize(Fraction(5, 32))
    fibers = classify_fibers(surf)
    plan = plan_for(fibers, {"I5": 2, "I3": 1, "I7": 3, "I0*": "leg"})
    with pytest.raises(LiftError):
        build_ansatz(surf, fibers, plan)  # correction sum exceeds 4


def test_disc88_roundtrip(reg, fam):
    row = next(r for r in reg.table1 if r.disc == -88)
    surf = fam.specialize(row.lam, name="d88")
    fibers = classify_fibers(surf)
    plan = plan_for(fibers, {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"})
    trace = []
    sec = recover_section(surf, fibers, plan, 19, expected_disc=-88, trace=trace)
    assert sec.u == parse_ratfun(row.u_text)
    assert height(sec) == Fraction(11, 105)
    assert ns_discriminant(surf, [sec]) == -88
    # quadratic convergence: the doubling trace is 2, 4, 8, ...
    ks = [k for _, k in trace]
    assert ks == [2 ** (i + 1) for i in range(len(ks))]


def test_a_member_lift_classifies_once(reg, fam, monkeypatch):
    """classify_fibers of a family member is the list the member takes from g, so classifying
    and then lifting classifies no fiber past g's own."""
    import k3cm.surfaces

    row = next(r for r in reg.table1 if r.disc == -88)
    surf = fam.specialize(row.lam, name="d88")
    fam.fixed_fibers
    calls = []
    original = k3cm.surfaces._classify
    monkeypatch.setattr(k3cm.surfaces, "_classify", lambda *a: calls.append(a) or original(*a))
    fibers = classify_fibers(surf)
    assert fibers is surf.fibers
    plan = plan_for(fibers, {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"})
    assert recover_section(surf, fibers, plan, 19, expected_disc=-88).u == parse_ratfun(row.u_text)
    assert calls == []


def test_a_direct_surface_lift_classifies_once(reg, fam, monkeypatch):
    """classify_fibers of a plain surface keeps its list as the surface's fibers, which the
    lift's verify_section reads: classifying and then lifting walks the fibers once."""
    import k3cm.surfaces

    row = next(r for r in reg.table1 if r.disc == -88)
    member = fam.specialize(row.lam)
    surf = k3cm.surfaces.WeierstrassSurface(member.a2, member.a4, member.a6, name="d88")
    walks = []
    original = k3cm.surfaces.walk_fibers
    monkeypatch.setattr(k3cm.surfaces, "walk_fibers", lambda *a, **k: walks.append(a[0]) or original(*a, **k))
    fibers = classify_fibers(surf)
    assert fibers is surf.fibers and classify_fibers(surf) is fibers
    plan = plan_for(fibers, {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"})
    assert recover_section(surf, fibers, plan, 19, expected_disc=-88).u == parse_ratfun(row.u_text)
    assert walks == [surf]


def table1_case(fam, row):
    """(surface, plan, printed section) of a Table 1 row.

    The plan is read off the printed section's contacts.
    """
    surf = fam.specialize(row.lam)
    sec0 = verify_section(surf, parse_ratfun(row.u_text))
    plan = {
        idx: (c.k if c.fiber.kind == "I" else "leg")
        for idx, c in sec0.contacts.items()
        if c.nonidentity
    }
    return surf, plan, sec0


def low_height_lifts(reg, fam):
    """(row, surface, fibers, plan, p, printed section) for five low-height rows.

    The -88, -312 and -520 rows, whose section was derived by hand-solvable
    linear constraints, meet one-column Jacobians; the -708 and -1380 rows
    meet 9x3 and 11x5 ones.
    """
    targets = {-88, -312, -520, -708, -1380}
    for row in reg.table1:
        if row.disc not in targets or row.status == "defective":
            continue
        surf, plan, sec0 = table1_case(fam, row)
        p = usable_primes(fam, NewformOracle(row.disc), 60)[0]
        yield row, surf, classify_fibers(surf), plan, p, sec0


def test_roundtrip_low_height_rows(reg, fam):
    # the pipeline must reproduce u exactly
    for row, surf, fibers, plan, p, sec0 in low_height_lifts(reg, fam):
        sec = recover_section(surf, fibers, plan, p, expected_disc=row.disc)
        assert sec.u == sec0.u, row.disc


# ---------------------------------------------------------------------------
# the Newton step's linear algebra against the elimination it replaced
# ---------------------------------------------------------------------------

def greedy_rank_mod(rows, p):
    """Reference rank mod p, by its own Gauss-Jordan loop."""
    m = [r[:] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def greedy_rows(jac_p, p):
    """Reference row choice: keep each row that raises the rank mod p."""
    n = len(jac_p[0]) if jac_p else 0
    chosen, basis = [], []
    for idx, row in enumerate(jac_p):
        if greedy_rank_mod(basis + [row], p) == len(basis) + 1:
            basis.append(row)
            chosen.append(idx)
            if len(chosen) == n:
                return chosen
    return None


def test_row_choice_matches_greedy_on_lift_jacobians(reg, fam, monkeypatch):
    seen = []

    def recording(jac_p, p):
        got = _independent_rows(jac_p, p)
        seen.append((jac_p, p, got))
        return got

    monkeypatch.setattr(lift, "_independent_rows", recording)
    discs = set()
    for row, surf, fibers, plan, p, sec0 in low_height_lifts(reg, fam):
        assert recover_section(surf, fibers, plan, p, expected_disc=row.disc).u == sec0.u
        discs.add(row.disc)
    assert discs == {-88, -312, -520, -708, -1380}
    assert seen
    for jac_p, p, got in seen:
        assert got is not None and got == greedy_rows(jac_p, p)


def test_lift_skips_a_dependent_jacobian_row(monkeypatch):
    # the second equation is twice the first: Newton must square up rows 0 and 2
    seen = []

    def recording(jac_p, p):
        got = _independent_rows(jac_p, p)
        seen.append((jac_p, p, got))
        return got

    monkeypatch.setattr(lift, "_independent_rows", recording)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    xy = x * y - 2
    assert lift_system(PolySystem(["x", "y"], [xy, xy.scale(2), x - y - 1]), 7) == (2, 1)
    assert seen
    for jac_p, p, got in seen:
        assert got == greedy_rows(jac_p, p) == [0, 2]


def test_row_choice_matches_greedy_on_random_matrices():
    rng = random.Random(5)
    outcomes = set()
    for p in (7, 19):
        for _ in range(150):
            n = rng.randint(1, 5)
            m = rng.randint(n, n + 4)
            if rng.random() < 0.3:
                # rank at most r < n: a product through an r-dimensional space
                r = rng.randint(0, n - 1)
                left = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
                right = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
                jac = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                       if r else [0] * n for row in left]
            else:
                jac = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            got = _independent_rows(jac, p)
            assert got == greedy_rows(jac, p), (p, jac)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_solve_linear_mod_solves_mod_p_power():
    rng = random.Random(11)
    for p, k in ((7, 2), (7, 4), (19, 2), (19, 8)):
        ring = PadicRing(p, k)
        mod = p ** k
        for _ in range(20):
            n = rng.randint(1, 5)
            while True:
                a = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
                if greedy_rank_mod(a, p) == n:
                    break
            b = [rng.randrange(mod) for _ in range(n)]
            x = _solve_linear_mod(a, b, ring)
            assert all(
                (sum(aij * xj for aij, xj in zip(row, x)) - bi) % mod == 0
                for row, bi in zip(a, b)
            )
    with pytest.raises(LiftError):
        _solve_linear_mod([[7, 1], [14, 2]], [1, 1], PadicRing(7, 2))


def test_mod_p_solution_count_at_split_prime(reg, fam):
    # one gauge-fixed solution pair at a split prime for the -88 plan
    surf = fam.specialize(Fraction(5, 32))
    fibers = classify_fibers(surf)
    plan = plan_for(fibers, {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"})
    ansatz = build_ansatz(surf, fibers, plan, expected_disc=-88)
    fixed = ansatz.pinned(0)
    sols = solve_mod_p(fixed, 19)
    assert len(sols) == 1


# ---------------------------------------------------------------------------
# the mod-p solve against the m-scanning search it replaced
# ---------------------------------------------------------------------------

def reference_solve_mod_p(ansatz, p):
    """The m-scanning mod-p solve: every u, every m in F_p*, both signs of w.

    For each u and m it takes the square root of RHS(u)/m with the smallest
    root of the leading coefficient, tries w and -w, and reads z_w off the
    w-affine model by a linear solve.
    """
    ansatz.system.check_p_integral(p)
    F = GF(p)
    nu, nw = ansatz.n_u_free, ansatz.n_w_free
    if p ** (nu + 1) > 2 * 10**6:
        raise LiftError(f"mod-{p} search space too large for the exhaustive step")
    roots = {r * r % p: r for r in range(p - 1, 0, -1)}
    surf_p = ansatz.surface.map_domain(F)
    sols = []
    for zu in itertools.product(range(p), repeat=nu):
        u = Polynomial(F, [(sum(F.from_fraction(c) * z for c, z in zip(row, zu)) + F.from_fraction(row[nu])) % p
                           for row in ansatz.u_affine])
        R = surf_p.rhs(RationalFunction(u)).num
        if R.is_zero():
            continue
        for m in range(1, p):
            w = _reference_sqrt(R.scale(F.inv(m)), roots)
            if w is None:
                continue
            for wsign in (w, -w):
                zw = _reference_match_w(ansatz, wsign, F)
                if zw is None:
                    continue
                values = tuple(list(zu) + zw + [m])
                if all(eq.evaluate(values, F) == 0 for eq in ansatz.system.equations):
                    if values not in sols:
                        sols.append(values)
    return sols


def _reference_sqrt(f, roots):
    """Square root of f over F_p with leading coefficient roots[lc(f)], or None."""
    F = f.domain
    if f.degree % 2:
        return None
    r = roots.get(f.leading())
    if r is None:
        return None
    n = f.degree // 2
    out = [0] * (n + 1)
    out[n] = r
    inv2r = F.inv(2 * r % F.p)
    for i in range(n - 1, -1, -1):
        acc = f[i + n]
        for j in range(i + 1, n):
            acc = F.sub(acc, F.mul(out[j], out[i + n - j]))
        out[i] = F.mul(acc, inv2r)
    w = Polynomial(F, out)
    return w if w * w == f else None


def _reference_match_w(ansatz, w, F):
    """z_w with w_affine(z_w) = w, when the solve is unique; else None."""
    nw = ansatz.n_w_free
    rows, rhs = [], []
    for j, row in enumerate(ansatz.w_affine):
        assert len(row) == nw + 1
        rows.append([F.from_fraction(c) for c in row[:nw]])
        rhs.append(F.sub(w[j], F.from_fraction(row[nw])))
    aug, pivots = row_reduce(F, [row + [b] for row, b in zip(rows, rhs)], nw)
    if len(pivots) < nw or any(row[nw] for row in aug[nw:]):
        return None
    return [row[nw] for row in aug[:nw]]


def test_solve_mod_p_matches_reference(reg, fam):
    # every pin of the low-height rows (-1380 at p = 19 scans p^2 values of
    # u), and a pin of -1740 at p = 23 that has no solution
    cases = [(row.disc, ansatz, p, pin)
             for row, surf, fibers, plan, p, sec0 in low_height_lifts(reg, fam)
             for ansatz in [build_ansatz(surf, fibers, plan, expected_disc=row.disc)]
             for pin in range(ansatz.n_w_free)]
    row = next(r for r in reg.table1 if r.disc == -1740)
    surf, plan, _ = table1_case(fam, row)
    cases.append((row.disc, build_ansatz(surf, surf.fibers, plan, expected_disc=row.disc), 23, 0))
    found = []
    for disc, ansatz, p, pin in cases:
        fixed = ansatz.pinned(pin)
        sols = solve_mod_p(fixed, p)
        assert sols == reference_solve_mod_p(fixed, p), (disc, p, pin)
        found.append((disc, ansatz.n_u_free, len(sols)))
    assert len(found) == 9 and (-1380, 2, 1) in found and (-1740, 2, 0) in found


def test_solve_mod_p_needs_a_fixed_scale(fam):
    surf = fam.specialize(Fraction(5, 32))
    fibers = classify_fibers(surf)
    plan = plan_for(fibers, {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"})
    ansatz = build_ansatz(surf, fibers, plan, expected_disc=-88)
    with pytest.raises(LiftError, match="scale is not fixed"):
        solve_mod_p(ansatz, 19)


def test_failed_lift_names_the_cap_and_the_prime(reg, fam):
    # 127^3 values of u exceed the 2*10^6 cap for each of the five pins
    row = next(r for r in reg.table1 if r.disc == -2220)
    surf, plan, _ = table1_case(fam, row)
    ansatz = build_ansatz(surf, surf.fibers, plan, expected_disc=row.disc)
    assert (ansatz.n_u_free, ansatz.n_w_free) == (3, 5)
    with pytest.raises(LiftError, match="at p = 127") as err:
        lift_and_verify(ansatz, 127)
    assert str(err.value).count("127^3 values of u exceeds the cap") == 5
