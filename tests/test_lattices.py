import gc
import random
from fractions import Fraction

import pytest

from k3cm.lattices import (
    DiscriminantForm,
    GramLattice,
    MatchError,
    assemble_ns_gram,
    discriminant_form,
    form_lattice,
    match_transcendental,
    smith_normal_form,
)
from k3cm.quadforms import BinaryQuadraticForm, enumerate_reduced
from k3cm.sections import assemble_ns
from k3cm.surfaces import Cusp, FiberDescriptor
from oracles import b_value, dense_minors, det_bareiss, group_order, mat_mul, q_value, reference_discriminant_form


def test_smith_examples():
    D, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]
    D, U, V = smith_normal_form([[1, 0], [0, 1]])
    assert [D[0][0], D[1][1]] == [1, 1]
    # A2 block: determinant 3, group Z/3
    D, U, V = smith_normal_form([[-2, 1], [1, -2]])
    assert [D[0][0], D[1][1]] == [1, 3]


def test_smith_random_properties():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-10, 11) for _ in range(n)] for _ in range(n)]
        D, U, V = smith_normal_form(m)
        assert mat_mul(mat_mul(U, m), V) == D
        assert abs(det_bareiss(U)) == 1
        assert abs(det_bareiss(V)) == 1
        diag = [D[i][i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        assert abs(det_bareiss(m)) == abs(det_bareiss(D))


def test_gram_lattice_basics():
    U = GramLattice([[0, 1], [1, 0]])
    assert U.det == -1 and U.signature() == (1, 1) and U.is_even()
    with pytest.raises(ValueError):
        GramLattice([[0, 1], [2, 0]])


def test_gram_lattice_refuses_entries_that_are_not_integers():
    for gram, bad in (([[Fraction(3, 2), 1], [1, 2.7]], r"\(0, 0\)"), ([[2, 1], [1, 2.7]], r"\(1, 1\) = 2.7")):
        with pytest.raises(ValueError, match=bad):
            GramLattice(gram)
    assert GramLattice([[Fraction(4, 2), 1.0], [1, -2]]).gram == ((2, 1), (1, -2))


def test_discriminant_form_unimodular_trivial():
    U = GramLattice([[0, 1], [1, 0]])
    df = discriminant_form(U)
    assert df.orders == () and group_order(df) == 1


def test_discriminant_form_a2():
    # negative definite A2: group Z/3 with q(g) = -2/3 = 4/3 mod 2Z
    a2 = GramLattice([[-2, 1], [1, -2]])
    df = discriminant_form(a2)
    assert df.orders == (3,)
    assert q_value(df, (1,)) in (Fraction(4, 3), Fraction(2, 3))
    # the generator or its double realizes -2/3 mod 2Z
    assert Fraction(4, 3) in {q_value(df, (1,)), q_value(df, (2,))}


def test_discriminant_form_group_order_random():
    rng = random.Random(5)
    done = 0
    while done < 50:
        n = rng.randrange(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(-4, 5)
                if i == j:
                    v = 2 * rng.randrange(-3, 4)
                m[i][j] = m[j][i] = v
        lat = GramLattice(m)
        d = lat.det
        if d == 0:
            continue
        done += 1
        df = discriminant_form(lat)
        assert group_order(df) == abs(d)


def test_match_transcendental_rank2_selfcheck():
    # [2,0,44] against minus itself inside a tiny hyperbolic-shifted check:
    # NS = U + (-f) has q_NS = -q_f and determinant matching f's discriminant.
    f = BinaryQuadraticForm(1, 0, 22)
    neg = GramLattice(
        [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, -2, 0],
            [0, 0, 0, -44],
        ]
    )
    assert match_transcendental(neg) == f


def test_match_transcendental_catches_wrong_signature():
    with pytest.raises(MatchError):
        match_transcendental(GramLattice([[2, 0], [0, 2]]))


def root_blocks(*labels):
    """Descriptor root blocks of fibers given as (kind, n); the cusp plays no part."""
    return [FiberDescriptor(Cusp.infinity(), kind, n) for kind, n in labels]


def test_assemble_ns_u_plus_blocks():
    # U + A1 + A2 + A4 + A6 + D4 is the rank-19 generic family lattice;
    # signature (1, 18) forces a positive determinant 2*3*5*7*4
    blocks = root_blocks(("I", 2), ("I", 3), ("I", 5), ("I", 7), ("I*", 0))
    lat = assemble_ns_gram(blocks, [])
    assert lat.rank == 19
    assert lat.signature() == (1, 18)
    assert lat.det == 840


def test_root_block_vertices_and_corrections():
    i5, i1s = root_blocks(("I", 5), ("I*", 1))
    assert [i5.vertex(k) for k in range(1, 5)] == [0, 1, 2, 3]
    assert [i1s.vertex(c) for c in ("near", "far1", "far2")] == [0, 3, 4]
    for block, bad in ((i5, 0), (i5, 5), (i5, "near"), (i1s, "far"), (i1s, 1), (i1s, "identity")):
        with pytest.raises(ValueError):
            block.vertex(bad)
    assert [i5.correction(c) for c in (None, 1, 2, 4)] == [0, Fraction(4, 5), Fraction(6, 5), Fraction(4, 5)]
    assert [i1s.correction(c) for c in ("near", "far1", "far2")] == [1, Fraction(5, 4), Fraction(5, 4)]


def test_assemble_ns_with_section_det_equals_mwl_formula():
    # section with pO=0 meeting I5 on component 1, I3 on 1, I7 on 2, I0* leg:
    # disc = -840 * (4 - 4/5 - 2/3 - 10/7 - 1) = -88
    blocks = root_blocks(("I", 5), ("I", 3), ("I", 2), ("I", 7), ("I*", 0))
    sec = (0, [1, 1, None, 2, "far1"], [])
    lat = assemble_ns_gram(blocks, [sec])
    assert lat.rank == 20
    assert lat.det == -88
    assert match_transcendental(lat) == BinaryQuadraticForm(2, 0, 11)


def test_assemble_im_star_block_disc():
    # D_5 from I_1*: fibers I5, I3, I2, I7, I1* with no section: det -840
    blocks = root_blocks(("I", 5), ("I", 3), ("I", 2), ("I", 7), ("I*", 1))
    lat = assemble_ns_gram(blocks, [])
    assert lat.rank == 20
    assert lat.det == -840
    assert lat.signature() == (1, 19)


# -- signature against the Fraction diagonalization it replaced -------------------

def fraction_signature(gram):
    """Reference (n_plus, n_minus): congruent diagonalization over Fraction."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            # find i > k with a[i][i] != 0 or combine rows to create one
            found = False
            for i in range(k + 1, n):
                if a[i][i] != 0:
                    a[k], a[i] = a[i], a[k]
                    for r in range(n):
                        a[r][k], a[r][i] = a[r][i], a[r][k]
                    found = True
                    break
            if not found:
                for i in range(k + 1, n):
                    if a[k][i] != 0:
                        for j in range(n):
                            a[k][j] += a[i][j]
                        for j in range(n):
                            a[j][k] += a[j][i]
                        found = True
                        break
            if not found:
                raise ValueError("degenerate lattice")
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / piv
                for j in range(n):
                    a[i][j] -= f * a[k][j]
                for j in range(n):
                    a[j][i] -= f * a[j][k]
    return pos, neg


def signatures(gram):
    """(integer signature, reference signature), or the errors they raise."""
    out = []
    for sig in (lambda g: GramLattice(g).signature(), fraction_signature):
        try:
            out.append(sig(gram))
        except ValueError as exc:
            out.append(str(exc))
    return out


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out, off = [[0] * n for _ in range(n)], 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = row
        off += len(g)
    return out


U_GRAM = [[0, 1], [1, 0]]
# E8(-1): a chain of seven vertices with an eighth on the fifth
E8_NEG = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]:
    E8_NEG[i][j] = E8_NEG[j][i] = 1


# U and U+U have no nonzero diagonal entry: the pivot is made by adding a
# row and column; U+E8(-1) and E8(-1)+U reach that step after swaps
ZERO_DIAGONAL_CASES = {
    "U": (U_GRAM, (1, 1)),
    "U+U": (direct_sum(U_GRAM, U_GRAM), (2, 2)),
    "U+E8(-1)": (direct_sum(U_GRAM, E8_NEG), (1, 9)),
    "E8(-1)+U": (direct_sum(E8_NEG, U_GRAM), (1, 9)),
    "E8(-1)": (E8_NEG, (0, 8)),
}
DEGENERATE_CASES = ([[0, 0], [0, 0]], direct_sum(U_GRAM, [[0]]))


def random_grams():
    """400 symmetric integer matrices of rank 1 to 7, half their diagonal zero."""
    rng = random.Random(8)
    for _ in range(400):
        n = rng.randint(1, 7)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 0 if rng.random() < 0.5 else rng.randint(-4, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.choice((0, 0, rng.randint(-3, 3)))
        yield g


def test_signature_matches_fraction_reference_on_zero_diagonal_forms():
    for name, (gram, expected) in ZERO_DIAGONAL_CASES.items():
        assert signatures(gram) == [expected, expected], name
    assert GramLattice(E8_NEG).det == 1
    for gram in DEGENERATE_CASES:
        assert signatures(gram) == ["degenerate lattice"] * 2


def test_signature_matches_fraction_reference_on_random_forms():
    degenerate = 0
    for g in random_grams():
        mine, ref = signatures(g)
        assert mine == ref, g
        degenerate += isinstance(ref, str)
    assert 0 < degenerate < 400


def test_det_matches_bareiss_reference_on_signature_test_forms():
    # the determinant is the last pivot of the signature's elimination
    grams = [gram for gram, _ in ZERO_DIAGONAL_CASES.values()]
    grams += list(DEGENERATE_CASES) + list(random_grams())
    degenerate = 0
    for g in grams:
        lat = GramLattice(g)
        want = det_bareiss(g)
        assert lat.det == want, g
        if want == 0:
            degenerate += 1
            with pytest.raises(ValueError, match="degenerate lattice"):
                lat.signature()
        else:
            assert sum(lat.signature()) == len(g)
    assert 2 < degenerate < len(grams)


def test_minors_match_dense_bareiss_oracle(certified):
    # rows that are 0 in the pivot column are rescaled when read, not at every step
    grams = [gram for gram, _ in ZERO_DIAGONAL_CASES.values()]
    grams += list(DEGENERATE_CASES) + list(random_grams())
    grams += [assemble_ns(surf, secs).gram for _, surf, secs in certified]
    short = 0
    for g in grams:
        minors = GramLattice(g)._minors
        assert minors == dense_minors(g), g
        short += len(minors) <= len(g)
    assert 2 < short < len(grams)


def test_signature_matches_fraction_reference_on_certified_lattices(certified):
    for name, surf, secs in certified:
        ns = assemble_ns(surf, secs)
        assert signatures(ns.gram) == [(1, 19), (1, 19)], name


# -- p-primary split ---------------------------------------------------------------

# 2-parts Z/2 x Z/4 (-88, -840), Z/2 x Z/8 (-112), a non-primitive reduced
# form 2[1,1,17] (-268), h = 8 (-840, -1540), and odd parts other than Z/p,
# which the isometry test searches by brute force: Z/27 and Z/3 x Z/9 (-108)
SPLIT_DISCS = (-88, -108, -112, -268, -840, -1540)


def _reduced_forms(d):
    return [discriminant_form(form_lattice(f)) for f in sorted(enumerate_reduced(d))]


def _split_examples():
    """Reduced forms of SPLIT_DISCS and the rank-19 family lattice, whose
    group (Z/2)^3 x Z/105 has three invariant factors."""
    blocks = root_blocks(("I", 2), ("I", 3), ("I", 5), ("I", 7), ("I*", 0))
    forms = [df for d in SPLIT_DISCS for df in _reduced_forms(d)]
    return forms + [discriminant_form(assemble_ns_gram(blocks, []))]


def _part_generators(df, p):
    """The generators of df's p-part, in df's coordinates: (o_i / p^e) g_i."""
    out = []
    for i, o in enumerate(df.orders):
        pe = 1
        while o % (pe * p) == 0:
            pe *= p
        if pe > 1:
            out.append(tuple(o // pe if j == i else 0 for j in range(len(df.orders))))
    return out


def _is_power_of(o, p):
    while o % p == 0:
        o //= p
    return o == 1


def test_primary_part_orders_multiply_to_group_order():
    for df in _split_examples():
        parts = df.primary_parts
        total = 1
        for p, part in parts.items():
            assert part.orders and all(_is_power_of(o, p) for o in part.orders)
            total *= group_order(part)
        assert total == group_order(df)


def test_primary_parts_are_orthogonal():
    for df in _split_examples():
        primes = sorted(df.primary_parts)
        for p in primes:
            for r in primes:
                if p < r:
                    for x in _part_generators(df, p):
                        for y in _part_generators(df, r):
                            assert b_value(df, x, y) == 0


def test_primary_part_values_match_the_whole_form():
    for df in _split_examples():
        for p, part in df.primary_parts.items():
            gens = _part_generators(df, p)
            assert len(gens) == len(part.orders)
            units = [tuple(int(i == j) for j in range(len(gens))) for i in range(len(gens))]
            for a, x in zip(units, gens):
                assert q_value(part, a) == q_value(df, x)
                for b, y in zip(units, gens):
                    assert b_value(part, a, b) == b_value(df, x, y)


def test_per_prime_isometry_matches_whole_group_oracle():
    # the per-part brute force applied to an unsplit form is the whole-group check
    compared = isometric = 0
    for d in SPLIT_DISCS:
        forms = _reduced_forms(d)
        for a in forms:
            for b in forms:
                for target in (b, b.negated()):
                    want = a._isometric_to(target)
                    assert a.is_isomorphic(target) == want, (d, a, target)
                    compared += 1
                    isometric += want
    assert compared == 2 * sum(len(enumerate_reduced(d)) ** 2 for d in SPLIT_DISCS)
    assert 0 < isometric < compared


def test_isometry_search_leaves_no_reference_cycles(certified):
    # every certified NS form against itself and its T-side negation; the
    # search must free what it builds without the cyclic collector
    forms = [discriminant_form(assemble_ns(surf, secs)) for _, surf, secs in certified]
    assert any(len(f.orders) > 1 for f in forms)
    gc.collect()
    gc.disable()
    try:
        for form in forms:
            assert form.is_isomorphic(form)
            form.is_isomorphic(form.negated())
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- genus-character prefilter against the unfiltered match -------------------------

def reference_match(ns):
    """The match without the prefilter: every reduced candidate gets the isometry check."""
    pos, neg = ns.signature()
    if pos != 1:
        raise MatchError(f"expected signature (1, n-1), got ({pos}, {neg})")
    d = ns.det
    if d >= 0:
        raise MatchError("determinant must be negative")
    target = discriminant_form(ns).negated()
    matches = []
    for cand in sorted(enumerate_reduced(d)):
        if discriminant_form(form_lattice(cand)).is_isomorphic(target):
            matches.append(cand)
    if not matches:
        raise MatchError(f"no rank-2 form of discriminant {d} matches the input")
    if len(matches) > 1:
        raise MatchError(f"genus of discriminant {d} has several classes: {matches}")
    return matches[0]


def match_outcome(match, ns):
    """The returned form, or the exact MatchError text."""
    try:
        return match(ns)
    except MatchError as exc:
        return str(exc)


def test_prefilter_matches_reference_on_certified_lattices(certified, monkeypatch):
    # one candidate survives the genus characters on every certified lattice
    checks = []
    isomorphic = DiscriminantForm.is_isomorphic

    def counted(self, other):
        checks.append(self)
        return isomorphic(self, other)

    for name, surf, secs in certified:
        ns = assemble_ns(surf, secs)
        want = match_outcome(reference_match, ns)
        assert isinstance(want, BinaryQuadraticForm), name
        checks.clear()
        with monkeypatch.context() as m:
            m.setattr(DiscriminantForm, "is_isomorphic", counted)
            assert match_outcome(match_transcendental, ns) == want, name
        assert len(checks) == 1, name


def test_prefilter_matches_reference_on_u_plus_rank_two_forms():
    # U + f(-1) for every reduced f of SPLIT_DISCS: q = -q_f, so f matches
    # unless its genus holds other classes; both error texts must agree
    outcomes = []
    for d in SPLIT_DISCS:
        for f in sorted(enumerate_reduced(d)):
            ns = GramLattice(direct_sum(U_GRAM, [[-x for x in row] for row in f.gram()]))
            want = match_outcome(reference_match, ns)
            assert match_outcome(match_transcendental, ns) == want, (d, f)
            outcomes.append((f, want))
    assert any(f == want for f, want in outcomes)
    assert any(isinstance(want, str) and "several classes" in want for _, want in outcomes)


# -- unit-pivot discriminant form against the whole-matrix Smith normal form ----------

def assert_same_form(lat, name):
    mine, ref = discriminant_form(lat), reference_discriminant_form(lat)
    assert mine.orders == ref.orders, name
    assert mine._isometric_to(ref), name
    assert group_order(mine) == abs(lat.det), name


def random_even_lattices():
    """60 nondegenerate even Gram matrices of rank 1 to 8 with |det| <= 600;
    every third is an even Gram matrix scaled by 2, which has no unit entry."""
    rng = random.Random(16)
    out = []
    while len(out) < 60:
        scaled = len(out) % 3 == 2
        n = rng.randint(1, 3 if scaled else 8)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.choice((-4, -2, -2, 2, 2, 4))
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.choice((0, 0, 0, -1, 1, rng.randint(-2, 2)))
        if scaled:
            g = [[2 * x for x in row] for row in g]
        lat = GramLattice(g)
        if lat.det and abs(lat.det) <= 600:
            out.append(lat)
    return out


def test_discriminant_form_matches_whole_snf_on_certified_lattices(certified):
    for name, surf, secs in certified:
        assert_same_form(assemble_ns(surf, secs), name)


def test_discriminant_form_matches_whole_snf_on_random_even_lattices():
    lattices = random_even_lattices()
    for lat in lattices:
        assert_same_form(lat, lat.gram)
    assert {lat.rank for lat in lattices} == set(range(1, 9))
    assert sum(all(x not in (1, -1) for row in lat.gram for x in row) for lat in lattices) >= 20


def test_ns_match_runs_no_large_smith_form(certified, monkeypatch):
    # unit pivots leave at most a 2 x 2 block of the rank-20 NS Gram matrix, and
    # the isometry search's generation checks are r x 2r for r <= 2 generators
    import k3cm.lattices as lattices

    sizes = []
    snf = lattices.smith_normal_form

    def counted(m):
        sizes.append(len(m))
        return snf(m)

    monkeypatch.setattr(lattices, "smith_normal_form", counted)
    for name, surf, secs in certified:
        ns = assemble_ns(surf, secs)
        sizes.clear()
        match_transcendental(ns)
        assert sizes and max(sizes) <= 4, (name, sizes)
