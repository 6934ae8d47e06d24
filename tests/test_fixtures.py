"""Registry integrity plus the codified source-text errata.

Each deviation between a printed table entry and the computation is pinned
here with an independent certificate, so the exceptions stay visible and
any drift in either direction fails loudly.
"""

import dataclasses
import itertools
import re
from fractions import Fraction

import pytest

from k3cm.fixtures import DATA, EXAMPLES, FixtureError, parse_blocks, parse_poly, parse_ratfun, registry
from k3cm.regression import check_certificate
from k3cm.quadforms import BinaryQuadraticForm
from k3cm.lattices import MatchError, assemble_ns_gram, match_transcendental
from k3cm.surfaces import Cusp, FiberDescriptor


@pytest.fixture(scope="module")
def reg():
    return registry()


def test_registry_loads_everything(reg):
    assert len(reg.table1) == 26
    assert len(reg.extremal) == 5
    assert len(reg.semistable) == 10
    assert len(reg.corroboration) == 4
    assert len(reg.surfaces) == 9


def test_the_certified_list_is_table1_then_examples_then_extremal(reg):
    # the 39 surfaces `verify` certifies, in the regression's order, each once
    groups = [fx.group for fx in reg.certified]
    assert groups == ["table1"] * 25 + ["examples"] * 9 + ["extremal"] * 5
    assert len({fx.name for fx in reg.certified}) == 39
    assert [fx.name for fx in reg.certified[25:34]] == list(EXAMPLES)
    rows = [row for row in reg.table1 if row.status != "defective"]
    for fx, row in zip(reg.certified, rows):
        assert fx.name == f"table1_{-row.disc}" and fx.working_T == (row.derived_T or row.T)
        assert [(sf.u_text, sf.expected_height) for sf in fx.sections] == [(row.u_text, row.height)]


def test_check_certificate_compares_a_table1_row_through_its_erratum(reg):
    fx = next(fx for fx in reg.certified if fx.name == "table1_268")
    cert = fx.certify(reg)
    tag = "table1 lam=125/128 disc=-268"
    assert check_certificate(fx, cert) == [
        (True, f"{tag} height 67/210 = 67/210"),
        (True, f"{tag} disc -268 = -268"),
        (True, f"{tag} T [4,2,68] = [4,2,68] [erratum: printed T differs, see notes]"),
    ]
    # without its erratum the row is held to the printed T, which the computation refutes
    printed = dataclasses.replace(fx, derived_T=None)
    assert check_certificate(printed, cert)[-1] == (False, f"{tag} T [4,2,68] = [4,2,84]")


def test_checksums_guard_edits(tmp_path, monkeypatch):
    import k3cm.fixtures as fx

    reg2 = fx.FixtureRegistry.__new__(fx.FixtureRegistry)
    real_read = fx.FixtureRegistry._read

    def tampered(self, name):
        text = real_read(self, name)
        if name == "table1.rows":
            text = text.replace("-88", "-89", 1)
        return text

    monkeypatch.setattr(fx.FixtureRegistry, "_read", tampered)
    with pytest.raises(FixtureError, match="fixture table1.rows fails its checksum"):
        fx.FixtureRegistry()


def test_each_fixture_file_is_read_once(monkeypatch):
    import k3cm.fixtures as fx

    real_read, reads = fx.FixtureRegistry._read, []

    def spy(self, name):
        reads.append(name)
        return real_read(self, name)

    monkeypatch.setattr(fx.FixtureRegistry, "_read", spy)
    fx.FixtureRegistry()
    manifest = [line.split()[1] for line in real_read(None, "checksums.txt").splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(manifest) == 14
    assert sorted(reads) == sorted(["checksums.txt"] + manifest)


MANIFEST = [line.split()[1] for line in DATA.joinpath("checksums.txt").read_text().splitlines()
            if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("fname", MANIFEST)
def test_a_tampered_file_fails_at_construction(fname, monkeypatch):
    # every manifest file is checked when the registry is built, parsed on first use or not
    import k3cm.fixtures as fx

    real_read = fx.FixtureRegistry._read
    monkeypatch.setattr(fx.FixtureRegistry, "_read",
                        lambda self, name: real_read(self, name) + ("# edited\n" if name == fname else ""))
    with pytest.raises(FixtureError, match=f"fixture {re.escape(fname)} fails its checksum"):
        fx.FixtureRegistry()


COLLECTIONS = ("_families", "surfaces", "table1", "extremal", "semistable", "corroboration")


@pytest.mark.parametrize("argv, parsed", [
    ([], ["_families"]),                                   # the set-up: bad primes of xlm
    (["search", "--disc", "-88", "--primes", "4"], ["_families"]),
    (["regression", "--subset", "all"], list(COLLECTIONS)),
])
def test_each_command_parses_only_the_collections_it_reads(argv, parsed, monkeypatch, capsys):
    import k3cm.fixtures as fx
    from k3cm.cli import main

    monkeypatch.setattr(fx, "_registry", None)
    if argv:
        assert main(argv) == 0
    else:
        fx.registry().family("xlm").bad_primes(200)
    assert [name for name in COLLECTIONS if name in vars(fx._registry)] == parsed


def test_every_expectation_is_attributed(reg):
    for row in reg.table1:
        assert row.source
    for fx_ in reg.surfaces.values():
        assert fx_.source
    for row in reg.corroboration:
        assert row.source


def test_the_config_line_of_each_example_names_fibers_of_its_surface(reg):
    # each label@cusp of a [fibers] config line is a fiber the built surface derives;
    # "I2@pair" is an I2 over a conjugate pair of cusps, an orbit of degree 2
    checked = 0
    for name, fx_ in reg.surfaces.items():
        for block, kv in parse_blocks(reg._read(f"{name}.surf")):
            if block != "fibers":
                continue
            fibers = fx_.build_surface(reg).fibers
            derived = {f"{f.label()}@pair" if f.cusp.kind == "orbit" and f.cusp.degree == 2 else str(f)
                       for f in fibers}
            for entry in kv["config"].split(","):
                assert entry.strip() in derived, (name, entry, sorted(derived))
            checked += 1
    assert checked == 7


EXPECTED_ERRATA = {
    "defective": {-900},
    "erratum_t": {-268, -88, -228, -1012},
    "restored_u": {-1932, -708, -1092, -1428},
}


def test_errata_set_is_exactly_as_documented(reg):
    got = {"defective": set(), "erratum_t": set(), "restored_u": set()}
    for row in reg.table1:
        if row.status != "ok":
            got[row.status].add(row.disc)
    for fx_ in reg.surfaces.values():
        if fx_.status != "ok":
            got[fx_.status].add(fx_.expected_disc)
    assert got == EXPECTED_ERRATA


def test_erratum_T_entries_are_wrong_factorizations(reg):
    # every T erratum pairs the printed and derived diagonal data
    by_disc = {r.disc: r for r in reg.table1}
    # -268: the printed form does not even have the row's discriminant
    row = by_disc[-268]
    assert row.T.discriminant == -332 and row.derived_T.discriminant == -268
    # -88 and -228: printed and derived forms are the two diagonal splits
    for disc in (-88, -228):
        row = by_disc[disc]
        assert row.T.discriminant == disc == row.derived_T.discriminant
        assert row.T != row.derived_T
    fx_ = reg.surfaces["ex_1012"]
    assert fx_.expected_T.discriminant == -1012 == fx_.derived_T.discriminant


def test_defective_row_certificate(reg):
    """The first printed row cannot exist: an impossibility proof in two parts."""
    row1 = next(r for r in reg.table1 if r.status == "defective")
    row8 = next(r for r in reg.table1 if r.disc == -340)
    # (i) the printed section duplicates the -340 row's section verbatim
    assert parse_ratfun(row1.u_text) == parse_ratfun(row8.u_text)
    assert row1.lam == row8.lam
    # (ii) the printed u vanishes at the I3 cusp t = 1 and the I0* cusp
    # t = -1/2, forcing correction terms 2/3 and 1; with those present no
    # admissible correction sum reaches height 15/14
    u = parse_ratfun(row1.u_text)
    assert u.num.valuation_at(Fraction(1)) >= 1
    assert u.num.valuation_at(Fraction(-1, 2)) >= 1
    corr = lambda k, n: Fraction(k * (n - k), n)
    sums = set()
    for k5, k2, k7 in itertools.product(range(3), range(2), range(4)):
        for pO in (0, 1):
            sums.add(
                4 + 2 * pO
                - (corr(k5, 5) + Fraction(2, 3) + corr(k2, 2) + corr(k7, 7) + 1)
            )
    assert Fraction(15, 14) not in sums
    # (iii) the only contact pattern with height 15/14 and the printed
    # determinant -900 violates the K3 embedding: no rank-2 partner exists
    blocks = [FiberDescriptor(Cusp.infinity(), kind, n)
              for kind, n in (("I", 5), ("I", 3), ("I", 2), ("I", 7), ("I*", 0))]
    sec = (0, [None, None, 1, 2, "far1"], [])
    lat = assemble_ns_gram(blocks, [sec])
    assert lat.det == -900
    with pytest.raises(MatchError):
        match_transcendental(lat)


def test_restored_rows_match_printed_invariants(reg):
    # restored u rows reproduce every printed invariant (height, disc, T)
    from k3cm.sections import assemble_ns, height, ns_discriminant, verify_section

    fam = reg.family("xlm")
    for row in reg.table1:
        if row.status != "restored_u":
            continue
        surf = fam.specialize(row.lam)
        sec = verify_section(surf, parse_ratfun(row.u_text))
        assert height(sec) == row.height
        assert ns_discriminant(surf, [sec]) == row.disc
        assert match_transcendental(assemble_ns(surf, [sec])) == row.T


def test_factored_polynomial_parser():
    f = parse_poly("-3/2 * 0;1^2 * -1;1")
    assert f.to_text() == "0;0;3/2;-3/2"
    g = parse_poly("7;15360^2")
    assert g.degree == 2 and g.coeffs[0] == 49


def test_a_certify_pass_classifies_only_the_direct_surfaces(monkeypatch):
    import k3cm.fixtures
    import k3cm.surfaces

    classified = []
    original = k3cm.surfaces.classify_fibers
    monkeypatch.setattr(k3cm.surfaces, "classify_fibers", lambda s: classified.append(s.name) or original(s))
    reg = k3cm.fixtures.FixtureRegistry()   # nothing derived yet, not even g's fibers
    for fx in reg.certified:
        fx.certify(reg)
    direct = [fx.name for fx in reg.certified if fx.kind == "direct"]
    assert classified == direct and len(direct) == 7
