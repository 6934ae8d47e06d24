"""Fixture files: parsing, integrity checks, and the surface registry.

Every polynomial from the source tables lives in a data file, never in
code; a sha256 manifest guards against silent edits.  Files are blocks of
`key = value` lines under `[block]` headers; repeated blocks accumulate.

Value encodings build on the scalar/polynomial text formats:
  * rational:        "n" or "n/d"
  * quad scalar:     "a+b*sqrt(m)"
  * polynomial:      ascending ';' list, or a factored product
                     "scale * c0;c1 * c0;c1;c2^2" (tokens joined by ' * ')
  * rational func:   "NUM / DEN" with NUM, DEN polynomial encodings
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources

from k3cm.exact import (
    QQ,
    Polynomial,
    QuadField,
    RationalFunction,
    parse_rational,
)
from k3cm.families import Family, family_from_fields
from k3cm.quadforms import BinaryQuadraticForm


class FixtureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# low-level parsing
# ---------------------------------------------------------------------------

def parse_blocks(text: str) -> list[tuple[str, dict]]:
    blocks = []
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), {})
            blocks.append(current)
            continue
        if current is None or "=" not in line:
            raise FixtureError(f"stray fixture line: {raw!r}")
        key, val = line.split("=", 1)
        current[1][key.strip().lower()] = val.strip()
    return blocks


def parse_poly(text: str, domain=QQ) -> Polynomial:
    """Plain ';' list or factored 'scale * f1 * f2^e * ...'."""
    text = text.strip()
    if " * " not in text and "^" not in text:
        return Polynomial.from_text(domain, text)
    tokens = text.split(" * ")
    out = Polynomial.constant(domain, domain.one)
    start = 0
    if ";" not in tokens[0] and "^" not in tokens[0]:
        out = Polynomial.constant(domain, domain.parse(tokens[0]))
        start = 1
    for tok in tokens[start:]:
        if "^" in tok:
            base, exp = tok.rsplit("^", 1)
            e = int(exp)
        else:
            base, e = tok, 1
        f = Polynomial.from_text(domain, base)
        out = out * f ** e
    return out


def parse_ratfun(text: str, domain=QQ) -> RationalFunction:
    if " / " in text:
        num, den = text.split(" / ", 1)
        return RationalFunction(parse_poly(num, domain), parse_poly(den, domain))
    return RationalFunction(parse_poly(text, domain))


def parse_form(text: str) -> BinaryQuadraticForm:
    """[2a,b,2c] given as 'aa,b,cc' with even aa, cc."""
    aa, b, cc = (int(x) for x in text.split(","))
    if aa % 2 or cc % 2:
        raise FixtureError(f"even-lattice entries required: {text}")
    return BinaryQuadraticForm(aa // 2, int(b), cc // 2)


# ---------------------------------------------------------------------------
# fixture objects
# ---------------------------------------------------------------------------

@dataclass
class SectionFixture:
    name: str
    field_radicand: int | None      # None for Q, m for Q(sqrt m)
    u_text: str
    conjugate_of: str | None = None
    expected_height: Fraction | None = None

    def u(self) -> RationalFunction:
        dom = QQ if self.field_radicand is None else QuadField(self.field_radicand)
        return parse_ratfun(self.u_text, dom)


@dataclass
class SurfaceFixture:
    name: str
    source: str
    kind: str                      # direct | family | family-nu
    fields: dict
    sections: list[SectionFixture] = field(default_factory=list)
    expected_disc: int | None = None
    expected_T: BinaryQuadraticForm | None = None
    derived_T: BinaryQuadraticForm | None = None
    expected_pairings: dict = field(default_factory=dict)
    status: str = "ok"
    note: str = ""
    group: str = "examples"        # examples | table1 | extremal: a `regression --subset`

    @property
    def working_T(self):
        """The lattice the computation must reproduce (printed unless errata)."""
        return self.derived_T if self.derived_T is not None else self.expected_T

    @property
    def tag(self) -> str:
        """The surface as regression lines name it: a Table 1 row by its lambda and disc."""
        if self.group == "table1":
            return f"table1 lam={self.fields['lambda']} disc={self.expected_disc}"
        return self.name

    def certify(self, registry):
        """The `Certificate` of the surface with its declared sections."""
        from k3cm.sections import build_sections, certify

        surface = self.build_surface(registry)
        return certify(surface, build_sections(surface, self.sections))

    def build_surface(self, registry):
        from k3cm.surfaces import WeierstrassSurface

        if self.kind == "direct":
            return WeierstrassSurface(
                parse_poly(self.fields["a2"]),
                parse_poly(self.fields["a4"]),
                parse_poly(self.fields["a6"]),
                name=self.name,
            )
        fam = registry.family(self.fields.get("family", "xlm"))
        if self.kind == "family":
            text = self.fields["lambda"]
            if text == "inf":
                from k3cm.families import INFINITY

                lam = INFINITY
            else:
                lam = parse_rational(text)
            return fam.specialize(lam, name=self.name)
        # family-nu: lambda and mu are rational functions of nu
        nu = parse_rational(self.fields["nu"])
        ev = lambda key: Polynomial.from_text(QQ, self.fields[key])(nu)
        mu = ev("mu_num") / ev("mu_den")
        lam = ev("lambda_num") / ev("lambda_den")
        return fam.specialize(lam, mu=mu, name=self.name)


@dataclass
class Table1Row:
    lam: object
    disc: int
    u_text: str
    height: Fraction
    T: BinaryQuadraticForm
    source: str
    status: str = "ok"
    note: str = ""
    derived_T: BinaryQuadraticForm | None = None

    def fixture(self) -> SurfaceFixture:
        """The row as the surface `verify` certifies: table1_<|disc|>, section P."""
        return SurfaceFixture(
            name=f"table1_{-self.disc}", source=self.source, kind="family",
            fields={"family": "xlm", "lambda": str(self.lam)},
            sections=[SectionFixture("P", None, self.u_text, expected_height=self.height)],
            expected_disc=self.disc, expected_T=self.T, derived_T=self.derived_T,
            status=self.status, note=self.note, group="table1",
        )


@dataclass
class CorroborationRow:
    disc: int
    lam: Fraction
    source: str


@dataclass
class SemistableRow:
    """Extremal configuration row: discriminant, I_n indices, torsion, T."""

    disc: int
    config: tuple
    torsion: int
    T: BinaryQuadraticForm
    source: str


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

DATA = resources.files("k3cm").joinpath("data")   # the fixture files, located once

# the example surfaces in the order the regression replays them
EXAMPLES = ("ex_1155", "ex_1995", "ex_627", "ex_715", "ex_1435", "ex_5460",
            "ex_1012", "ex_3003", "ex_3315")


class FixtureRegistry:
    """The fixture files: each read once and checked against the sha256 manifest at
    construction, where an edited file raises FixtureError naming it.  Each collection
    (`_families`, `surfaces`, `table1`, `extremal`, `semistable`, `corroboration`) is
    parsed from the checked text on first use: a scan parses only the families.
    """

    def __init__(self):
        self._texts = self._load()

    @cached_property
    def certified(self) -> list[SurfaceFixture]:
        """The 39 surfaces `verify` certifies, in the regression's order: one per
        non-defective Table 1 row, the examples, the extremal rows."""
        rows = [row.fixture() for row in self.table1 if row.status != "defective"]
        return rows + [self.surfaces[name] for name in EXAMPLES] + self.extremal

    # -- loading -------------------------------------------------------------

    def _read(self, name: str) -> str:
        return DATA.joinpath(name).read_text()

    def _load(self) -> dict[str, str]:
        """Each manifest file's text, read once: the text whose sha256 is checked is the text parsed."""
        texts = {}
        for line in self._read("checksums.txt").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            digest, fname = line.split()
            texts[fname] = self._read(fname)
            if hashlib.sha256(texts[fname].encode()).hexdigest() != digest:
                raise FixtureError(f"fixture {fname} fails its checksum (edited without manifest update?)")
        return texts

    def family(self, name: str) -> Family:
        return self._families[name]

    def _rows(self, fname: str) -> list[dict]:
        return [kv for name, kv in parse_blocks(self._texts[fname]) if name == "row"]

    def _files(self, suffix: str) -> list[str]:
        return [text for fname, text in self._texts.items() if fname.endswith(suffix)]

    @cached_property
    def _families(self) -> dict[str, Family]:
        return {fam.name: fam for fam in map(family_from_text, self._files(".fam"))}

    @cached_property
    def surfaces(self) -> dict[str, SurfaceFixture]:
        return {fx.name: fx for fx in map(surface_fixture_from_text, self._files(".surf"))}

    @cached_property
    def table1(self) -> list[Table1Row]:
        return [
            Table1Row(
                lam=parse_rational(kv["lambda"]),
                disc=int(kv["disc"]),
                u_text=kv["u"],
                height=parse_rational(kv["height"]),
                T=parse_form(kv["t"]),
                source=kv.get("src", ""),
                status=kv.get("status", "ok"),
                note=kv.get("note", ""),
                derived_T=parse_form(kv["derived_t"]) if "derived_t" in kv else None,
            )
            for kv in self._rows("table1.rows")
        ]

    @cached_property
    def extremal(self) -> list[SurfaceFixture]:
        return [
            SurfaceFixture(
                name=f"extremal_{kv['lambda'].replace('/', '_')}",
                source=kv.get("src", ""),
                kind="family",
                fields={"family": "xlm", "lambda": kv["lambda"]},
                expected_disc=int(kv["disc"]),
                expected_T=parse_form(kv["t"]),
                group="extremal",
            )
            for kv in self._rows("extremal.rows")
        ]

    @cached_property
    def semistable(self) -> list[SemistableRow]:
        return [SemistableRow(disc=int(kv["disc"]), config=tuple(int(x) for x in kv["config"].split(",")),
                              torsion=int(kv.get("torsion", 1)), T=parse_form(kv["t"]), source=kv.get("src", ""))
                for kv in self._rows("semistable.rows")]

    @cached_property
    def corroboration(self) -> list[CorroborationRow]:
        return [CorroborationRow(disc=int(kv["disc"]), lam=parse_rational(kv["lambda"]), source=kv.get("src", ""))
                for kv in self._rows("corroborate.rows")]


def section_fixture_from_block(kv: dict) -> SectionFixture:
    rad = None
    f = kv.get("field", "rational")
    if f.startswith("quadratic:"):
        rad = int(f.split(":")[1])
    return SectionFixture(
        name=kv.get("name", "P"),
        field_radicand=rad,
        u_text=kv.get("u", ""),
        conjugate_of=kv.get("conjugate_of"),
        expected_height=(
            parse_rational(kv["expected_height"]) if "expected_height" in kv else None
        ),
    )


def family_from_text(text: str) -> Family:
    """A family from the [family] and [splitting] blocks of a fixture file.

    The [cusps] block documents the fibers; `Family.fixed_fibers` derives them.
    """
    fields, splitting = {}, {}
    for name, kv in parse_blocks(text):
        if name == "family":
            fields.update(kv)
        elif name == "splitting":
            splitting.update(kv)
    fields["splitting"] = splitting
    return family_from_fields(fields)


def surface_fixture_from_text(text: str) -> SurfaceFixture:
    fx = None
    for name, kv in parse_blocks(text):
        if name == "surface":
            kind = "direct"
            if "nu" in kv:
                kind = "family-nu"
            elif "lambda" in kv:
                kind = "family"
            fx = SurfaceFixture(
                name=kv["name"],
                source=kv.get("src", ""),
                kind=kind,
                fields=kv,
                status=kv.get("status", "ok"),
                note=kv.get("note", ""),
            )
        elif name in ("sections", "expect") and fx is None:
            raise FixtureError(f"[{name}] block before the [surface] block")
        elif name == "sections":
            fx.sections.append(section_fixture_from_block(kv))
        elif name == "expect":
            if "disc" in kv:
                fx.expected_disc = int(kv["disc"])
            if "t" in kv:
                fx.expected_T = parse_form(kv["t"])
            if "derived_t" in kv:
                fx.derived_T = parse_form(kv["derived_t"])
            if "status" in kv:
                fx.status = kv["status"]
            if "note" in kv:
                fx.note = kv["note"]
            for k, v in kv.items():
                if k.startswith("pairing_"):
                    a, b = k[len("pairing_") :].split("_")
                    fx.expected_pairings[(a, b)] = parse_rational(v)  # lowercase names
    if fx is None:
        raise FixtureError("no [surface] block found")
    return fx


_registry = None


def registry() -> FixtureRegistry:
    global _registry
    if _registry is None:
        _registry = FixtureRegistry()
    return _registry
