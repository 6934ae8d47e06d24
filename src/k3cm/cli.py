"""Command-line front end.

Subcommands: discs, ap, count, search, lift, verify, tlattice, regression.
Exit codes: 0 success, 1 mismatch/refuted, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from k3cm.exact import format_rational, parse_rational, primes_up_to


def _load_family(spec: str):
    """A registry family name, or a path to a family fixture file."""
    from k3cm.fixtures import family_from_text, registry

    reg = registry()
    if spec in reg._families:
        return reg.family(spec)
    with open(spec) as fh:
        return family_from_text(fh.read())


def _load_surface_file(path: str):
    from k3cm.fixtures import registry, surface_fixture_from_text

    with open(path) as fh:
        return registry(), surface_fixture_from_text(fh.read())


def cmd_discs(args) -> int:
    from k3cm.newforms import exponent_two_table

    table = exponent_two_table(args.max)
    print("h(d)\tdiscriminants")
    for h in sorted(table):
        ds = " ".join(str(d) for d in sorted(table[h], key=abs))
        print(f"{h}\t{ds}")
    total = sum(len(v) for v in table.values())
    print(f"# {total} discriminants with class group of exponent <= 2, |d| <= {args.max}")
    return 0


def cmd_ap(args) -> int:
    from k3cm.newforms import RAMIFIED, NewformOracle

    oracle = NewformOracle(args.disc)
    for p in primes_up_to(args.primes):
        if p == 2:
            continue
        vals = oracle.eigenvalue_abs(p)
        if vals == RAMIFIED:
            print(f"{p}\tram")
        elif vals == 0:
            print(f"{p}\t0")
        else:
            print(f"{p}\t{','.join(str(v) for v in sorted(vals))}")
    return 0


def cmd_count(args) -> int:
    from k3cm.counting import CountCache, count_family_member

    fam = _load_family(args.family)
    cache = CountCache(args.cache)
    p = args.prime
    if p in fam.bad_primes(p):
        print(f"p = {p} is excluded for this family", file=sys.stderr)
        return 2
    degenerate = fam.degenerate_lambdas(p)

    def on_cusp(lam):
        label = degenerate[lam]   # fixture keys are read lower-cased; fiber labels print as I<n>
        return f"lambda = {lam} lies on the cusp {label.upper()} = {fam.cusp_table[label]} mod {p}"

    if args.lam is not None and args.lam % p in degenerate:
        print(f"{on_cusp(args.lam % p)}; its member is degenerate", file=sys.stderr)
        return 2
    lams = [args.lam % p] if args.lam is not None else range(p)
    for lam in lams:
        if lam in degenerate:
            print(f"skipped {on_cusp(lam)}", file=sys.stderr)
            continue
        n, t_alg, (c1, c2) = count_family_member(fam, p, lam, cache)
        print(f"{lam}\t{n}\t{t_alg}\t{c1}\t{c2}")
    return 0


def cmd_search(args) -> int:
    from k3cm.counting import CountCache
    from k3cm.newforms import SPLIT, NewformOracle
    from k3cm.search import search

    fam = _load_family(args.family)
    oracle = NewformOracle(args.disc)
    cache = CountCache(args.cache)
    primes = [
        p for p in primes_up_to(200)
        if p > 5 and oracle.prime_kind(p) == SPLIT and p not in fam.bad_primes(200)
    ][: args.primes]
    if len(primes) < 2:
        print("not enough usable split primes", file=sys.stderr)
        return 2
    reports = search(fam, args.disc, primes, args.height_bound, cache)
    for rep in reports:
        print(rep.line())
    return 0 if reports else 1


def cmd_lift(args) -> int:
    from k3cm.lift import LiftError, MultiPoly, PolySystem, lift_system

    with open(args.system) as fh:
        from k3cm.fixtures import parse_blocks

        blocks = parse_blocks(fh.read())
    variables, equations, guards = [], [], []
    for name, kv in blocks:
        if name != "system":
            continue
        variables = [v.strip() for v in kv["vars"].split(",")]
        for key, val in kv.items():
            target = equations if key.startswith("eq") else guards if key.startswith("guard") else None
            if target is None:
                continue
            target.append(_parse_multipoly(val, len(variables)))
    system = PolySystem(variables, equations, guards)
    try:
        values = lift_system(system, args.prime, args.max_precision)
    except LiftError as e:
        print(f"lift failed: {e}", file=sys.stderr)
        return 1
    for name, v in zip(variables, values):
        print(f"{name}\t{format_rational(v)}")
    return 0


def _parse_multipoly(text: str, nvars: int):
    from k3cm.lift import MultiPoly

    terms = {}
    for tok in text.split(" + "):
        if ":" in tok:
            c, exps = tok.split(":")
            e = tuple(int(x) for x in exps.split(","))
        else:
            c, e = tok, (0,) * nvars
        terms[e] = terms.get(e, Fraction(0)) + parse_rational(c)
    return MultiPoly(nvars, terms)


def cmd_verify(args) -> int:
    from k3cm.fixtures import registry

    reg = registry()
    if args.surface in reg.surfaces:
        fx = reg.surfaces[args.surface]
    else:
        reg, fx = _load_surface_file(args.surface)
    return _verify_fixture(reg, fx, args.sections)


def _section_fixtures(fx, sections_path=None):
    """The fixture's sections, or the `[sections]` blocks of `sections_path`."""
    if not sections_path:
        return fx.sections
    from k3cm.fixtures import parse_blocks, section_fixture_from_block

    with open(sections_path) as fh:
        blocks = parse_blocks(fh.read())
    return [section_fixture_from_block(kv) for name, kv in blocks if name == "sections"]


def _verify_fixture(reg, fx, sections_path=None) -> int:
    from k3cm.lattices import match_transcendental
    from k3cm.sections import assemble_ns, build_sections, height, ns_discriminant

    surf = fx.build_surface(reg)
    section_fixtures = _section_fixtures(fx, sections_path)
    secs = build_sections(surf, section_fixtures)
    mismatch = False
    for sf, sec in zip(section_fixtures, secs):
        h = height(sec)
        print(f"section {sf.name}: height {h}, (P.O) = {sec.pO}")
        for idx, c in sorted(sec.contacts.items()):
            if c.nonidentity:
                print(f"  contact {c.fiber}: {c.kind} k={c.k}")
        if sf.expected_height is not None and h != sf.expected_height:
            mismatch = True
    d = ns_discriminant(surf, secs) if secs else None
    lat = assemble_ns(surf, secs)
    d = lat.det if d is None else d
    T = match_transcendental(lat)
    print(f"disc NS = {d}")
    print(f"T(X) = {T}")
    if fx.expected_disc is not None and d != fx.expected_disc:
        mismatch = True
    if fx.working_T is not None and T != fx.working_T:
        mismatch = True
    return 1 if mismatch else 0


def cmd_tlattice(args) -> int:
    from k3cm.fixtures import registry
    from k3cm.lattices import match_transcendental
    from k3cm.sections import assemble_ns, build_sections

    reg = registry()
    fx = reg.surfaces.get(args.surface)
    if fx is None:
        reg, fx = _load_surface_file(args.surface)
    surf = fx.build_surface(reg)
    lat = assemble_ns(surf, build_sections(surf, _section_fixtures(fx, args.sections)))
    print(f"{lat.det}\t{match_transcendental(lat)}")
    return 0


def cmd_regression(args) -> int:
    from k3cm.regression import run_regression

    rep = run_regression(args.subset)
    print(rep.text())
    return 0 if rep.failures == 0 else 1


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main() may run many times."""
    parser = argparse.ArgumentParser(
        prog="k3cm",
        description="Exact workbench for singular elliptic K3 surfaces and CM newforms",
    )
    parser.add_argument("--cache", default=None, help="point-count cache file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discs", help="exponent-2 field discriminant table")
    p.add_argument("--max", type=int, default=7000)
    p.set_defaults(func=cmd_discs)

    p = sub.add_parser("ap", help="newform |a_p| table")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--primes", type=int, default=100)
    p.set_defaults(func=cmd_ap)

    p = sub.add_parser("count", help="point counts of family members mod p")
    p.add_argument("--family", default="xlm")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("search", help="scan split primes and lift candidates")
    p.add_argument("--family", default="xlm")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--primes", type=int, default=4)
    p.add_argument("--height-bound", type=int, default=10**6)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("lift", help="p-adic Newton lift of a polynomial system")
    p.add_argument("--system", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--max-precision", type=int, default=10)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", help="verify a surface fixture")
    p.add_argument("--surface", required=True)
    p.add_argument("--sections", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tlattice", help="discriminant and transcendental lattice")
    p.add_argument("--surface", required=True)
    p.add_argument("--sections", default=None)
    p.set_defaults(func=cmd_tlattice)

    p = sub.add_parser("regression", help="replay all fixture expectations")
    p.add_argument("--subset", choices=["all", "table1", "examples", "extremal"], default="all")
    p.set_defaults(func=cmd_regression)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
