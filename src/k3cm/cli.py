"""Command-line front end.

Subcommands: discs, ap, count, search, lift, verify, tlattice, regression.
Exit codes: 0 success, 1 mismatch/refuted, 2 input error, 3 unsupported fiber type.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from k3cm.exact import format_rational, is_prime, parse_rational, primes_up_to


def _load_family(spec: str):
    """A registry family name, or a path to a family fixture file."""
    from k3cm.fixtures import family_from_text, registry

    reg = registry()
    if spec in reg._families:
        return reg.family(spec)
    with open(spec) as fh:
        return family_from_text(fh.read())


def _load_fixture(args):
    """The fixture for --surface NAME|FILE, with the `[sections]` blocks of --sections FILE
    in place of its own sections.  A NAME is an example or one of the certified surfaces
    (`table1_88`, `extremal_1`, ...)."""
    from dataclasses import replace

    from k3cm.fixtures import parse_blocks, registry, section_fixture_from_block, surface_fixture_from_text

    reg = registry()
    fx = reg.surfaces.get(args.surface) or next((f for f in reg.certified if f.name == args.surface), None)
    if fx is None:
        with open(args.surface) as fh:
            fx = surface_fixture_from_text(fh.read())
    if args.sections:
        with open(args.sections) as fh:
            blocks = parse_blocks(fh.read())
        fx = replace(fx, sections=[section_fixture_from_block(kv) for name, kv in blocks if name == "sections"])
    return fx


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


def _log_members(log, family, members_by_prime) -> None:
    """Put the computed smooth counts of each (p, members) pair in the `--cache` log, in one append."""
    if log is None:
        return
    from k3cm.counting import log_key

    key = log_key(family)
    with log.batch():
        for p, members in members_by_prime:
            for lam, (smooth, _, _) in members.items():
                log.put(key, p, lam, smooth)


def cmd_count(args) -> int:
    from k3cm.counting import CountCache, count_family_member, on_cusp, twist_table

    p = args.prime
    if not is_prime(p):
        print(f"p = {p} is not prime", file=sys.stderr)
        return 2
    fam = _load_family(args.family)
    log = None if args.cache is None else CountCache(args.cache)   # read before any count
    if fam.untwisted.is_bad_prime(p):
        print(f"p = {p} is excluded for this family", file=sys.stderr)
        return 2
    if args.lam is None:
        lams, members = range(p), twist_table(fam, p).members
    elif (lam := args.lam % p) in fam.degenerate_lambdas(p):
        print(f"{on_cusp(fam, p, lam)}; its member is degenerate", file=sys.stderr)
        return 2
    else:
        lams, members = [lam], {lam: count_family_member(fam, p, lam)}
    _log_members(log, fam, [(p, members)])
    for lam in lams:
        if lam not in members:
            print(f"skipped {on_cusp(fam, p, lam)}", file=sys.stderr)
            continue
        n, t_alg, (c1, c2) = members[lam]
        print(f"{lam}\t{n}\t{t_alg}\t{c1}\t{c2}")
    return 0


def cmd_search(args) -> int:
    from k3cm.counting import CountCache, twist_table
    from k3cm.newforms import NewformOracle
    from k3cm.search import SearchError, first_usable_primes, search

    fam = _load_family(args.family)
    oracle = NewformOracle(args.disc)
    log = None if args.cache is None else CountCache(args.cache)   # read before any count
    primes = first_usable_primes(fam, oracle, args.primes)
    if len(primes) < 2:
        print("not enough usable split primes", file=sys.stderr)
        return 2
    why = (f"scanned p = {', '.join(map(str, primes))}; no lambda of "
           f"height <= {args.height_bound} (--height-bound) lifted")
    try:
        reports = search(fam, oracle, primes, args.height_bound)
    except SearchError as e:   # the scans ran; their residues cannot be lifted
        reports, why = [], e
    _log_members(log, fam, ((p, twist_table(fam, p).members) for p in primes))
    if not reports:
        print(f"no candidate: {why}", file=sys.stderr)
        return 1
    for rep in reports:
        print(rep.line())
    return 0


def cmd_lift(args) -> int:
    from k3cm.fixtures import parse_blocks
    from k3cm.lift import LiftError, PolySystem, lift_system

    with open(args.system) as fh:
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
    from k3cm.regression import check_certificate

    fx = _load_fixture(args)
    cert = fx.certify(registry())
    for sec, h in zip(cert.sections, cert.heights):
        print(f"section {sec.name}: height {h}, (P.O) = {sec.pO}")
        for idx, c in sorted(sec.contacts.items()):
            if c.nonidentity:
                print(f"  contact {c.fiber}: {c.kind} k={c.k}")
    print(f"disc NS = {cert.disc}")
    print(f"T(X) = {cert.T}")
    return 0 if all(ok for ok, _ in check_certificate(fx, cert)) else 1


def cmd_tlattice(args) -> int:
    from k3cm.fixtures import registry

    cert = _load_fixture(args).certify(registry())
    print(f"{cert.disc}\t{cert.T}")
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
    except (FileNotFoundError, ValueError, KeyError) as e:
        from k3cm.surfaces import UnsupportedFiberError

        if isinstance(e.__cause__, UnsupportedFiberError):   # counting names g, p and the cusp
            print(f"unsupported fiber type: {e}", file=sys.stderr)
            return 3
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
