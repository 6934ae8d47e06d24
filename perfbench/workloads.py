"""The three k3cm workloads: inputs made from the fixture registry and a seed.

Each workload is a list of items; an item runs one k3cm entry point and
checks its output.  Items look k3cm functions up when they run, never at
import, so the span recorder's wrappers are the ones called in a traced pass.

* certify: `k3cm verify --surface X` for the 9 example surfaces, and for
  generated surface files of the 25 non-defective Table 1 rows and the 5
  extremal rows, in seeded order.
* rediscover: `k3cm --cache FILE search --disc D --primes 5` for the 25
  Table 1 fields in seeded order, sharing one cache file that starts empty
  on every pass; then the -88 section lift at p = 19.
* deep-scan: `scan_prime` at p = 199 and p = 307 for one seeded Table 1
  field, with no cache.  307 stands in for the 401 of the roadmap so that a
  pass stays near 12 s (a scan at 401 alone takes about 20 s); the two
  primes are more than 1.5x apart, which is what the cost exponent needs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

DEEP_SCAN_PRIMES = (199, 307)
SEARCH_PRIMES = 5
LIFT_PRIME = 19
# fiber label -> contact plan of the -88 lift (as in the acceptance suite)
LIFT_PLAN = {"I5": 1, "I3": 1, "I7": 2, "I0*": "leg"}


def _k3cm(module: str):
    return importlib.import_module(f"k3cm.{module}")


@dataclass
class Item:
    id: str
    run: Callable[[], str | None]   # returns None when the output is right, else why not


@dataclass
class Workload:
    items: list[Item]
    reset: Callable[[], None] = lambda: None
    cache_path: str | None = None
    primes: tuple = ()
    note: str = ""    # the seeded choice, for the run's env line


def _form_text(f) -> str:
    return f"{2 * f.a},{f.b},{2 * f.c}"


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process `k3cm` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _k3cm("cli").main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _rows(reg):
    return [r for r in reg.table1 if r.status != "defective"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _verify_item(item_id, surface_arg, disc, T) -> Item:
    def run():
        code, out, err = _cli(["verify", "--surface", surface_arg])
        lines = out.splitlines()
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        if f"disc NS = {disc}" not in lines:
            return f"disc NS is not {disc}"
        if f"T(X) = {T}" not in lines:
            return f"T(X) is not {T}"
        return None

    return Item(item_id, run)


def certify(seed: int, workdir: str) -> Workload:
    reg = _k3cm("fixtures").registry()
    items = [
        _verify_item(name, name, fx.expected_disc, fx.working_T)
        for name, fx in sorted(reg.surfaces.items())
    ]
    for row in _rows(reg):
        name = f"table1_{-row.disc}"
        text = (
            f"[surface]\nname = {name}\nfamily = xlm\nlambda = {row.lam}\n\n"
            f"[sections]\nname = P\nfield = rational\nu = {row.u_text}\n"
            f"expected_height = {row.height}\n\n"
            f"[expect]\ndisc = {row.disc}\nt = {_form_text(row.T)}\n"
        )
        if row.derived_T is not None:
            text += f"derived_t = {_form_text(row.derived_T)}\n"
        expected_T = row.derived_T if row.derived_T is not None else row.T
        items.append(_verify_item(name, _write(workdir, name, text), row.disc, expected_T))
    for fx in reg.extremal:
        text = (
            f"[surface]\nname = {fx.name}\nfamily = xlm\nlambda = {fx.fields['lambda']}\n\n"
            f"[expect]\ndisc = {fx.expected_disc}\nt = {_form_text(fx.expected_T)}\n"
        )
        items.append(_verify_item(fx.name, _write(workdir, fx.name, text),
                                  fx.expected_disc, fx.expected_T))
    random.Random(seed).shuffle(items)
    return Workload(items)


def _write(workdir, name, text) -> str:
    path = os.path.join(workdir, f"{name}.surf")
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# rediscover
# ---------------------------------------------------------------------------

def rediscover(seed: int, workdir: str) -> Workload:
    reg = _k3cm("fixtures").registry()
    format_rational = _k3cm("exact").format_rational
    cache_path = os.path.join(workdir, "counts.cache")
    rows = _rows(reg)
    random.Random(seed).shuffle(rows)

    def search_item(row) -> Item:
        expected = format_rational(row.lam)

        def run():
            argv = ["--cache", cache_path, "search", "--disc", str(row.disc),
                    "--primes", str(SEARCH_PRIMES)]
            code, out, err = _cli(argv)
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            found = [line.split("\t")[0] for line in out.splitlines()]
            if expected not in found:
                return f"lambda {expected} not among {found}"
            return None

        return Item(f"search{row.disc}", run)

    lift_row = next(r for r in reg.table1 if r.disc == -88)

    def lift():
        import k3cm

        fam = k3cm.registry().family("xlm")
        surf = fam.specialize(lift_row.lam, name="d88")
        fibers = k3cm.classify_fibers(surf)
        plan = {i: LIFT_PLAN[f.label()] for i, f in enumerate(fibers) if f.label() in LIFT_PLAN}
        sec = k3cm.recover_section(surf, fibers, plan, LIFT_PRIME, expected_disc=-88)
        if sec.u != _k3cm("fixtures").parse_ratfun(lift_row.u_text):
            return f"recovered u = {sec.u} differs from the printed section"
        return None

    def reset():
        if os.path.exists(cache_path):
            os.remove(cache_path)

    items = [search_item(r) for r in rows] + [Item("lift-88", lift)]
    return Workload(items, reset=reset, cache_path=cache_path)


# ---------------------------------------------------------------------------
# deep-scan
# ---------------------------------------------------------------------------

def deep_scan_fields(reg) -> list:
    """Table 1 rows whose field splits at both scan primes, both good for the family."""
    newforms = _k3cm("newforms")
    search = _k3cm("search")
    fam = reg.family("xlm")

    def usable(row, p):
        return (newforms.NewformOracle(row.disc).prime_kind(p) == newforms.SPLIT
                and p not in fam.bad_primes(p)
                and row.lam.denominator % p != 0
                and _reduce(row.lam, p) not in search._degenerate_lambdas(fam, p))

    return [row for row in _rows(reg) if all(usable(row, p) for p in DEEP_SCAN_PRIMES)]


def _reduce(lam, p: int) -> int:
    return lam.numerator * pow(lam.denominator, -1, p) % p


def deep_scan(seed: int, workdir: str) -> Workload:
    reg = _k3cm("fixtures").registry()
    row = random.Random(seed).choice(deep_scan_fields(reg))
    results: dict[int, set] = {}

    def scan_item(p) -> Item:
        def run():
            import k3cm

            fam = k3cm.registry().family("xlm")
            got = k3cm.scan_prime(fam, p, k3cm.NewformOracle(row.disc))
            lam_p = _reduce(row.lam, p)
            if lam_p not in got:
                return f"lambda = {row.lam} = {lam_p} mod {p} not in {sorted(got)}"
            if results.setdefault(p, got) != got:
                return f"scan at p = {p} gave {sorted(got)}, earlier {sorted(results[p])}"
            return None

        return Item(f"scan{row.disc}@{p}", run)

    return Workload([scan_item(p) for p in DEEP_SCAN_PRIMES],
                    primes=DEEP_SCAN_PRIMES, note=f"field {row.disc}")


WORKLOADS = {"certify": certify, "rediscover": rediscover, "deep-scan": deep_scan}
