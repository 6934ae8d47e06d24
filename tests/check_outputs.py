"""Write the stdout of the user-facing commands, one file each, for `diff -r`.

    PYTHONPATH=src python tests/check_outputs.py OUTDIR

`outputs` is the one list of recorded commands.  `test_golden.py` runs it in
tier-1 against the files checked in under `tests/golden/outputs/`, and
`check_reach.py` runs it to find the functions no command enters.  Every
command runs in this process:

* `k3cm regression --subset S` for S = all, table1, examples, extremal
* `k3cm verify` and `k3cm tlattice` by name for the 39 surfaces of
  `FixtureRegistry.certified`: the 9 example fixtures, the 25
  non-defective Table 1 rows and the 5 extremal rows
* `k3cm search --disc -88 --primes 4` and `--disc -1540 --primes 4`
* `k3cm --cache FILE search --disc -88 --primes 4` twice on one new cache
  file, cold and then warm; the two stdouts must be equal, and the log as
  each run left it is recorded as <command>.cache, so that `diff -r`
  compares the log bytes too
* `k3cm count --prime 19` for every lambda (the GF(p) fiber classifier)
* `k3cm discs --max 7000` and `k3cm ap --disc -88 --primes 200`
* `k3cm lift --system` on the one-variable system of `test_cli`
* the 4 demos, each run as `__main__`

Each command's stdout goes to OUTDIR/<command>.txt; OUTDIR/exit_codes.txt
lists every exit code.  A refactor that claims byte-identical output runs
this once on the old tree and once on the new one (each with its own
PYTHONPATH) and compares the two directories with `diff -r`.
"""

import contextlib
import io
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

from k3cm.cli import main as cli_main
from k3cm.fixtures import registry

REPO = Path(__file__).resolve().parent.parent
LIFT_SYSTEM = "[system]\nvars = x\neq1 = 1:2 + -4/9:0\n"
CACHED_SEARCH = ("search_-88_cache_cold", "search_-88_cache_warm")
LOG = "counts.cache"


def _captured(run) -> tuple[int, str]:
    """(exit code, stdout) of run().  Its stderr is dropped; an uncaught error
    exits 1 and prints its traceback to this process's stderr, as a script would."""
    out, error = io.StringIO(), ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = 1, traceback.format_exc()
    print(error, end="", file=sys.stderr)
    return code, out.getvalue()


def run_cli(argv) -> tuple[int, str]:
    return _captured(lambda: cli_main(argv))


def run_demo(path: Path) -> tuple[int, str]:
    def run():
        runpy.run_path(str(path), run_name="__main__")
        return 0

    return _captured(run)


def commands(workdir: str):
    """(file stem, thunk returning (exit code, stdout)) for every command."""
    for subset in ("all", "table1", "examples", "extremal"):
        yield f"regression_{subset}", lambda s=subset: run_cli(["regression", "--subset", s])
    names = sorted(fx.name for fx in registry().certified)
    for command in ("verify", "tlattice"):
        for name in names:
            yield f"{command}_{name}", lambda c=command, n=name: run_cli([c, "--surface", n])
    for disc in ("-88", "-1540"):
        yield f"search_{disc}", lambda d=disc: run_cli(["search", "--disc", d, "--primes", "4"])
    cache = str(Path(workdir) / LOG)
    for stem in CACHED_SEARCH:
        yield stem, lambda: run_cli(["--cache", cache, "search", "--disc", "-88", "--primes", "4"])
    yield "count_19", lambda: run_cli(["count", "--prime", "19"])
    yield "discs_7000", lambda: run_cli(["discs", "--max", "7000"])
    yield "ap_-88_200", lambda: run_cli(["ap", "--disc", "-88", "--primes", "200"])
    for demo in sorted((REPO / "demos").glob("demo_*.py")):
        yield demo.stem, lambda d=demo: run_demo(d)
    system = Path(workdir) / "sq.system"
    system.write_text(LIFT_SYSTEM)
    yield "lift_system", lambda: run_cli(["lift", "--system", str(system), "--prime", "7"])


def outputs(workdir: str):
    """(file name, text) of every recorded output, exit_codes.txt last."""
    codes = []
    for stem, thunk in commands(workdir):
        code, out = thunk()
        codes.append(f"{stem}\t{code}")
        yield f"{stem}.txt", out
        if stem in CACHED_SEARCH:
            yield f"{stem}.cache", (Path(workdir) / LOG).read_text()
    yield "exit_codes.txt", "\n".join(codes) + "\n"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in outputs(workdir):
            (outdir / name).write_text(text)
    codes = (outdir / "exit_codes.txt").read_text().splitlines()
    print(f"{len(codes)} outputs written to {outdir}", file=sys.stderr)
    failed = [line for line in codes if not line.endswith("\t0")]
    if failed:
        print(f"nonzero exit codes: {failed}", file=sys.stderr)
    cold, warm = ((outdir / f"{stem}.txt").read_text() for stem in CACHED_SEARCH)
    if cold != warm:
        print("the warm cached search printed other lines than the cold one", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
