"""Write the stdout of the user-facing commands, one file each, for `diff -r`.

    PYTHONPATH=src python tests/check_outputs.py OUTDIR

Runs, in-process unless noted:

* `k3cm regression --subset S` for S = all, table1, examples, extremal
* `k3cm verify` and `k3cm tlattice` for the 39 surfaces the certify
  workload checks: the 9 example fixtures, plus surface files for the 25
  non-defective Table 1 rows and the 5 extremal rows, written by
  `perfbench/workloads.certify`
* `k3cm search --disc -88 --primes 4` and `--disc -1540 --primes 4`
* `k3cm --cache FILE search --disc -88 --primes 4` twice on one new cache
  file, cold and then warm; the two stdouts must be equal, and the log as
  each run left it is copied to OUTDIR/<command>.cache, so that `diff -r`
  compares the log bytes too
* `k3cm count --prime 19` for every lambda (the GF(p) fiber classifier)
* the 4 demos (each in a subprocess that imports the same k3cm)
* `k3cm lift --system` on the one-variable system of `test_cli`

Each command's stdout goes to OUTDIR/<command>.txt; OUTDIR/exit_codes.txt
lists every exit code.  A refactor that claims byte-identical output runs
this once on the old tree and once on the new one (each with its own
PYTHONPATH) and compares the two directories with `diff -r`.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import k3cm  # noqa: E402
from k3cm.fixtures import registry  # noqa: E402

import workloads  # noqa: E402

LIFT_SYSTEM = "[system]\nvars = x\neq1 = 1:2 + -4/9:0\n"
CACHED_SEARCH = ("search_-88_cache_cold", "search_-88_cache_warm")
LOG = "counts.cache"


def run_cli(argv) -> tuple[int, str]:
    code, out, _ = workloads._cli(argv)
    return code, out


def run_demo(path: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(k3cm.__file__).parent.parent))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def commands(workdir: str):
    """(file stem, thunk returning (exit code, stdout)) for every command."""
    for subset in ("all", "table1", "examples", "extremal"):
        yield f"regression_{subset}", lambda s=subset: run_cli(["regression", "--subset", s])
    examples = sorted(registry().surfaces)
    workloads.certify(0, workdir)   # writes the Table 1 and extremal surface files
    files = sorted(Path(workdir).glob("*.surf"))
    for command in ("verify", "tlattice"):
        for target in examples + [str(f) for f in files]:
            yield f"{command}_{Path(target).stem}", lambda c=command, t=target: run_cli([c, "--surface", t])
    for disc in ("-88", "-1540"):
        yield f"search_{disc}", lambda d=disc: run_cli(["search", "--disc", d, "--primes", "4"])
    cache = str(Path(workdir) / LOG)
    for stem in CACHED_SEARCH:
        yield stem, lambda: run_cli(["--cache", cache, "search", "--disc", "-88", "--primes", "4"])
    yield "count_19", lambda: run_cli(["count", "--prime", "19"])
    for demo in sorted((REPO / "demos").glob("demo_*.py")):
        yield demo.stem, lambda d=demo: run_demo(d)
    system = Path(workdir) / "sq.system"
    system.write_text(LIFT_SYSTEM)
    yield "lift_system", lambda: run_cli(["lift", "--system", str(system), "--prime", "7"])


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as workdir:
        for stem, thunk in commands(workdir):
            code, out = thunk()
            (outdir / f"{stem}.txt").write_text(out)
            if stem in CACHED_SEARCH:
                shutil.copyfile(Path(workdir) / LOG, outdir / f"{stem}.cache")
            codes.append(f"{stem}\t{code}")
            print(f"{stem}: exit {code}", file=sys.stderr)
    (outdir / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    print(f"{len(codes)} outputs written to {outdir}", file=sys.stderr)
    cold, warm = ((outdir / f"{stem}.txt").read_text() for stem in CACHED_SEARCH)
    if cold != warm:
        print("the warm cached search printed other lines than the cold one", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
