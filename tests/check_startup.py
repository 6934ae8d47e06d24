"""Start-up cost of k3cm commands: two source trees timed in alternation.

    python tests/check_startup.py OLD_SRC NEW_SRC [--rounds N]

Each round runs, for each tree and as a new interpreter (`python -B`, so no
bytecode is written into either tree):

* set-up: `import k3cm; k3cm.registry().family('xlm').bad_primes(200)`
* `k3cm verify --surface ex_5460`
* `k3cm search --disc -88 --primes 4`

The order of the two trees flips every round.  For each command and tree it
prints the median and quartiles of the wall time in ms, the `k3cm` modules
the command loaded, and the fixture registry's collections it parsed (a
registry that parses every collection at load lists all six).  Stdlib
only; not collected by pytest.  For times that include compiling the
package, remove `__pycache__` from both trees first.
"""

import argparse
import statistics
import subprocess
import sys
import time

RUNNER = """
import sys
sys.path.insert(0, sys.argv[1])
if len(sys.argv) > 2:
    from k3cm.cli import main
    code = main(sys.argv[2:])
else:
    import k3cm
    k3cm.registry().family('xlm').bad_primes(200)
    code = 0
print(' '.join(sorted(m for m in sys.modules if m == 'k3cm' or m.startswith('k3cm.'))), file=sys.stderr)
reg = getattr(sys.modules.get('k3cm.fixtures'), '_registry', None)
collections = ('_families', 'surfaces', 'table1', 'extremal', 'semistable', 'corroboration')
print(' '.join(name for name in collections if reg is not None and name in vars(reg)), file=sys.stderr)
sys.exit(code)
"""
COMMANDS = {
    "set-up": [],
    "verify ex_5460": ["verify", "--surface", "ex_5460"],
    "search -88": ["search", "--disc", "-88", "--primes", "4"],
}


def run(src: str, argv: list) -> tuple[float, tuple[str, str]]:
    """(wall seconds, (loaded k3cm modules, parsed registry collections)) of one command
    in a new interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-B", "-c", RUNNER, src, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{src}: {' '.join(argv) or 'set-up'} exited {proc.returncode}\n{proc.stderr}")
    modules, parsed = proc.stderr.splitlines()[-2:]
    return wall, (modules, parsed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs=2, metavar="SRC", help="two directories that hold a k3cm package")
    ap.add_argument("--rounds", type=int, default=11)
    args = ap.parse_args()
    times = {(cmd, src): [] for cmd in COMMANDS for src in args.trees}
    loaded = {}
    for r in range(args.rounds):
        for src in args.trees if r % 2 == 0 else reversed(args.trees):
            for cmd, argv in COMMANDS.items():
                wall, loaded[cmd, src] = run(src, argv)
                times[cmd, src].append(wall)
    for cmd in COMMANDS:
        print(cmd)
        for src in args.trees:
            q1, q2, q3 = statistics.quantiles(times[cmd, src], n=4)
            modules, parsed = (text.split() for text in loaded[cmd, src])
            print(f"  {src}: median {1000 * q2:.1f} ms (q1 {1000 * q1:.1f}, q3 {1000 * q3:.1f}), "
                  f"{len(modules)} modules: {' '.join(modules)}; "
                  f"parsed {len(parsed)} collections: {' '.join(parsed) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
