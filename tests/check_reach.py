"""Print every function in `src/k3cm` that no recorded command enters.

    PYTHONPATH=src python tests/check_reach.py

Runs the command list of `check_outputs.py` (the CLI commands and the 4
demos) in this process under `sys.setprofile`, and lists each function or
method defined in `src/k3cm` whose code object was never called, with the
reason `ALLOWED` gives for keeping it.  A function with no reason there is
either dead code or a sign that a recorded output is missing.  Exits 1 when
such a function exists, or when an allowed name is entered after all.
"""

import ast
import sys
import tempfile
from pathlib import Path

import k3cm

PIN = "perfbench pin (spans.LAYERS or workloads)"
ORACLE = "oracle the tests check the fast path against"
ERROR = "error path"
VALUE = "open item 21: a value-type method (repr, hash, text, arithmetic) of the exact core"
DOMAIN = "open item 21: the text interface (format, parse) of a scalar domain"
ALLOWED = {
    "__init__.__dir__": "module protocol: dir(k3cm) lists the lazy names (test_package)",
    "counting.CountCache.get": PIN,
    "counting.TwistTable.fixed": "reached through count_family_member, a perfbench pin",
    "counting._conflict": ERROR,
    "counting._fiber_count": ORACLE,
    "counting.analyze_fibers_mod_p": PIN,
    "counting.count_family_member": PIN,
    "counting.count_weierstrass": PIN,
    "exact.PadicRing.__repr__": VALUE,
    "exact.PadicRing.format": DOMAIN,
    "exact.PadicRing.parse": DOMAIN,
    "exact.Polynomial.__hash__": VALUE,
    "exact.Polynomial.__neg__": VALUE,
    "exact.Polynomial.__repr__": VALUE,
    "exact.Polynomial.__setattr__": VALUE,
    "exact.Polynomial.to_text": VALUE,
    "exact.Polynomial.x": VALUE,
    "exact.QuadField.__repr__": VALUE,
    "exact.QuadField.format": DOMAIN,
    "exact.QuadNum.__str__": VALUE,
    "exact.RationalField.__repr__": VALUE,
    "exact.RationalField.format": DOMAIN,
    "exact.RationalFunction.__add__": VALUE,
    "exact.RationalFunction.__hash__": VALUE,
    "exact.RationalFunction.__neg__": VALUE,
    "exact.RationalFunction.__repr__": VALUE,
    "exact.RationalFunction.__setattr__": VALUE,
    "exact.RationalFunction.__truediv__": VALUE,
    "exact.RationalFunction.is_polynomial": VALUE,
    "exact.RationalFunction.to_text": VALUE,
    "families.Family.bad_primes": PIN,
    "families.Family.specialize_mod": PIN,
    "lift.MultiPoly.__repr__": VALUE,
    "search._degenerate_lambdas": PIN,
    "sections._gcd_restricted": "open item 9: sections with common poles",
    "sections.determine_contact": "public name k3cm.determine_contact, which the tests call",
    "sections.normalized_pair": PIN,
    "surfaces.WeierstrassSurface.__repr__": VALUE,
}


def defined_functions(src: Path) -> dict:
    """(file, first line of the code object) -> "module.Qual.name" for every def in src."""
    out = {}
    for path in sorted(src.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text()), f"{module}.")
    return out


def entered_code(run) -> set:
    """(file, first line) of every Python function called while run() runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def main() -> int:
    from check_outputs import outputs

    src = Path(k3cm.__file__).resolve().parent
    functions = defined_functions(src)
    with tempfile.TemporaryDirectory() as workdir:
        entered = entered_code(lambda: list(outputs(workdir)))
    missed = sorted(name for key, name in functions.items() if key not in entered)
    print(f"{len(missed)} of {len(functions)} functions in src/k3cm are entered by no recorded command")
    unexplained = []
    for name in missed:
        reason = ALLOWED.get(name)
        print(f"{name}\t{reason or 'NO REASON'}")
        if reason is None:
            unexplained.append(name)
    reached = sorted(set(ALLOWED) - set(missed))
    for name in reached:
        print(f"allowed but entered: {name}")
    return 1 if unexplained or reached else 0


if __name__ == "__main__":
    sys.exit(main())
