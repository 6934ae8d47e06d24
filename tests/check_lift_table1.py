"""Recover every (P.O) = 0 Table 1 section by lifting; too slow for the test suite.

    PYTHONPATH=src python tests/check_lift_table1.py

For each non-defective Table 1 row whose printed section misses the zero
section, reads the contact plan off the printed section and runs
`recover_section` at the first good split prime p below 200 with
p^n_u <= 2*10^6, the bound `solve_mod_p` scans.  The recovered u must equal
the printed one exactly.  Prints one line per row: the prime, n_u, n_w, the
time, and the Newton row choices that skip a leading Jacobian row.  Rows
with (P.O) = 1 are out of scope, since `build_ansatz` models only
(P.O) = 0.  Exits 1 on any row that is not recovered.
"""

import sys
import time

from test_lift import table1_case

from k3cm import lift
from k3cm.fixtures import registry
from k3cm.newforms import NewformOracle
from k3cm.search import usable_primes


def main() -> int:
    reg = registry()
    fam = reg.family("xlm")
    choices, independent_rows = [], lift._independent_rows

    def recording(jac_p, p):
        got = independent_rows(jac_p, p)
        choices.append((len(jac_p), got))
        return got

    failed = recovered = 0
    for row in reg.table1:
        if row.status == "defective":
            print(f"{row.disc}\tskipped: defective row")
            continue
        surf, plan, sec0 = table1_case(fam, row)
        if sec0.pO:
            print(f"{row.disc}\tout of scope: (P.O) = {sec0.pO}, the ansatz models (P.O) = 0")
            continue
        ansatz = lift.build_ansatz(surf, surf.fibers, plan, row.disc)
        nu, nw = ansatz.n_u_free, ansatz.n_w_free
        p = next(p for p in usable_primes(fam, NewformOracle(row.disc), 200) if p ** nu <= 2 * 10**6)
        choices.clear()
        start = time.perf_counter()
        lift._independent_rows = recording
        try:
            u = lift.recover_section(surf, surf.fibers, plan, p, expected_disc=row.disc).u
            status = "ok" if u == sec0.u else f"WRONG u = {u.to_text()}"
        except lift.LiftError as exc:
            status = f"FAILED: {exc}"
        finally:
            lift._independent_rows = independent_rows
        elapsed = time.perf_counter() - start
        skips = [(m, rows) for m, rows in choices if rows != list(range(len(rows or [])))]
        ok = status == "ok"
        recovered += ok
        failed += not ok
        print(f"{row.disc}\tp = {p}\tn_u = {nu}\tn_w = {nw}\t{elapsed:.2f} s\t"
              f"non-leading rows: {skips or 'none'}\t{status}", flush=True)
    print(f"{recovered} rows recovered, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
