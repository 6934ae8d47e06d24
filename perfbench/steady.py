"""Steadiness report: run one workload over several seeds and summarize.

    python3 perfbench/steady.py --workload certify --seeds 1 2 3 4 5 6 7 8 9 10

Runs perfbench/run.py once per seed, one run at a time, and prints for every
metric the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median.  For end-to-end metrics it also prints the bound
from BENCHMARK.json and the spread as a share of it, so bounds can be set
from measured spread.  The summary is also written to
.perfbench/steady-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}")
        print("  " + next((ln for ln in lines if "items per pass" in ln), ""), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name)}
        bound = f"{bounds[name]:6.2f}" if name in bounds else ""
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound}")
    out = ROOT / ".perfbench" / f"steady-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "all_correct": all(r["correct"] for r in runs),
                               "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
