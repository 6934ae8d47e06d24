"""k3cm benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from `src/`.
Everything runs in this one process and thread.  The run:

1. makes the workload's inputs from the seed (see workloads.py);
2. makes two whole passes over the items, then more while one more pass
   (as long as the longest so far) still ends within --seconds, checking
   every item's output;
3. times `setup_s` before each pass and after the last: fresh interpreters
   that import k3cm, load the fixture registry (sha256 manifest check) and
   compute the family's bad primes;
4. with --trace 1, makes one untraced pass and one with the span recorder
   installed (see spans.py), writes the spans to .perfbench/<workload>/, and
   reports the per-layer metrics instead of the end-to-end ones.

Times are taken per item and corrected for the host's slow-down at that
moment, as measured by a fixed probe (see probe.py).  `wall_s` and `cpu_s`
are the median over passes of a pass's corrected time; `item_s.p50` is the
median over items of an item's median corrected time over the passes.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  Lines before it give the environment
and every end-to-end metric in words.  Exit code 2 without a result when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3   # fresh set-ups before each pass and after the last
MIN_PASSES = 2
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import k3cm; "
    "k3cm.registry().family('xlm').bad_primes(200)"
)

sys.path.insert(0, str(HERE))

from probe import Probe, Timed, at_reference  # noqa: E402
from spans import PROBE_SPAN, SpanRecorder  # noqa: E402


@dataclass
class Pass:
    wall_s: float = 0.0         # as measured, probes included
    prelude: Timed | None = None   # registry load and bad primes at the pass start
    items: list = field(default_factory=list)      # one Timed per item
    failures: list = field(default_factory=list)   # (item id, reason)

    def corrected(self) -> list:
        """(wall, cpu) of the prelude, then of every item, at the reference speed."""
        return [t.corrected() for t in [self.prelude] + self.items]


def run_pass(wl, probe: Probe, recorder=None) -> Pass:
    """One pass over every item, from a cold fixture registry.

    The pass starts with the set-up that `setup_s` times, so that a traced
    pass attributes the registry and bad-prime layers on every workload.
    In a traced pass each probe is recorded as a span of its own, so that
    no layer's self time holds probe work.
    """
    import k3cm
    import k3cm.fixtures

    k3cm.fixtures._registry = None   # each pass loads the registry, as one k3cm command does
    wl.reset()
    out = Pass()
    w0 = time.perf_counter()
    if recorder is not None:
        probe.on_sample = recorder.probe
        recorder.item = "setup"
    probe.start()
    try:
        with Timed(probe) as out.prelude:
            k3cm.registry().family("xlm").bad_primes(200)
        for item in wl.items:
            if recorder is not None:
                recorder.item = item.id
            with Timed(probe) as timed:
                try:
                    reason = item.run()
                except Exception:
                    reason = traceback.format_exc(limit=3)
            out.items.append(timed)
            if reason is not None:
                out.failures.append((item.id, reason))
    finally:
        probe.stop()
        probe.on_sample = None
    out.wall_s = time.perf_counter() - w0
    return out


def time_setup(probe: Probe) -> Timed:
    """One fresh set-up, with a probe on either side of it."""
    with Timed(probe) as timed:
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True, cwd=ROOT)
    return timed


def end_to_end(setup: list, passes: list) -> dict:
    attempted = sum(len(p.items) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    per_pass = [p.corrected() for p in passes]
    # per item (the prelude left out), its median corrected time over the passes
    per_item = [statistics.median(w for w, _ in ts) for ts in list(zip(*per_pass))[1:]]
    return {
        "setup_s": statistics.median(t.corrected()[0] for t in setup),
        "wall_s": statistics.median(sum(w for w, _ in ts) for ts in per_pass),
        "cpu_s": statistics.median(sum(c for _, c in ts) for ts in per_pass),
        "item_s.p50": statistics.median(per_item),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
        "fail_frac": failed / attempted,   # printed; BENCHMARK.json bounds ok_frac
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, wl, traced_wall: float, untraced_wall: float) -> dict:
    agg = rec.by_name()
    calls = lambda name: agg.get(name, {}).get("calls", 0)
    named = lambda name: [(i, row) for i, row in enumerate(rec.spans) if row[0] == name]

    probes = [row for row in rec.spans if row[0] == PROBE_SPAN]   # in time order
    starts = [row[3] for row in probes]

    def member_ms(p):
        # mean, not median: member times at one p are bimodal.  Each member's
        # time leaves out the probes inside it and is corrected, like an
        # item's, by them and the one before it, so that the two primes,
        # scanned seconds apart, compare at the same speed.
        ds = []
        for _, row in named("counting.count_family_member"):
            if row[6]["p"] != p:
                continue
            lo = max(bisect.bisect_left(starts, row[3]) - 1, 0)
            near = [q[4] - q[3] for q in probes[lo:bisect.bisect_right(starts, row[4])]]
            inside = sum(near[1:]) if starts[lo] < row[3] else sum(near)
            ds.append(at_reference(row[4] - row[3] - inside, near))
        return 1000 * statistics.fmean(ds) if ds else 0.0

    small = member_ms(wl.primes[0]) if wl.primes else 0.0
    large = member_ms(wl.primes[-1]) if wl.primes else 0.0
    scans = [row for _, row in named("search.scan_prime") if row[5] is None]
    lifts = [row[6] for _, row in named("search.lift_candidates")]
    hits = sum(1 for _, row in named("counting.cache.get") if row[6]["hit"])
    derived = {
        "lattices.iso_attempts_per_match": _ratio(
            calls("lattices.is_isomorphic"), calls("lattices.match_transcendental")),
        "counting.member_ms.small_p": small,
        "counting.member_ms.large_p": large,
        "counting.member_cost_exponent": (
            math.log(large / small) / math.log(wl.primes[-1] / wl.primes[0])
            if small and large else 0.0),
        "counting.count_errors": sum(
            1 for i, row in named("counting.count_family_member")
            if row[5] == "CountingError" and rec.has_ancestor(i, "search.scan_prime")),
        "counting.cache.lookups": calls("counting.cache.get"),
        "counting.cache.hits": hits,
        "counting.cache_hit_ratio": _ratio(hits, calls("counting.cache.get")),
        "counting.cache.bytes": (
            os.path.getsize(wl.cache_path)
            if wl.cache_path and os.path.exists(wl.cache_path) else 0),
        "search.match_ratio": _ratio(
            sum(r[6]["matched"] for r in scans), sum(r[6]["p"] for r in scans)),
        "search.candidates_per_field": _ratio(
            sum(a.get("candidates", 0) for a in lifts), calls("search.search")),
        "search.primes_dropped": sum(
            1 for i, row in named("search.scan_prime")
            if row[5] == "SearchError" and rec.has_ancestor(i, "search.search")),
        "search.residue_sets_oversized": sum(len(a["oversized"]) for a in lifts),
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    }
    out = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            value = agg.get(name[: -len(".self_s")], {}).get("self_s", 0.0)
        else:
            raise KeyError(f"per-layer metric {name} has no definition")
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def env_block(args, wl) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "choice": wl.note,
    }


def git_commit() -> str:
    """HEAD read from .git when the checkout has one, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "k3cm" / "__init__.py").is_file():
        print(f"k3cm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, str(workdir))
    probe = Probe()
    setup, passes = [], []
    start = time.perf_counter()
    # two passes at least (deep-scan checks its sets repeat; the traced pass
    # counts as the second), then more while another pass as long as the
    # longest so far still ends within --seconds
    min_passes = 1 if args.trace else MIN_PASSES
    while len(passes) < min_passes or not args.trace and (
            time.perf_counter() - start + max(p.wall_s for p in passes) <= args.seconds):
        setup += [time_setup(probe) for _ in range(SETUP_REPEATS)]
        passes.append(run_pass(wl, probe))
    setup += [time_setup(probe) for _ in range(SETUP_REPEATS)]

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    all_passes = list(passes)
    if args.trace:
        rec = SpanRecorder()
        rec.install()
        try:
            traced = run_pass(wl, probe, rec)
        finally:
            rec.uninstall()
        all_passes.append(traced)
        rec.write_jsonl(workdir / "spans.jsonl")
    e2e = end_to_end(setup, passes)
    if args.trace:
        traced_wall = sum(w for w, _ in traced.corrected())
        metrics = layer_metrics(rec, wl, traced_wall, e2e["wall_s"])
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    attempted = sum(len(p.items) for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    for item_id, reason in failures:
        print(f"FAIL {item_id}: {reason}", file=sys.stderr)
    print("env " + json.dumps(env_block(args, wl)))
    print(f"{len(wl.items)} items per pass; pass wall_s as measured "
          + " ".join(f"{p.wall_s:.3f}" for p in all_passes)
          + f"; {len(probe.times)} probes, fastest {1000 * probe.floor():.3f} ms,"
          f" median {probe.slowdown():.3f}x the reference")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units.get(name, 'ratio')}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
