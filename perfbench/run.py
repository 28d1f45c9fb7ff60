"""Benchmark of sp2forms: fresh-interpreter executions of one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload sweep|oracle|queries --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each execution is a new Python process
(perfbench/child.py), so the jordan caches start cold every time, as they do
for a command-line user.  Executions run one after another until --seconds
have passed.  With --trace 0 the last line of stdout carries the end-to-end
metrics; with --trace 1, traced and untraced executions alternate and it
carries the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import summary
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 150
# Floor of child.py's calibration loop on the 2-CPU reference host in a quiet
# spell.  Times are reported at this speed (see end_to_end).
REFERENCE_CALIBRATION_S = 0.011


class ChildFailed(RuntimeError):
    pass


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name} not found)"


def host_facts() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(ROOT),
        "loadavg_at_start": loadavg,
    }


def run_child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        # A fixed hash seed makes set and dict order, and so the order of calls
        # that cut segments, the same in every execution.
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child.py {' '.join(args)} exited with status {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[int, list[dict]]:
    """Executions by trace mode; with tracing, traced and untraced ones alternate."""
    run_child(["--import-only"])  # compiles the bytecode, so no measured execution pays for it
    modes = (0, 1) if trace else (0,)
    runs: dict[int, list[dict]] = {0: [], 1: []}
    start = time.perf_counter()
    while True:
        for mode in modes:
            runs[mode].append(run_child(["--workload", workload, "--seed", str(seed), "--trace", str(mode)]))
        if time.perf_counter() - start >= seconds:
            return runs


def floor_sum(segments: list[list[float]], whole: list[float]) -> tuple[float, list[float] | None]:
    """The sum of each segment's best, with the floors; the best whole time if the segments do not line up."""
    floors = summary.segment_floors(segments)
    return (min(whole), None) if floors is None else (sum(floors), floors)


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Times as the sum of each segment's best over the run's executions, at the reference speed.

    On a shared host, contention from other tenants slows execution by up to
    a factor of two, in bursts from a fraction of a second to several
    seconds.  It only ever adds time.  Every execution of a run cuts its time
    into the same segments: one per query on queries, and on sweep and
    oracle the stretches between calls of the functions in spans.MARKS.  Each
    segment's best over the executions is its cost free of contention, and
    wall_s is their sum.  On queries an operation is one query and its latency is its
    segment's best; on sweep and oracle the whole command is the operation.
    setup_s is taken the same way, over segments that begin where the import
    looks up a module.

    Besides bursts, the host's speed drifts by 10-20% over minutes, and then
    even the floors move.  Every execution first runs a fixed calibration
    loop in 200 segments; its floor over the run measures the host's speed
    in that run.  Each time is multiplied by REFERENCE_CALIBRATION_S over
    that floor, so it reads as on the reference host in a quiet spell.
    """
    notes = []
    calibration_s = sum(summary.segment_floors([r["calibration_segments"] for r in runs]))  # fixed segment count
    scale = REFERENCE_CALIBRATION_S / calibration_s
    walls = [r["metrics"]["wall_s"] for r in runs]
    raw_wall_s, floors = floor_sum([r["segments"] for r in runs], walls)
    raw_setup_s, setup_floors = floor_sum([r["setup_segments"] for r in runs],
                                          [r["metrics"]["setup_s"] for r in runs])
    for name, got in (("wall_s", floors), ("setup_s", setup_floors)):
        if got is None:
            notes.append(f"segments differ between executions, so {name} is the best whole execution")
    op_floors = [x * scale for x in (floors or [])[:runs[0]["ops"]]] or [raw_wall_s * scale]
    lat_us = [x * 1e6 for x in op_floors]
    p50, p99 = summary.quantile(lat_us, 50), summary.quantile(lat_us, 99)
    metrics = {
        "setup_s": raw_setup_s * scale,
        "wall_s": raw_wall_s * scale,
        "items_per_s": runs[0]["items"] / sum(op_floors),
        "lat_p50_us": p50.value,
        "lat_p99_us": p99.value,
        "peak_rss_mb": min(r["metrics"]["peak_rss_mb"] for r in runs),
    }
    resolved = "" if p99.resolved else "; too few, so p99 is not resolved"
    notes += [
        f"calibration floor {calibration_s:.6f} s, so measured times are scaled by {scale:.4f}",
        f"wall_s: {len(floors or [0])} segments, each its best of {len(runs)} executions, sum {raw_wall_s:.4f} s "
        f"unscaled; whole executions took {min(walls):.4f} s at best, {summary.median(walls):.4f} s at the median",
        f"setup_s: {len(setup_floors or [0])} segments, sum {raw_setup_s:.5f} s unscaled; whole imports took "
        f"{summary.median([r['metrics']['setup_s'] for r in runs]):.5f} s at the median",
        f"latency: {p99.samples} operations, {p99.beyond} beyond p99{resolved}",
    ]
    if runs[0]["missing"]:
        notes.append(f"functions not found, so not marked: {', '.join(runs[0]['missing'])}")
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the fastest traced execution, which keeps them consistent with each other."""
    fastest = min(traced, key=lambda r: r["metrics"]["wall_s"])
    plain = min(r["metrics"]["wall_s"] for r in untraced)
    metrics = dict(fastest["layers"])
    metrics["trace_overhead_s"] = fastest["metrics"]["wall_s"] - plain
    notes = [f"fastest traced wall_s {fastest['metrics']['wall_s']:.4f} s, fastest untraced {plain:.4f} s"]
    if fastest["missing"]:
        notes.append(f"missing functions, metrics not reported: {', '.join(fastest['missing'])}")
    own: dict[str, float] = {}
    for row in fastest["spans"]:
        module = row["name"].split(".")[0]
        own[module] = own.get(module, 0.0) + row["self_s"]
    total = sum(own.values())
    shares = ", ".join(f"{m} {s / total:.1%}" for m, s in sorted(own.items(), key=lambda kv: -kv[1]))
    notes.append(f"self time by module ({total:.4f} s in spans): {shares}")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="query stream seed; sweep and oracle ignore it")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting executions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    facts = host_facts()
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    every = runs[0] + runs[1]
    tally = summary.Tally()
    for r in every:
        tally.add(r["attempted"], r["failed"], "execution")
    if args.trace:
        computed, notes = per_layer(runs[0], runs[1])
    else:
        computed, notes = end_to_end(runs[0])
    print(f"host: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs[0])} untraced and {len(runs[1])} traced executions")
    for line in notes:
        print(f"  {line}")
    for r in every:
        for note in r["notes"]:
            print(f"  check failed: {note}")
    print(f"  fail_frac = {tally.failed}/{tally.attempted} = {tally.fail_frac}")

    metrics = {}
    for m in listed:
        if m["name"] in computed:
            metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']} = {computed[m['name']]} {m['unit']}")
    unlisted = sorted(set(computed) - {m["name"] for m in listed})
    if unlisted:
        print(f"  computed but not listed in BENCHMARK.json: {', '.join(unlisted)}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    for r in every:
        del r["segments"], r["setup_segments"], r["calibration_segments"]
    out.write_text(json.dumps({"host": facts, "args": vars(args), "metrics": computed, "executions": runs}, indent=1))

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
