"""One measured execution of a workload in a fresh interpreter.

Started by run.py from the root of a checkout; prints one JSON object on the
last line of stdout.  Runs a calibration loop first, then imports sp2forms
from the checkout's ``src`` and refuses to run against any other copy.

    python3 perfbench/child.py --workload sweep --seed 0 --trace 0
    python3 perfbench/child.py --import-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _ImportMarks:
    """A finder that only appends a timestamp each time a module not yet loaded is looked up."""

    def __init__(self, marks: list[float]):
        self.marks = marks

    def find_spec(self, name, path, target=None):
        self.marks.append(time.perf_counter())
        return None  # the finders after this one load the module


CALIBRATION_CHUNKS = 200


def _calibration_chunk() -> int:
    """A fixed piece of pure-Python work, about 55 µs on the reference host: dict updates, sorting, formatting."""
    counts: dict[int, int] = {}
    for i in range(400):
        k = (i * 7919) % 61
        counts[k] = counts.get(k, 0) + i
    return sum(len(f"{k}^{v}") for k, v in sorted(counts.items()))


def _calibrate() -> list[float]:
    """Timestamps around each of CALIBRATION_CHUNKS chunks; it uses builtins only, so it imports nothing."""
    marks = [time.perf_counter()]
    for _ in range(CALIBRATION_CHUNKS):
        _calibration_chunk()
        marks.append(time.perf_counter())
    return marks


def _import_program() -> list[float]:
    """Import sp2forms and sp2forms.cli from the checkout; return timestamps that cut the import into segments."""
    sys.path.insert(0, str(SRC))
    marks = [time.perf_counter()]
    sys.meta_path.insert(0, _ImportMarks(marks))
    import sp2forms
    import sp2forms.cli  # noqa: F401

    del sys.meta_path[0]
    marks.append(time.perf_counter())
    if Path(sp2forms.__file__).resolve().parent != SRC / "sp2forms":
        raise SystemExit(f"sp2forms was imported from {sp2forms.__file__}, not from {SRC}")
    return marks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    calibration_marks = _calibrate() if not args.import_only else []
    setup_marks = _import_program()
    if args.import_only:
        print(json.dumps({"setup_s": setup_marks[-1] - setup_marks[0]}))
        return 0

    import spans
    from summary import Tally, segments
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tracer = None
    missing: list[str] = []
    marks: list[float] = []
    if args.trace:
        tracer = spans.Tracer()
        missing = spans.install(tracer)
    elif workload.engine_marks:
        missing = spans.install_marks(marks)

    marks.append(time.perf_counter())
    outcome = workload.run(inputs, marks)
    marks.append(time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = spans.layer_metrics(tracer, missing) if tracer is not None else None

    tally = Tally()
    workload.check(args.seed, inputs, outcome, tally)
    result = {
        "metrics": {
            "setup_s": setup_marks[-1] - setup_marks[0],
            "wall_s": marks[-1] - marks[0],
            "peak_rss_mb": peak_rss_mb,
        },
        "items": outcome.items,
        "ops": outcome.ops,
        "segments": segments(marks),
        "setup_segments": segments(setup_marks),
        "calibration_segments": segments(calibration_marks),
        "missing": missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
    }
    if tracer is not None:
        result["layers"] = layers
        result["spans"] = tracer.rows()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
