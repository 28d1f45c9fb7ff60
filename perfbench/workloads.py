"""The benchmark workloads: inputs, one measured execution, and the checks on its outputs.

Each workload drives sp2forms only through ``sp2forms.cli.main`` (stdout
captured) and the public library API, resolved at call time so that a traced
run goes through the wrappers.  Everything the checks compare against is
computed here, independently of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from summary import Tally

ROOT = Path(__file__).resolve().parent.parent

SWEEP_MAX_N = 22
SWEEP_MAX_DIM = 44
ORACLE_MAX_DIM = 12
ORACLE_MAX_N = 8
N_QUERIES = 10000
QUERY_MAX_DIM = 120
DEFAULT_SEED = 0
# sha256 of every query output of DEFAULT_SEED, one per line, at the commit that defined the benchmark.
DEFAULT_SEED_DIGEST = "ce98a87daeefd0742250a2fcab4755e2be08e7af71a0fc6ab0c3663ea9e98008"


@dataclass
class Outcome:
    """What one timed execution of a workload produced."""

    items: int  # classes checked, oracle instances or queries
    output: object  # what the checks inspect
    ops: int = 0  # leading segments that are one operation each; 0 when the whole execution is one


def _run_cli(argv: list[str]) -> tuple[int, str]:
    import sp2forms.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sp2forms.cli.main(argv)
    return rc, out.getvalue()


# --- independent counts and expected hit lists ------------------------------


def _partition_counts(n: int, max_part: int | None = None):
    """Partitions of n as {part: multiplicity}."""
    if n == 0:
        yield {}
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in _partition_counts(n - first, first):
            counts = dict(rest)
            counts[first] = counts.get(first, 0) + 1
            yield counts


def symplectic_class_count(dim: int) -> int:
    """Classes of dimension dim: odd parts paired, two tag choices per even part of even multiplicity."""
    total = 0
    for counts in _partition_counts(dim):
        if all(d % 2 == 0 or m % 2 == 0 for d, m in counts.items()):
            total += 2 ** sum(1 for d, m in counts.items() if d % 2 == 0 and m % 2 == 0)
    return total


def oracle_expected_counts(max_dim: int, max_n: int) -> tuple[int, int]:
    symplectic = sum(symplectic_class_count(dim) for dim in range(4, max_dim + 1, 2))
    linear = sum(sum(1 for _ in _partition_counts(n)) for n in range(2, max_n + 1))
    return symplectic, linear


def _odd_sums(max_dim: int) -> list[list[int]]:
    """Sets of distinct sizes 2k, k odd, of total at most max_dim, as ascending lists."""
    sizes = list(range(2, max_dim + 1, 4))
    out = []

    def extend(start: int, chosen: list[int], total: int) -> None:
        for i in range(start, len(sizes)):
            if total + sizes[i] <= max_dim:
                out.append(chosen + [sizes[i]])
                extend(i + 1, chosen + [sizes[i]], total + sizes[i])

    extend(0, [], 0)
    return out


def sweep_expected_hits(max_n: int, max_dim: int) -> dict[str, set[str]]:
    """The paper's distinguished inputs within the bounds, keyed by sweep name."""
    wedge = {"wedge 4_1"} if max_n >= 2 else set()
    irr = {f"irr {s}" for n, s in ((2, "4_1"), (2, "2_1^2"), (3, "6_1"), (5, "10_1"), (6, "2_1,10_1")) if n <= max_n}
    return {
        "dual-tensor-distinguished": {"2"} if max_n >= 2 else set(),
        "dual-irreducible-distinguished": {str(n) for n in (2, 3, 5) if n <= max_n},
        "bilinear-tensor-distinguished": {
            "2_1 x " + ",".join(f"{d}_1" for d in s) for s in _odd_sums(max_dim // 2)
        },
        "wedge-distinguished": wedge | irr,
    }


# --- sweep ------------------------------------------------------------------


def _run_sweep(inputs, marks: list[float]) -> Outcome:
    rc, text = _run_cli(["distinguished", "--max-n", str(SWEEP_MAX_N), "--max-dim", str(SWEEP_MAX_DIM), "--json"])
    reports = json.loads(text)
    return Outcome(items=sum(r["checked"] for r in reports), output=(rc, reports))


def _check_sweep(seed: int, inputs, outcome: Outcome, tally: Tally) -> None:
    rc, reports = outcome.output
    tally.check(rc == 0, "distinguished exit status")
    by_name = {r["name"]: r for r in reports}
    for name, expected in sweep_expected_hits(SWEEP_MAX_N, SWEEP_MAX_DIM).items():
        report = by_name.get(name)
        if report is None:
            tally.check(False, f"{name} report present")
            continue
        tally.add(report["checked"], min(report["checked"], len(report["counterexamples"])), f"{name} classes")
        tally.check(report["ok"], f"{name} ok")
        hits = report["distinguished_inputs"]
        tally.check(len(hits) == len(set(hits)) and set(hits) == expected, f"{name} hit list")


# --- oracle -----------------------------------------------------------------


def _run_oracle(inputs, marks: list[float]) -> Outcome:
    rc, text = _run_cli([
        "oracle-check", "--max-dim", str(ORACLE_MAX_DIM), "--max-n", str(ORACLE_MAX_N), "--jobs", "1", "--json",
    ])
    report = json.loads(text)
    return Outcome(items=report["symplectic_checked"] + report["linear_checked"], output=(rc, report))


def _check_oracle(seed: int, inputs, outcome: Outcome, tally: Tally) -> None:
    rc, report = outcome.output
    tally.check(rc == 0, "oracle-check exit status")
    problems = len(report["mismatches"]) + len(report["parity_violations"])
    tally.add(outcome.items, min(outcome.items, problems), "oracle instances")
    tally.check(report["ok"], "oracle-check ok")
    symplectic, linear = oracle_expected_counts(ORACLE_MAX_DIM, ORACLE_MAX_N)
    tally.check(report["symplectic_checked"] == symplectic, f"symplectic instance count {symplectic}")
    tally.check(report["linear_checked"] == linear, f"linear instance count {linear}")


# --- queries ----------------------------------------------------------------

QUERY_KINDS = ("tensor", "wedge_square", "dual_tensor_classes", "wedge_square_classes", "tensor_bilinear")


def _jordan_text(rng: random.Random, dim: int) -> str:
    counts: dict[int, int] = {}
    left = dim
    while left:
        d = rng.randint(1, left)
        m = rng.randint(1, min(3, left // d))
        counts[d] = counts.get(d, 0) + m
        left -= d * m
    return ",".join(f"{d}^{m}" if m > 1 else str(d) for d, m in sorted(counts.items()))


def _symplectic_text(rng: random.Random, dim: int) -> str:
    """A class of even dimension dim: odd sizes come in pairs, odd multiplicity forces the tag."""
    counts: dict[int, int] = {}
    left = dim
    while left:
        d = rng.randint(1, left)
        if d % 2 and 2 * d > left:
            d -= 1
        step = 2 if d % 2 else 1
        m = step * rng.randint(1, min(3, left // (d * step)))
        counts[d] = counts.get(d, 0) + m
        left -= d * m
    terms = []
    for d, m in sorted(counts.items()):
        e = 0 if d % 2 else (1 if m % 2 else rng.randint(0, 1))
        terms.append(f"{d}_{e}^{m}" if m > 1 else f"{d}_{e}")
    return ",".join(terms)


def query_inputs(seed: int, count: int = N_QUERIES) -> list[tuple[str, tuple[str, ...]]]:
    """The seeded query stream: (kind, input strings), plain strings made without calling the program."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.choice(QUERY_KINDS)
        if kind == "tensor":
            args = (_jordan_text(rng, rng.randint(1, QUERY_MAX_DIM)), _jordan_text(rng, rng.randint(1, QUERY_MAX_DIM)))
        elif kind in ("wedge_square", "dual_tensor_classes"):
            args = (_jordan_text(rng, rng.randint(2, QUERY_MAX_DIM)),)
        elif kind == "wedge_square_classes":
            args = (_symplectic_text(rng, 2 * rng.randint(2, QUERY_MAX_DIM // 2)),)
        else:
            args = tuple(_symplectic_text(rng, 2 * rng.randint(1, QUERY_MAX_DIM // 2)) for _ in range(2))
        out.append((kind, args))
    return out


def text_dimension(text: str) -> int:
    """Dimension of a printed Jordan or tagged type: the sum of size times multiplicity."""
    if text == "0":
        return 0
    total = 0
    for term in text.split(","):
        head, _, mult = term.partition("^")
        total += int(head.partition("_")[0]) * int(mult or 1)
    return total


def _query_functions() -> dict:
    import sp2forms as api

    def classes(res, first):
        return f"{getattr(res, first)} | {res.irreducible}"

    return {
        "tensor": lambda a, b: str(api.tensor(api.JordanType.parse(a), api.JordanType.parse(b))),
        "wedge_square": lambda a: str(api.wedge_square(api.JordanType.parse(a))),
        "dual_tensor_classes": lambda a: classes(api.dual_tensor_classes(api.JordanType.parse(a)), "tensor_space"),
        "wedge_square_classes": lambda a: classes(
            api.wedge_square_classes(api.SymplecticType.parse(a)), "wedge_space"),
        "tensor_bilinear": lambda a, b: str(
            api.tensor_bilinear(api.SymplecticType.parse(a), api.SymplecticType.parse(b))),
    }


def query_output_ok(kind: str, args: tuple[str, ...], out: str) -> bool:
    """The dimension identities every result must satisfy."""
    dims = [text_dimension(a) for a in args]
    if kind in ("tensor", "tensor_bilinear"):
        return text_dimension(out) == dims[0] * dims[1]
    if kind == "wedge_square":
        return text_dimension(out) == dims[0] * (dims[0] - 1) // 2
    full_text, _, sub_text = out.partition(" | ")
    full, sub = text_dimension(full_text), text_dimension(sub_text)
    if kind == "dual_tensor_classes":
        expected = dims[0] ** 2
    else:
        n = dims[0] // 2
        expected = n * (2 * n - 1)
    return full == expected and sub in (expected - 1, expected - 2)


GOLDEN_TABLES = (("A", "2..7"), ("C", "2..8"))


def _run_queries(stream: list[tuple[str, tuple[str, ...]]], marks: list[float]) -> Outcome:
    """One segment per query, then one per golden table."""
    functions = _query_functions()
    outputs: list[str | None] = []
    clock = time.perf_counter
    for kind, args in stream:
        try:
            out = functions[kind](*args)
        except Exception:  # counted as a failed query by the check
            out = None
            traceback.print_exc()
        outputs.append(out)
        marks.append(clock())
    tables = []
    for which, rows in GOLDEN_TABLES:
        tables.append(_run_cli(["table", which, rows]))
        marks.append(clock())
    return Outcome(items=len(stream), ops=len(stream), output=(outputs, tables))


def _check_queries(seed: int, stream, outcome: Outcome, tally: Tally) -> None:
    outputs, tables = outcome.output
    for (which, _), (rc, text) in zip(GOLDEN_TABLES, tables):
        golden = ROOT / "golden" / f"table_{which}.txt"
        tally.check(rc == 0 and text.encode() == golden.read_bytes(), f"table {which} matches {golden.name}")
    bad = sum(1 for (kind, args), out in zip(stream, outputs) if out is None or not query_output_ok(kind, args, out))
    tally.add(len(stream), bad, "query dimension identities")
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256("\n".join(str(o) for o in outputs).encode()).hexdigest()
        tally.check(digest == DEFAULT_SEED_DIGEST, f"output digest {digest} for seed {seed}")


@dataclass(frozen=True)
class Workload:
    """prepare(seed) makes the inputs untimed, run(inputs, marks) is timed, check(seed, inputs, outcome, tally) is not.

    run appends a timestamp to marks at the end of each segment it times on
    its own.  With engine_marks, an untraced execution also appends one at
    every call of a function in spans.MARKS (spans.install_marks).
    """

    prepare: Callable[[int], object]
    run: Callable[[object, list[float]], Outcome]
    check: Callable[[int, object, Outcome, Tally], None]
    engine_marks: bool


def _no_inputs(seed: int) -> None:
    return None


WORKLOADS = {
    "sweep": Workload(_no_inputs, _run_sweep, _check_sweep, engine_marks=True),
    "oracle": Workload(_no_inputs, _run_oracle, _check_oracle, engine_marks=True),
    "queries": Workload(query_inputs, _run_queries, _check_queries, engine_marks=False),
}
