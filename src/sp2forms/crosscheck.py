"""Full-pipeline equivalence sweeps between the combinatorics and the matrices.

For every symplectic class up to a dimension bound, build explicit matrices,
take the wedge square with its canonical form, and compare the matrix-level
tagged type and fixed-vector subquotient against the combinatorial rules.
Likewise on the special linear side with the dual tensor square.  The sweep
also records violations of the two tag parity laws (a tagged size must be
even; odd multiplicity on a non-degenerate space forces the tag), which must
never occur.  Every mismatch and violation line ends with the command that
reproduces the rules' side of it.  The report also totals the time of each
matrix stage over all instances (``STAGES``).
"""

from __future__ import annotations

import os
import time

from . import oracle
from .distinguished import repro
from .enumeration import jordan_types, symplectic_types
from .hesselink import EpsilonTaggedType, SymplecticType
from .jordan import JordanType, Record
from .reps import dual_tensor_classes, wedge_square_classes

# Matrix stages timed per instance: the input space or operator, the wedge or
# dual tensor square, the power chains with their eps tags, the subquotient,
# and the non-degeneracy ranks.  The rules' side is not timed.
STAGES = ("build", "construction", "chain", "subquotient", "rank")


class _Stopwatch:
    """Adds the time since the previous lap to the lap's stage in totals."""

    def __init__(self, totals: dict[str, float]):
        self.totals = totals
        self.last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.totals[stage] = self.totals.get(stage, 0.0) + now - self.last
        self.last = now


class CrosscheckReport(Record):
    """Outcome of an equivalence sweep.

    stage_seconds totals each of ``STAGES`` over all instances; with worker
    processes it sums their times, so it can exceed the elapsed wall time.
    """

    def __init__(self, symplectic_checked: int = 0, linear_checked: int = 0, mismatches: list[str] | None = None,
                 parity_violations: list[str] | None = None, elapsed: float = 0.0,
                 stage_seconds: dict[str, float] | None = None):
        self.symplectic_checked = symplectic_checked
        self.linear_checked = linear_checked
        self.mismatches = [] if mismatches is None else mismatches
        self.parity_violations = [] if parity_violations is None else parity_violations
        self.elapsed = elapsed
        self.stage_seconds = dict.fromkeys(STAGES, 0.0) if stage_seconds is None else stage_seconds

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.parity_violations

    def to_json(self) -> dict:
        return {
            "symplectic_checked": self.symplectic_checked,
            "linear_checked": self.linear_checked,
            "mismatches": self.mismatches,
            "parity_violations": self.parity_violations,
            "elapsed_seconds": self.elapsed,
            "stage_seconds": self.stage_seconds,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.symplectic_checked} symplectic + {self.linear_checked} linear instances, "
            f"{len(self.mismatches)} mismatches, {len(self.parity_violations)} parity violations, "
            f"{self.elapsed:.2f}s; stages " + ", ".join(f"{stage} {t:.2f}s" for stage, t in self.stage_seconds.items())
        )


def _parity_problems(tagged: EpsilonTaggedType, nondegenerate: bool, context: str) -> list[str]:
    out = []
    for d, m, e in tagged.entries:
        if e == 1 and d % 2:
            out.append(f"{context}: size {d} tagged but odd")
        if nondegenerate and m % 2 and e == 0:
            out.append(f"{context}: size {d} has odd multiplicity {m} but no tag on a non-degenerate space")
    return out


def _compare(
    text: str,
    command: str,
    labels: tuple[str, str],
    built: oracle.PointedSpace,
    full_rule: EpsilonTaggedType,
    irr_rule: SymplecticType,
    clock: _Stopwatch,
) -> tuple[str, list[str], list[str]]:
    """Check a built space and its fixed-vector subquotient against the rules' classes.

    Returns (text, mismatches, parity violations); labels name the full space
    and the subquotient in the messages, and each line ends with
    ``sp2forms <command> <text>``.  clock takes a lap after each stage.
    """
    full_label, sub_label = (f"{label}({text})" for label in labels)
    space, vector = built
    mismatches = []

    full = oracle.hesselink_of_space(space)
    clock.lap("chain")
    if full != full_rule:
        mismatches.append(f"{full_label}: matrices give {full}, rules give {full_rule}")
    nondegenerate = space.is_nondegenerate()
    clock.lap("rank")
    parity = _parity_problems(full, nondegenerate, full_label)

    sub = oracle.subquotient(space, vector)
    clock.lap("subquotient")
    irr = oracle.hesselink_of_space(sub)
    clock.lap("chain")
    if irr != irr_rule:
        mismatches.append(f"{sub_label}: matrices give {irr}, rules give {irr_rule}")
    nondegenerate = sub.is_nondegenerate()
    clock.lap("rank")
    if not nondegenerate:
        mismatches.append(f"{sub_label}: subquotient form is degenerate")
    parity += _parity_problems(irr, True, sub_label)
    suffix = repro(command, text)
    return (text, [line + suffix for line in mismatches], [line + suffix for line in parity])


def check_symplectic_instance(
    type_string: str, stage_seconds: dict[str, float] | None = None
) -> tuple[str, list[str], list[str]]:
    """Compare the wedge pipeline for one symplectic class; returns (desc, mismatches, parity).

    The time of each matrix stage is added to stage_seconds when it is given.
    """
    s = SymplecticType.parse(type_string)
    predicted = wedge_square_classes(s)
    clock = _Stopwatch({} if stage_seconds is None else stage_seconds)
    space = oracle.space_from_type(s)
    clock.lap("build")
    built = oracle.wedge_space(space)
    clock.lap("construction")
    return _compare(
        type_string, "thmC", ("wedge", "wedge-sub"), built, predicted.wedge_space, predicted.irreducible, clock
    )


def check_linear_instance(
    jordan_string: str, stage_seconds: dict[str, float] | None = None
) -> tuple[str, list[str], list[str]]:
    """Compare the dual tensor pipeline for one Jordan type; stage times as for the wedge pipeline."""
    j = JordanType.parse(jordan_string)
    predicted = dual_tensor_classes(j)
    clock = _Stopwatch({} if stage_seconds is None else stage_seconds)
    u = oracle.unipotent_from_jordan(j)
    clock.lap("build")
    built = oracle.dual_tensor_space(u)
    clock.lap("construction")
    return _compare(
        jordan_string, "thmA", ("dual-tensor", "dual-sub"), built, predicted.tensor_space, predicted.irreducible, clock
    )


def _run_one(task: tuple[str, str]) -> tuple[tuple[str, list[str], list[str]], dict[str, float]]:
    """One instance's result and its stage times, which a worker process sends back with it.

    An exception from the rules or the matrices becomes the one mismatch of
    the instance, with its reproduction command, and the sweep goes on.
    """
    kind, arg = task
    stage_seconds: dict[str, float] = {}
    check = check_symplectic_instance if kind == "sp" else check_linear_instance
    try:
        return check(arg, stage_seconds), stage_seconds
    except Exception as exc:
        label, command = ("wedge", "thmC") if kind == "sp" else ("dual-tensor", "thmA")
        return (arg, [f"{label}({arg}): raised {type(exc).__name__}: {exc}{repro(command, arg)}"], []), stage_seconds


def sweep_tasks(max_dim: int, max_n: int) -> list[tuple[str, str]]:
    """Instance list: symplectic classes of dimension 4..max_dim, Jordan types of 2..max_n."""
    tasks: list[tuple[str, str]] = []
    for dim in range(4, max_dim + 1, 2):
        for s in symplectic_types(dim):
            tasks.append(("sp", str(s)))
    for n in range(2, max_n + 1):
        for j in jordan_types(n):
            tasks.append(("sl", str(j)))
    return tasks


def _clamp_jobs(jobs: int) -> int:
    """Bound a requested worker count to 1..os.cpu_count()."""
    return max(1, min(jobs, os.cpu_count() or 1))


def run_crosscheck(max_dim: int = 12, max_n: int = 8, jobs: int = 1) -> CrosscheckReport:
    """Run both sweeps, optionally over a process pool; order-independent report.

    The worker count is clamped to 1..os.cpu_count().
    """
    jobs = _clamp_jobs(jobs)
    tasks = sweep_tasks(max_dim, max_n)
    report = CrosscheckReport()
    start = time.perf_counter()
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_run_one, tasks, chunksize=4)
    else:
        results = [_run_one(t) for t in tasks]
    for (kind, _), ((_, mismatches, parity), stage_seconds) in zip(tasks, results):
        for stage, t in stage_seconds.items():
            report.stage_seconds[stage] += t
        if kind == "sp":
            report.symplectic_checked += 1
        else:
            report.linear_checked += 1
        report.mismatches.extend(mismatches)
        report.parity_violations.extend(parity)
    report.elapsed = time.perf_counter() - start
    return report
