"""Arithmetic the benchmark reports with: percentiles, medians and failure tallies."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

MIN_BEYOND = 10  # a percentile is only resolved with at least this many samples above it


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile: the smallest sample with at least q% of samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def beyond(samples: list[float], value: float) -> int:
    """Number of samples strictly above value."""
    return sum(1 for x in samples if x > value)


@dataclass(frozen=True)
class Quantile:
    """A percentile together with the sample count it rests on."""

    q: float
    value: float
    samples: int
    beyond: int

    @property
    def resolved(self) -> bool:
        return self.beyond >= MIN_BEYOND


def quantile(samples: list[float], q: float) -> Quantile:
    value = percentile(samples, q)
    return Quantile(q, value, len(samples), beyond(samples, value))


def median(values: list[float]) -> float:
    return statistics.median(values)


def segments(marks: list[float]) -> list[float]:
    """Durations between consecutive timestamps."""
    return [b - a for a, b in zip(marks, marks[1:])]


def segment_floors(executions: list[list[float]]) -> list[float] | None:
    """Each segment's best (lowest) duration over the executions, or None if their segments do not line up.

    Every execution of a run cuts its time into the same sequence of
    segments, so segment k is the same piece of work in each.  Contention
    from other tenants only adds time and comes in bursts shorter than an
    execution, so the best of each short segment is steadier than the best
    whole execution.
    """
    if not executions or len({len(e) for e in executions}) != 1:
        return None
    return [min(column) for column in zip(*executions)]


@dataclass
class Tally:
    """Checked operations of a run: every class, instance, query or whole-output check counts once."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)

    def add(self, attempted: int, failed: int, what: str) -> None:
        if attempted < 0 or not 0 <= failed <= attempted:
            raise ValueError(f"bad tally for {what}: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")

    @property
    def fail_frac(self) -> float:
        if self.attempted < 1:
            raise ValueError("fail_frac needs at least one attempted operation")
        return self.failed / self.attempted
