"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import child
import run
import spans
import summary
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


# --- percentile rule ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(x) for x in range(1, 101)]
    assert summary.percentile(samples, 50) == 50.0
    assert summary.percentile(samples, 99) == 99.0
    assert summary.percentile(samples, 100) == 100.0
    assert summary.percentile([7.0], 99) == 7.0
    assert summary.percentile(list(reversed(samples)), 1) == 1.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        summary.percentile([], 50)
    with pytest.raises(ValueError):
        summary.percentile([1.0], 0)
    with pytest.raises(ValueError):
        summary.percentile([1.0], 101)


def test_p99_needs_ten_samples_beyond_it():
    assert summary.quantile([float(x) for x in range(1000)], 99).beyond == 10
    assert summary.quantile([float(x) for x in range(1000)], 99).resolved
    short = summary.quantile([float(x) for x in range(999)], 99)
    assert short.samples == 999
    assert short.beyond == 9
    assert not short.resolved


def test_ties_do_not_count_as_beyond():
    q = summary.quantile([1.0] * 500 + [2.0] * 20, 50)
    assert q.value == 1.0
    assert q.beyond == 20
    assert summary.quantile([1.0] * 2000, 99).beyond == 0


# --- self time ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def at(t, action, *args):
        clock.now = t
        action(*args)

    # a [0, 10] holds b [1, 3] and c [4, 9]; c holds d [5, 7] and b [7.5, 8]
    at(0, tracer.enter, "a")
    at(1, tracer.enter, "b")
    at(3, tracer.exit)
    at(4, tracer.enter, "c")
    at(5, tracer.enter, "d")
    at(7, tracer.exit)
    at(7.5, tracer.enter, "b")
    at(8, tracer.exit)
    at(9, tracer.exit)
    at(10, tracer.exit)

    table = {(k[0], k[1]): (row[0], row[1], row[2]) for k, row in tracer.table.items()}
    assert table[("a", None)] == (1, 10, 10 - 2 - 5)
    assert table[("b", "a")] == (1, 2, 2)
    assert table[("c", "a")] == (1, 5, 5 - 2 - 0.5)
    assert table[("d", "c")] == (1, 2, 2)
    assert table[("b", "c")] == (1, 0.5, 0.5)
    by_name = tracer.by_name()
    assert by_name["b"][:3] == [2, 2.5, 2.5]
    assert sum(row[2] for row in tracer.table.values()) == 10  # self times partition the root span


def test_generator_spans_time_each_next_and_count_items():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def numbers():
        for i in range(3):
            clock.now += 1
            yield i

    wrapped = spans._generator_span(tracer, "enumeration.numbers", numbers)
    tracer.enter("consumer")
    assert list(wrapped()) == [0, 1, 2]
    tracer.exit()
    count, total, own, items = tracer.table[("enumeration.numbers", "consumer")]
    assert (count, total, own, items) == (4, 3, 3, 3)  # three items and the final StopIteration


# --- segment floors -------------------------------------------------------------


def test_segments_are_differences_of_marks():
    assert summary.segments([1.0, 1.5, 4.0, 4.0]) == [0.5, 2.5, 0.0]
    assert summary.segments([2.0]) == []


def test_segment_floors_take_each_segments_best():
    # The best whole execution is 6; the best of each segment adds up to 4.
    executions = [[1.0, 5.0], [3.0, 3.0], [4.0, 2.0]]
    assert summary.segment_floors(executions) == [1.0, 2.0]
    assert min(sum(e) for e in executions) == 6.0


def test_segment_floors_need_segments_that_line_up():
    assert summary.segment_floors([[1.0, 2.0], [1.0]]) is None
    assert summary.segment_floors([]) is None
    assert run.floor_sum([[1.0, 5.0], [3.0, 3.0]], [6.0, 6.0]) == (4.0, [1.0, 3.0])
    assert run.floor_sum([[1.0, 2.0], [1.0]], [3.5, 3.0]) == (3.0, None)  # the best whole time


def test_end_to_end_scales_floors_to_the_reference_speed():
    # A host at half the reference speed: the calibration floor is twice the reference.
    calibration = [2 * run.REFERENCE_CALIBRATION_S / 4] * 4

    def execution(query_a, query_b, table, setup):
        return {"segments": [query_a, query_b, table], "setup_segments": setup, "calibration_segments": calibration,
                "metrics": {"wall_s": query_a + query_b + table, "setup_s": sum(setup), "peak_rss_mb": 20.0},
                "items": 2, "ops": 2, "missing": []}

    runs = [execution(2e-3, 6e-3, 1e-2, [0.02, 0.03]), execution(4e-3, 4e-3, 2e-2, [0.04, 0.01])]
    metrics, _ = run.end_to_end(runs)
    assert metrics["wall_s"] == pytest.approx((2e-3 + 4e-3 + 1e-2) / 2)
    assert metrics["setup_s"] == pytest.approx((0.02 + 0.01) / 2)
    assert metrics["items_per_s"] == pytest.approx(2 / ((2e-3 + 4e-3) / 2))
    assert (metrics["lat_p50_us"], metrics["lat_p99_us"]) == pytest.approx((1e3, 2e3))
    assert metrics["peak_rss_mb"] == 20.0


def test_import_marks_time_each_new_module_and_let_it_load():
    marks: list[float] = []
    finder = child._ImportMarks(marks)
    sys.modules.pop("colorsys", None)
    sys.meta_path.insert(0, finder)
    try:
        import colorsys
    finally:
        sys.meta_path.remove(finder)
    assert len(marks) == 1
    assert colorsys.rgb_to_hsv(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_marks_time_each_call_and_keep_results():
    clock = FakeClock()
    marks: list[float] = []

    def engine(x, scale=1):
        clock.now += x
        return x * scale

    wrapped = spans._marked(marks, clock, engine)
    assert [wrapped(2), wrapped(3, scale=10)] == [2, 30]
    assert marks == [0.0, 2.0]  # one timestamp as each call begins


# --- fail_frac base ---------------------------------------------------------


def test_fail_frac_counts_every_checked_operation():
    tally = summary.Tally()
    tally.add(1000, 0, "classes")
    tally.check(True, "hit list")
    tally.check(False, "digest")
    assert (tally.attempted, tally.failed) == (1002, 1)
    assert tally.fail_frac == 1 / 1002
    assert tally.notes == ["digest: 1 of 1 failed"]


def test_fail_frac_needs_an_attempt_and_a_sane_count():
    with pytest.raises(ValueError):
        summary.Tally().fail_frac
    with pytest.raises(ValueError):
        summary.Tally().add(1, 2, "more failures than attempts")


# --- independent expectations -------------------------------------------------


def test_oracle_expected_counts_match_known_sweep_size():
    # 205 symplectic classes of dimension 4..14 and 95 Jordan types of dimension 2..9
    assert workloads.oracle_expected_counts(14, 9) == (205, 95)
    assert workloads.symplectic_class_count(4) == 5  # 4_1, 2_1^2, 2_0^2, 1_0^2,2_1, 1_0^4


def test_odd_sums_and_hit_lists():
    assert workloads._odd_sums(10) == [[2], [2, 6], [6], [10]]
    hits = workloads.sweep_expected_hits(4, 12)
    assert hits["dual-irreducible-distinguished"] == {"2", "3"}
    assert hits["bilinear-tensor-distinguished"] == {"2_1 x 2_1", "2_1 x 6_1"}
    assert hits["wedge-distinguished"] == {"wedge 4_1", "irr 4_1", "irr 2_1^2", "irr 6_1"}


def test_text_dimension_and_query_identities():
    assert workloads.text_dimension("0") == 0
    assert workloads.text_dimension("3^2,5") == 11
    assert workloads.text_dimension("1_0^2,2_1^2,4_1,8_1^7") == 66
    assert workloads.query_output_ok("wedge_square_classes", ("2_0^2,8_1",),
                                     "1_0^2,2_1^2,4_1,8_1^7 | 1_0^2,2_1,4_1,8_1^7")
    assert not workloads.query_output_ok("tensor", ("3", "5"), "4^2,6")


def test_query_inputs_are_seeded_and_valid():
    first = workloads.query_inputs(7, 200)
    assert first == workloads.query_inputs(7, 200)
    assert first != workloads.query_inputs(8, 200)
    sys.path.insert(0, str(SRC))
    try:
        from sp2forms import JordanType, SymplecticType
    finally:
        sys.path.remove(str(SRC))
    for kind, args in first:
        parse = SymplecticType.parse if kind in ("wedge_square_classes", "tensor_bilinear") else JordanType.parse
        for text in args:
            assert 1 <= parse(text).dimension() <= workloads.QUERY_MAX_DIM
