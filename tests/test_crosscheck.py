"""Tests for the full-pipeline equivalence sweep machinery."""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2forms import crosscheck
from sp2forms.crosscheck import (
    check_linear_instance,
    check_symplectic_instance,
    run_crosscheck,
    sweep_tasks,
)
from sp2forms.hesselink import SymplecticType, orthogonal_sum, vtype, wtype
from sp2forms.jordan import JordanType
from sp2forms.reps import dual_tensor_classes, wedge_square_classes


@st.composite
def large_symplectic_classes(draw):
    """Symplectic classes of dimension 20 to 40, as sums of V(2d) and W(d) summands of dimension 2d."""
    remaining = draw(st.integers(min_value=10, max_value=20))
    pieces = []
    while remaining:
        d = draw(st.integers(min_value=1, max_value=remaining))
        pieces.append(vtype(2 * d) if draw(st.booleans()) else wtype(d))
        remaining -= d
    return orthogonal_sum(*pieces)


def test_single_instances_clean():
    for text in ("4_1", "2_0^2", "1_0^2,2_1", "2_0^2,8_1"):
        _, mismatches, parity = check_symplectic_instance(text)
        assert mismatches == [] and parity == []
    for text in ("2", "3", "1,2", "2^2"):
        _, mismatches, parity = check_linear_instance(text)
        assert mismatches == [] and parity == []


def test_small_sweep_passes():
    report = run_crosscheck(max_dim=8, max_n=5, jobs=1)
    assert report.ok, report.mismatches + report.parity_violations
    assert report.symplectic_checked == sum(1 for k, _ in sweep_tasks(8, 5) if k == "sp")
    assert report.linear_checked == sum(1 for k, _ in sweep_tasks(8, 5) if k == "sl")


def test_sweep_to_dim_20_passes():
    report = run_crosscheck(max_dim=20, max_n=10, jobs=1)
    assert report.ok, report.mismatches + report.parity_violations
    assert (report.symplectic_checked, report.linear_checked) == (925, 137)


@given(large_symplectic_classes())
@settings(max_examples=15, deadline=None)
def test_large_symplectic_classes_match_oracle(s):
    assert 20 <= s.dimension() <= 40
    _, mismatches, parity = check_symplectic_instance(str(s))
    assert mismatches == [] and parity == []


def test_parallel_sweep_matches_serial():
    serial = run_crosscheck(max_dim=6, max_n=4, jobs=1)
    parallel = run_crosscheck(max_dim=6, max_n=4, jobs=2)
    assert serial.ok and parallel.ok
    assert (serial.symplectic_checked, serial.linear_checked) == (
        parallel.symplectic_checked,
        parallel.linear_checked,
    )


def test_jobs_clamped_to_cpu_count(monkeypatch):
    # a stand-in pool records the worker count and maps serially, so no
    # process is started whatever count reaches it
    requested = []

    class FakePool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    assert run_crosscheck(max_dim=4, max_n=2, jobs=100000).ok
    assert run_crosscheck(max_dim=4, max_n=2, jobs=0).ok
    assert run_crosscheck(max_dim=4, max_n=2, jobs=-5).ok
    # the default is one worker, which runs serially
    assert run_crosscheck(max_dim=4, max_n=2).ok
    assert requested == [2]


def test_report_json_shape():
    report = run_crosscheck(max_dim=4, max_n=2, jobs=1)
    data = report.to_json()
    assert data["ok"] is True
    assert data["mismatches"] == []
    assert data["symplectic_checked"] >= 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_times_every_stage(jobs):
    report = run_crosscheck(max_dim=8, max_n=4, jobs=jobs)
    assert report.ok
    times = report.to_json()["stage_seconds"]
    assert list(times) == list(crosscheck.STAGES)
    assert all(t > 0 for t in times.values()), times
    if jobs == 1:
        assert sum(times.values()) <= report.elapsed
    assert "; stages build " in report.summary() and "\n" not in report.summary()


def test_single_instance_adds_to_given_stage_times():
    times = {}
    first = check_symplectic_instance("2_0^2,8_1", times)
    assert first == check_symplectic_instance("2_0^2,8_1")
    assert set(times) == set(crosscheck.STAGES)
    before = dict(times)
    check_linear_instance("1,2", times)
    assert all(times[stage] > before[stage] for stage in crosscheck.STAGES)


def test_mismatch_and_parity_lines_end_with_a_reproduction_command(monkeypatch):
    # rules that answer for classes of another dimension mismatch on every instance
    wrong_c = wedge_square_classes(SymplecticType.parse("8_1"))
    wrong_a = dual_tensor_classes(JordanType.parse("7"))
    monkeypatch.setattr(crosscheck, "wedge_square_classes", lambda s: wrong_c)
    monkeypatch.setattr(crosscheck, "dual_tensor_classes", lambda j: wrong_a)
    monkeypatch.setattr(crosscheck, "_parity_problems", lambda tagged, nondegenerate, context: [f"{context}: forced"])
    report = run_crosscheck(max_dim=4, max_n=3, jobs=1)
    instances = report.symplectic_checked + report.linear_checked
    assert len(report.mismatches) == len(report.parity_violations) == 2 * instances
    for line in report.mismatches + report.parity_violations:
        label, _, rest = line.partition("(")
        command = "thmC" if label.startswith("wedge") else "thmA"
        assert line.endswith(f"; run: sp2forms {command} {rest.partition(')')[0]}"), line
    assert f"wedge(4_1): matrices give 2_1,4_1, rules give {wrong_c.wedge_space}; run: sp2forms thmC 4_1" in (
        report.mismatches
    )
    assert f"dual-sub(3): matrices give 4_1^2, rules give {wrong_a.irreducible}; run: sp2forms thmA 3" in (
        report.mismatches
    )
    assert "wedge-sub(2_0^2): forced; run: sp2forms thmC 2_0^2" in report.parity_violations


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="only forked workers see the patched rules"))])
def test_an_instance_that_raises_is_a_mismatch(monkeypatch, jobs):
    # an exception names its instance in one mismatch line; the sweep goes on and counts it
    def wedge(s):
        if str(s) == "4_1":
            raise RuntimeError("forced")
        return wedge_square_classes(s)

    monkeypatch.setattr(crosscheck, "wedge_square_classes", wedge)
    monkeypatch.setattr(crosscheck, "dual_tensor_classes", lambda j: 1 / 0 if str(j) == "3" else dual_tensor_classes(j))
    report = run_crosscheck(max_dim=6, max_n=4, jobs=jobs)
    assert report.symplectic_checked + report.linear_checked == len(sweep_tasks(6, 4))
    assert report.mismatches == [
        "wedge(4_1): raised RuntimeError: forced; run: sp2forms thmC 4_1",
        "dual-tensor(3): raised ZeroDivisionError: division by zero; run: sp2forms thmA 3",
    ]
    assert not report.ok and report.parity_violations == []
