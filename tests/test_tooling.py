"""Source-level guards on the library package."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import sp2forms
from sp2forms import hesselink, jordan

PACKAGE = Path(sp2forms.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # invariants must raise real exceptions, which python -O does not strip
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "jordan.py" in sources  # the scan sees the package, so it cannot pass vacuously
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name, monkeypatch):
    """perfbench/<name>.py, loaded from its file; nothing is installed, so no function is rebound.

    The module is in sys.modules for the test's duration only, as its dataclasses need.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_exist_in_the_package(monkeypatch):
    # install and install_marks only list the names they miss, so a moved function would drop its span silently
    spans = _load_perfbench("spans", monkeypatch)
    missing = []
    for name in dict.fromkeys(spans.SPANS + spans.MARKS):
        module, func = name.split(".", 1)
        if not callable(getattr(importlib.import_module(f"{PACKAGE.name}.{module}"), func, None)):
            missing.append(name)
    for name, (module, classes) in spans.PARSE_METHODS.items():
        found = [getattr(importlib.import_module(f"{PACKAGE.name}.{module}"), c, None) for c in classes]
        if None in found or not any(isinstance(vars(c).get("parse"), classmethod) for c in found):
            missing.append(name)
    for name in spans.COUNTED_METHODS:
        module, cls, meth = name.split(".")
        if not callable(vars(getattr(importlib.import_module(f"{PACKAGE.name}.{module}"), cls, object)).get(meth)):
            missing.append(name)
    assert len(spans.SPANS) > 20 and spans.COUNTED_METHODS  # the lists were read, so the check is not vacuous
    assert not missing, missing


def test_sweep_reports_satisfy_the_benchmark_checks(monkeypatch):
    # the sweep workload reads the --json reports; a change to SweepReport.to_json that breaks it fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load_perfbench("workloads", monkeypatch)
    outcome = workloads._run_sweep(None, [])
    tally = workloads.Tally()
    workloads._check_sweep(workloads.DEFAULT_SEED, None, outcome, tally)
    assert tally.attempted > outcome.items > 0  # every class checked and every whole-output check counted
    assert tally.failed == 0, tally.notes


def test_oracle_report_satisfies_the_benchmark_checks(monkeypatch):
    # the oracle workload reads the --json report; a change to CrosscheckReport.to_json or to the instance counts fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load_perfbench("workloads", monkeypatch)
    outcome = workloads._run_oracle(None, [])
    rc, report = outcome.output
    assert rc == 0 and report["ok"]
    assert (report["symplectic_checked"], report["linear_checked"]) == (117, 65)
    tally = workloads.Tally()
    workloads._check_oracle(workloads.DEFAULT_SEED, None, outcome, tally)
    assert tally.attempted == outcome.items + 4  # every instance, the exit status, ok and the two counts
    assert tally.failed == 0, tally.notes


def _count_marked_calls(monkeypatch):
    """Rebind every spans.MARKS function with a counter in each package module that binds it, as spans._replace
    does for the benchmark's marks; monkeypatch undoes it.  Returns the calls per name."""
    spans = _load_perfbench("spans", monkeypatch)
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"{PACKAGE.name}.{path.stem}")
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in spans.MARKS:
        orig = spans._find(name)
        assert callable(orig), name  # a missing name would rebind every None in the package
        wrapper = counted(name, orig)
        for module in spans._package_modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def _json_of(argv, capsys):
    from sp2forms import cli

    assert cli.main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_benchmark_marks_see_every_oracle_stage(monkeypatch, capsys):
    # the oracle segment floors cut each instance at its rules call and its five matrix stages; a stage or rule
    # function captured where the marks cannot rebind it would silently merge segments
    calls = _count_marked_calls(monkeypatch)
    report = _json_of(["oracle-check", "--max-dim", "6", "--max-n", "3"], capsys)
    sp, sl = report["symplectic_checked"], report["linear_checked"]
    assert (sp, sl) == (14, 5) and report["ok"]
    assert calls == {
        "reps.wedge_square_classes": sp, "oracle.space_from_type": sp, "oracle.wedge_space": sp,
        "reps.dual_tensor_classes": sl, "oracle.unipotent_from_jordan": sl, "oracle.dual_tensor_space": sl,
        "oracle.hesselink_of_space": 2 * (sp + sl), "oracle.subquotient": sp + sl,
    }
    assert sum(calls.values()) == 6 * (sp + sl) == 114


def test_benchmark_marks_see_every_sweep_evaluation(monkeypatch, capsys):
    # each class a sweep evaluates is one marked rules call; the two dual tensor reports share one pass
    calls = _count_marked_calls(monkeypatch)
    reports = _json_of(["distinguished", "--max-n", "6", "--max-dim", "16"], capsys)
    evaluated = [r["evaluated"] for r in reports]
    assert evaluated == [6, 6, 7, 12]
    assert sum(calls.values()) == sum(evaluated[1:]) == 25


def test_oracle_check_transposes_only_small_matrices(monkeypatch):
    # the wedge, dual tensor and subquotient builders write both views of their operators, so the only
    # transposes left are of matrices the size of an input (at most 8 x 8 here)
    from sp2forms import crosscheck, oracle

    heights = []
    transpose = oracle._bit_transpose

    def counted(rows, width):
        heights.append(len(rows))
        return transpose(rows, width)

    monkeypatch.setattr(oracle, "_bit_transpose", counted)
    assert crosscheck.run_crosscheck(8, 6, 1).ok
    assert heights  # the inverse transposes of the dual tensors go through the wrapper
    assert max(heights) <= 8, sorted(heights)


def test_oracle_check_validates_every_space_and_runs_every_chain(monkeypatch):
    # every BilinearSpace runs its checks in __init__, and every tagged type comes from its own power chain;
    # a speed-up that skipped a validation or a chain would move these counts, pinned at oracle-check 12/8
    from sp2forms import crosscheck, oracle

    counts = Counter()
    init, chain = oracle.BilinearSpace.__init__, oracle._power_chain

    def counted_init(self, u, gram):
        counts["spaces"] += 1
        init(self, u, gram)

    def counted_chain(u):
        counts["chains"] += 1
        return chain(u)

    monkeypatch.setattr(oracle.BilinearSpace, "__init__", counted_init)
    monkeypatch.setattr(oracle, "_power_chain", counted_chain)
    oracle.build_v.cache_clear()  # cached V(d) and W(d) would be validated once for the whole session
    oracle.build_w.cache_clear()
    assert crosscheck.run_crosscheck(12, 8, 1).ok
    assert (counts["spaces"], counts["chains"]) == (493, 364)


def test_query_outputs_match_the_benchmark_digest(monkeypatch):
    # the seed-0 query stream's outputs, hashed, and the golden tables A and C, byte for byte: first from empty
    # term caches, then with the caches that run left, so a stored term text cannot change an output
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = _load_perfbench("workloads", monkeypatch)
    stream = workloads.query_inputs(workloads.DEFAULT_SEED)
    for cache in (*jordan._READ_TERMS, jordan._BLOCK_TEXTS, hesselink._ENTRY_TEXTS):
        cache.clear()
    for warm in (False, True):
        outcome = workloads._run_queries(stream, [])
        tally = workloads.Tally()
        workloads._check_queries(workloads.DEFAULT_SEED, stream, outcome, tally)
        outputs, tables = outcome.output
        assert len(outputs) == workloads.N_QUERIES == 10000 and len(tables) == 2
        assert tally.attempted == 10000 + 3  # the queries, the two tables and the digest
        assert tally.failed == 0, (warm, tally.notes)
        assert jordan._READ_TERMS[0] and hesselink._ENTRY_TEXTS  # the run went through the caches


# Modules the command line does not need at start-up; dataclasses alone pulls in inspect, ast, dis and tokenize.
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_modules():
    # python -S: no site hooks, so only the package's own imports can bring these in
    code = (
        "import sys, argparse, json\n"
        "before = set(sys.modules)\n"
        "import sp2forms.cli\n"
        "print(json.dumps([sp2forms.cli.__file__, sorted(set(sys.modules) - before)]))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    path, loaded = json.loads(done.stdout)
    assert Path(path).resolve() == PACKAGE / "cli.py"
    assert "sp2forms.jordan" in loaded  # the snapshot was taken before the package came in
    assert not [name for name in HEAVY_MODULES if name in loaded], loaded


def test_named_command_loads_no_argparse():
    # main reads a command's arguments itself, so a run loads neither argparse nor gettext, nor the locale
    # module gettext's first lookup imports; an argv it declines (here a negative number) is parsed by argparse
    code = (
        "import json, sys\n"
        "import sp2forms.cli\n"
        "sp2forms.cli.main(sys.argv[1:])\n"
        "loaded = [name for name in ('argparse', 'gettext', 'locale') if name in sys.modules]\n"
        "print(json.dumps([sp2forms.cli.__file__, loaded]))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = {}
    for argv in (["thmA", "5"], ["consec-ones", "-3"]):
        done = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True)
        path, loaded[argv[0]] = json.loads(done.stdout.splitlines()[-1])
        assert Path(path).resolve() == PACKAGE / "cli.py"
    assert loaded == {"thmA": [], "consec-ones": ["argparse", "gettext", "locale"]}


def test_suite_and_its_children_write_no_bytecode():
    # tests/conftest.py sets both, so that no test leaves a __pycache__ in the package
    code = "import sys; print(sys.dont_write_bytecode)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert sys.dont_write_bytecode and done.stdout.strip() == "True"


def test_library_import_compiles_no_regex():
    # a regular expression compiled at import would be paid by every run's start-up; the parsers use str methods
    # (json imports re, so the result is printed without it)
    code = (
        "import sys\n"
        "import sp2forms, sp2forms.crosscheck, sp2forms.distinguished, sp2forms.enumeration, sp2forms.oracle\n"
        "print(sp2forms.__file__)\n"
        "print('re' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    path, loaded = done.stdout.splitlines()
    assert Path(path).resolve() == PACKAGE / "__init__.py"
    assert loaded == "False"
