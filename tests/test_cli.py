"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from sp2forms import __version__, cli
from sp2forms.cli import main
from sp2forms.hesselink import EpsilonTaggedType, SymplecticType
from sp2forms.jordan import JordanType

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValueCommands:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (("tensor", "3", "5"), "4^2,7"),
            (("tensor", "1", "9"), "9"),
            (("tensor", "2", "2,5"), "2^2,4,6"),
            (("wedge", "2^2,8"), "1^2,2^2,4,8^7"),
            (("tensor-bilinear", "2_1", "4_1"), "4_0^2"),
            (("consec-ones", "6"), "2^3 - 2^1"),
            (("thmA", "5"), "1_0,4_1^2,8_1^2 | 4_1^2,8_1^2"),
            (("thmC", "4_1"), "2_1,4_1 | 4_1"),
            (("thmC", "2_0^2"), "1_0^2,2_1^2 | 1_0^2,2_1"),
        ],
    )
    def test_outputs(self, capsys, argv, want):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == want

    def test_parse_error_exits_2_with_caret(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "3^^2", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "^" in err and "position" in err

    def test_thm_a_dimension_error(self, capsys):
        code, _, err = run(capsys, "thmA", "1")
        assert code == 2
        assert "dimension" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "thmA", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert JordanType.from_json(data["input"]) == JordanType.parse("5")
        assert EpsilonTaggedType.from_json(data["tensor_space"]) == EpsilonTaggedType.parse("1_0,4_1^2,8_1^2")
        assert EpsilonTaggedType.from_json(data["irreducible"]) == EpsilonTaggedType.parse("4_1^2,8_1^2")
        assert data["alpha"] == 0

    def test_json_tensor_roundtrip(self, capsys):
        code, out, _ = run(capsys, "tensor", "3", "5", "--json")
        data = json.loads(out)
        assert JordanType.from_json(data["tensor"]) == JordanType.parse("4^2,7")


class TestTable:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "A", "2..2")
        assert code == 0
        assert out.strip() == "(2) | (2_1^2) | (2_1)"

    # integers are ASCII digits only, as in the type scanner
    @pytest.mark.parametrize("text", ["x..y", "3..2", "٣", "+3", "2..٣", "2.. 3", " 2..3", "2..+3"])
    def test_bad_range(self, capsys, text):
        code, _, err = run(capsys, "table", "A", text)
        assert code == 2
        assert "range" in err

    def test_golden_pass(self, capsys):
        code, _, err = run(capsys, "table", "A", "2..7", "--golden", str(GOLDEN / "table_A.txt"))
        assert code == 0
        assert "golden check passed" in err

    def test_golden_mismatch(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("(2) | (2_1^2) | (9_1)\n", encoding="utf-8")
        code, _, err = run(capsys, "table", "A", "2..2", "--golden", str(bad))
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize("which", ["A", "C"])
    def test_unreadable_golden_is_a_usage_error(self, capsys, tmp_path, monkeypatch, which):
        # exit 1 means a mismatch; a golden file that cannot be read fails before any row is built
        def no_rows(*args, **kwargs):
            raise AssertionError("rows were built")

        monkeypatch.setattr(cli, "table_a_rows", no_rows)
        monkeypatch.setattr(cli, "table_c_rows", no_rows)
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\xd0")
        missing = tmp_path / "missing.txt"
        for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory"), (binary, "codec")):
            code, out, err = run(capsys, "table", which, "2..3", "--golden", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot read golden file {str(path)!r}: ") and reason in err

    def test_table_c_all_is_superset(self, capsys):
        _, restricted, _ = run(capsys, "table", "C", "4..4")
        _, everything, _ = run(capsys, "table", "C", "4..4", "--all")
        restricted_rows = set(restricted.splitlines())
        all_rows = set(everything.splitlines())
        assert restricted_rows < all_rows
        # the restricted table is exactly the positive-content slice
        assert all(row.rsplit("| ", 1)[1] != "0" for row in restricted_rows)

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, "table", "A", "2..3", "--json")
        data = json.loads(out)
        assert data["table"] == "A"
        assert len(data["rows"]) == 3


class TestSweepCommands:
    def test_oracle_check(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-dim", "6", "--max-n", "4")
        assert code == 0
        assert "PASS" in out

    def test_oracle_check_json(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-dim", "4", "--max-n", "2", "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_oracle_check_dump(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-dim", "4", "--max-n", "2", "--dump-matrices")
        assert code == 0
        assert "u =" in out and "gram =" in out
        # dimension 0 has only the empty class, which has no matrices to print
        code, out, _ = run(capsys, "oracle-check", "--max-dim", "0", "--max-n", "2", "--dump-matrices")
        assert code == 0
        assert "PASS" in out and "class" not in out

    @pytest.mark.parametrize("max_dim,dumped", [("5", 4), ("8", 6), ("3", 2)])
    def test_oracle_check_dumps_the_largest_even_dimension(self, capsys, max_dim, dumped):
        code, out, _ = run(capsys, "oracle-check", "--max-dim", max_dim, "--max-n", "0", "--dump-matrices")
        assert code == 0
        classes = [line[len("class "):-1] for line in out.splitlines() if line.startswith("class ")]
        assert classes and {SymplecticType.parse(c).dimension() for c in classes} == {dumped}

    def test_oracle_check_dump_rejects_json(self, capsys, monkeypatch):
        # the grids would precede the JSON document, so the pair is a usage error before any sweep
        monkeypatch.setattr(cli, "run_crosscheck", lambda **kwargs: pytest.fail("the sweep started"))
        code, out, err = run(capsys, "oracle-check", "--max-dim", "4", "--max-n", "2", "--json", "--dump-matrices")
        assert (code, out) == (2, "")
        assert "--dump-matrices" in err and "--json" in err

    @pytest.mark.parametrize(
        "argv", [("--max-dim", "25"), ("--max-n", "17"), ("--max-dim", "-1"), ("--max-n", "-1")]
    )
    def test_oracle_check_bounds_are_capped(self, capsys, monkeypatch, argv):
        # argparse rejects a bound past its cap before the sweep starts
        monkeypatch.setattr(cli, "run_crosscheck", lambda **kwargs: pytest.fail("the sweep started"))
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", *argv])
        assert exc.value.code == 2
        cap = "0..24" if argv[0] == "--max-dim" else "0..16"
        assert f"argument {argv[0]}: {argv[1]} is outside {cap}" in capsys.readouterr().err

    def test_oracle_check_help_states_the_caps(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle-check", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "symplectic dimension to sweep, 0..24" in out and "linear dimension to sweep, 0..16" in out
        # the caps and the benchmark's bounds are in range (parsed only; no sweep runs)
        for max_dim, max_n in ((24, 16), (12, 8)):
            args = cli.build_parser().parse_args(["oracle-check", "--max-dim", str(max_dim), "--max-n", str(max_n)])
            assert (args.max_dim, args.max_n) == (max_dim, max_n)

    def test_distinguished(self, capsys):
        code, out, _ = run(capsys, "distinguished", "--max-n", "6", "--max-dim", "16")
        assert code == 0
        assert out.count("PASS") == 4

    def test_distinguished_prints_closed_count(self, capsys):
        # checked counts every class in range, evaluated what the rules engine computed; nothing is skipped
        code, out, _ = run(capsys, "distinguished", "--max-n", "22", "--max-dim", "44")
        assert code == 0
        wedge = [line for line in out.splitlines() if "wedge-distinguished" in line]
        assert len(wedge) == 1 and "91758 checked, 13 evaluated, " in wedge[0]
        assert "skipped" not in out

    @pytest.mark.parametrize(
        "argv", [("--max-n", "1001"), ("--max-dim", "401"), ("--max-n", "-1"), ("--max-dim", "-1")]
    )
    def test_distinguished_bounds_are_capped(self, capsys, monkeypatch, argv):
        # argparse rejects a bound past its cap before any sweep starts
        for name in ("verify_prop_A_tensor", "verify_prop_A_irr", "verify_prop_tensor", "verify_prop_C"):
            monkeypatch.setattr(cli, name, lambda bound: pytest.fail("a sweep started"))
        with pytest.raises(SystemExit) as exc:
            main(["distinguished", *argv])
        assert exc.value.code == 2
        cap = "0..1000" if argv[0] == "--max-n" else "0..400"
        assert f"argument {argv[0]}: {argv[1]} is outside {cap}" in capsys.readouterr().err

    def test_distinguished_help_states_the_caps(self, capsys):
        with pytest.raises(SystemExit):
            main(["distinguished", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "single-space sweeps, 0..1000" in out and "pair sweep, 0..400" in out
        # the caps themselves are in range (parsed only; no sweep runs)
        args = cli.build_parser().parse_args(["distinguished", "--max-n", "1000", "--max-dim", "400"])
        assert (args.max_n, args.max_dim) == (1000, 400)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["table"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def _tree_subparser(name):
    tree = cli.build_parser()
    subparsers = next(a for a in tree._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[name]


def _outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which is expected to exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParserSplit:
    """main builds only the invoked command's parser; it must act as the tree's subparser."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_help_matches_tree(self, name):
        assert cli.command_parser(name).format_help() == _tree_subparser(name).format_help()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "3", "5"],
            ["tensor", "--json", "3", "5"],
            ["wedge", "2^2,8", "--json"],
            ["tensor-bilinear", "2_1", "4_1"],
            ["consec-ones", "-3"],
            ["thmA", "5"],
            ["thmC", "2_0^2,8_1", "--json"],
            ["table", "C", "2..8", "--all", "--golden", "x.txt"],
            ["oracle-check"],
            ["oracle-check", "--max-dim", "24", "--max-n", "0", "--jobs", "2", "--dump-matrices"],
            ["distinguished", "--max-n", "1000", "--max-dim", "400", "--json"],
            ["distinguished", "--max-n", "3", "--max-n", "4"],
        ],
    )
    def test_same_namespace(self, argv):
        tree = vars(cli.build_parser().parse_args(argv))
        assert tree.pop("command") == argv[0]
        assert vars(cli.command_parser(argv[0]).parse_args(argv[1:])) == tree

    @pytest.mark.parametrize(
        "argv",
        [
            ["distinguished", "--max-n", "1001"],
            ["oracle-check", "--max-dim", "25"],
            ["consec-ones", "x"],
            ["table", "B", "2"],
            ["table"],
            ["tensor", "3", "5", "6"],  # left over: the tree reports it with its own usage line
            ["thmA", "-h"],
        ],
    )
    def test_same_error_or_help_on_both_paths(self, capsys, argv):
        single = _outcome(capsys, main, argv)
        tree = _outcome(capsys, cli.build_parser().parse_args, argv)
        assert single == tree
        assert single[0] == (0 if "-h" in argv else 2)

    def test_named_commands_do_not_build_the_tree(self, capsys, monkeypatch):
        def tree():
            raise AssertionError("the full parser tree was built")

        monkeypatch.setattr(cli, "build_parser", tree)
        runs = (
            ["tensor", "3", "5"],
            ["wedge", "2"],
            ["tensor-bilinear", "2_1", "4_1"],
            ["consec-ones", "6"],
            ["thmA", "5"],
            ["thmC", "4_1"],
            ["table", "A", "2..2"],
            ["oracle-check", "--max-dim", "4", "--max-n", "2"],
            ["distinguished", "--max-n", "4", "--max-dim", "8"],
        )
        assert [argv[0] for argv in runs] == list(cli.COMMANDS)
        for argv in runs:
            assert main(argv) == 0, argv

    def test_no_command(self, capsys):
        code, out, err = _outcome(capsys, main, [])
        assert (code, out) == (2, "")
        assert err.startswith("usage: sp2forms [-h] [--version]")
        assert err.endswith("sp2forms: error: the following arguments are required: command\n")

    def test_version(self, capsys):
        assert _outcome(capsys, main, ["--version"]) == (0, f"sp2forms {__version__}\n", "")

    def test_unknown_command_lists_the_commands(self, capsys):
        code, out, err = _outcome(capsys, main, ["frobnicate"])
        assert (code, out) == (2, "")
        choices = ", ".join(f"'{name}'" for name in cli.COMMANDS)
        assert err.endswith(f"argument command: invalid choice: 'frobnicate' (choose from {choices})\n")


class TestAsciiIntegers:
    """Integers on the command line are ASCII digits with an optional '-', as in the type scanner."""

    @pytest.mark.parametrize("text", ["٣", "+3", " 3", "3 ", "1_0", "３", ""])
    def test_consec_ones_rejects(self, capsys, text):
        code, _, err = _outcome(capsys, main, ["consec-ones", text])
        assert code == 2
        assert f"argument n: invalid int value: {text!r}" in err

    @pytest.mark.parametrize("text", ["٣", "+3", " 3"])
    def test_bounds_and_jobs_reject(self, capsys, monkeypatch, text):
        monkeypatch.setattr(cli, "run_crosscheck", lambda **kwargs: pytest.fail("the sweep started"))
        for argv, what in (
            (["distinguished", "--max-n", text], "--max-n: invalid integer value"),
            (["oracle-check", "--max-dim", text], "--max-dim: invalid integer value"),
            (["oracle-check", "--jobs", text], "--jobs: invalid int value"),
        ):
            code, _, err = _outcome(capsys, main, argv)
            assert code == 2 and f"argument {what}: {text!r}" in err

    def test_negative_and_leading_zeros_still_parse(self, capsys):
        assert run(capsys, "consec-ones", "-3")[0] == 2  # n must be positive, as before
        assert run(capsys, "consec-ones", "06")[1].strip() == "2^3 - 2^1"
        assert run(capsys, "table", "A", "02..2")[1].strip() == "(2) | (2_1^2) | (2_1)"


class TestTableCaps:
    @pytest.mark.parametrize("which,cap", [("A", 32), ("C", 20)])
    def test_past_the_cap_is_a_usage_error(self, capsys, monkeypatch, which, cap):
        # rejected before any row is built
        for name in ("table_a_rows", "table_c_rows"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("rows were built"))
        for text in (str(cap + 1), f"2..{cap + 1}", "2..60"):
            code, out, err = run(capsys, "table", which, text)
            assert (code, out) == (2, "")
            assert f"past the cap of table {which}: HI at most {cap}" in err

    @pytest.mark.parametrize("which,cap", [("A", 32), ("C", 20)])
    def test_the_cap_itself_is_accepted(self, capsys, monkeypatch, which, cap):
        calls = []
        name = "table_a_rows" if which == "A" else "table_c_rows"
        monkeypatch.setattr(cli, name, lambda lo, hi, **kwargs: calls.append((lo, hi)) or [])
        assert run(capsys, "table", which, f"{cap}..{cap}")[0] == 0
        assert calls == [(cap, cap)]

    def test_help_states_the_caps(self, capsys):
        code, out, _ = _outcome(capsys, main, ["table", "--help"])
        assert code == 0
        out = " ".join(out.split())
        assert "dimension for A, at most 32; half-dimension for C, at most 20" in out
