"""Tests for the command-line interface."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp2forms import __version__, cli, crosscheck, distinguished
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
            (("tensor", "--", "3", "5"), "4^2,7"),  # declined by read_command, run through the tree
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

    @pytest.mark.parametrize(
        "argv,err",
        [
            (("thmC", "2_0"), "error: invalid symplectic type '2_0': size 2 has odd multiplicity 1 with eps = 0; "
                              "odd multiplicity forces eps = 1\n"),
            (("thmC", "2_1"), "error: need dimension at least 4, got 2\n"),
        ],
    )
    def test_invalid_class_is_a_usage_error(self, capsys, argv, err):
        try:  # a parse error exits, a rule's error returns
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert (code, *capsys.readouterr()) == (2, "", err)

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

    def test_golden_row_count_mismatch(self, capsys, tmp_path):
        short = tmp_path / "short.txt"
        first_two = (GOLDEN / "table_A.txt").read_text(encoding="utf-8").splitlines(True)[:2]
        short.write_text("".join(first_two), encoding="utf-8")
        code, out, err = run(capsys, "table", "A", "2..3", "--golden", str(short))
        assert code == 1 and len(out.splitlines()) == 3
        assert err == "golden mismatch: 3 rows computed, 2 expected\n"

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
        for name in ("verify_prop_A", "verify_prop_tensor", "verify_prop_C"):
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


def _outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of parse(argv), which is expected to exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParserSplit:
    """main reads a named command directly; every argv that read declines goes to the full tree."""

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
        # the direct read gives the same fields; a negative number is left to argparse
        assert cli.read_command(argv[0], argv[1:]) == (None if "-3" in argv else tree)

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
        def parser(*args):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(cli, "build_parser", parser)
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
        benchmark = (
            ["distinguished", "--max-n", "22", "--max-dim", "44", "--json"],
            ["oracle-check", "--max-dim", "12", "--max-n", "8", "--jobs", "1", "--json"],
            ["table", "A", "2..7"],
            ["table", "C", "2..8"],
        )
        for argv in runs + benchmark:
            assert main(argv) == 0, argv

    def test_declined_argv_runs_through_the_tree(self, capsys):
        # a valid '=' form, which read_command leaves to argparse
        code, out, _ = run(capsys, "oracle-check", "--max-dim=4", "--max-n", "2", "--json")
        _, spaced, _ = run(capsys, "oracle-check", "--max-dim", "4", "--max-n", "2", "--json")
        untimed = [{k: v for k, v in json.loads(text).items() if k not in ("elapsed_seconds", "stage_seconds")}
                   for text in (out, spaced)]
        assert code == 0 and untimed[0] == untimed[1] and untimed[0]["symplectic_checked"] == 5

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


class TestDirectRead:
    """read_command returns what the tree would parse after the command name, or None to leave the argv to it."""

    def test_declarations_use_only_what_the_direct_read_understands(self):
        for name, (_, _, arguments) in cli.COMMANDS.items():
            for flag, keywords in (*arguments, cli._JSON):
                assert set(keywords) <= {"type", "choices", "default", "action", "help", "metavar"}, (name, flag)
                assert keywords.get("action", "store_true") == "store_true", (name, flag)
                assert flag[0] != "-" or flag.startswith("--"), (name, flag)

    @pytest.mark.parametrize(
        "argv",
        [
            ["thmA", "-h"],
            ["table", "A", "2..3", "--help"],
            ["distinguished", "--max", "3"],  # an abbreviation
            ["oracle-check", "--max-dim=4"],
            ["tensor", "--", "3", "5"],
            ["consec-ones", "-3"],
            ["oracle-check", "--jobs"],
            ["table", "A", "2", "--golden", "--json"],
            ["oracle-check", "--max-dim", "-1"],
            ["tensor", "3"],
            ["tensor", "3", "5", "6"],
            ["table", "B", "2"],
            ["consec-ones", "٣"],
            ["distinguished", "--max-n", "1001"],
        ],
    )
    def test_declines(self, argv):
        assert cli.read_command(argv[0], argv[1:]) is None

    def test_last_value_of_a_repeated_option(self):
        fields = cli.read_command("distinguished", ["--max-n", "3", "--json", "--max-n", "4", "--json"])
        assert fields == {"fn": cli._cmd_distinguished, "max_n": 4, "max_dim": 24, "json": True}

    @given(st.sampled_from(list(cli.COMMANDS)), st.data())
    @settings(max_examples=500, deadline=None)
    def test_reads_only_what_argparse_parses_alike(self, name, data):
        # a well-formed argv with up to three tokens replaced, inserted or deleted
        argv = _well_formed(name, data)
        tokens = _tokens(name)
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(argv)))
            edit = data.draw(st.sampled_from(["replace", "insert", "delete"] if at < len(argv) else ["insert"]))
            if edit == "delete":
                del argv[at]
            else:
                argv[at:at + (edit == "replace")] = [data.draw(tokens)]
        fields = cli.read_command(name, argv)
        assert fields is None or fields == _argparse_fields(name, argv), argv

    @given(st.sampled_from(list(cli.COMMANDS)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reads_every_well_formed_argv(self, name, data):
        argv = _well_formed(name, data)
        fields = _argparse_fields(name, argv)
        assert fields is not None and cli.read_command(name, argv) == fields, argv


_TYPE_STRINGS = ["5", "2^2,8", "4_1", "2_0^2,8_1", "1,2^2", "x", ""]
_VALID = {
    "n": ["0", "6", "06", "12"],
    "which": ["A", "C"],
    "range": ["2..8", "5", "x"],
    "golden": ["x.txt", "a=b", ""],
    "max-dim": ["0", "4", "12", "16"],
    "max-n": ["0", "8", "016"],
    "jobs": ["1", "2", "0"],
}


def _well_formed(name, data):
    """Each declared option 0-2 times with a valid value, anywhere; each positional once, in order."""
    _, _, arguments = cli.COMMANDS[name]
    units = []
    for flag, keywords in (*arguments, cli._JSON):
        values = _VALID.get(flag.lstrip("-"), _TYPE_STRINGS)
        if flag[0] != "-":
            units.append([data.draw(st.sampled_from(values))])
        elif keywords.get("action") == "store_true":
            units += [[flag]] * data.draw(st.integers(0, 2))
        else:
            units += [[flag, data.draw(st.sampled_from(values))] for _ in range(data.draw(st.integers(0, 2)))]
    positionals = iter([unit for unit in units if unit[0][:1] != "-"])
    shuffled = data.draw(st.permutations(units))
    return [token for unit in shuffled for token in (unit if unit[0][:1] == "-" else next(positionals))]


def _tokens(name):
    """Tokens to edit in, each kind equally likely: the command's names, their prefixes, '=' forms, help and
    '--', integers in and out of range, non-ASCII and signed integers, A/B/C, and type strings."""
    _, _, arguments = cli.COMMANDS[name]
    flags = [flag for flag, _ in arguments if flag[0] == "-"] + ["--json", "--max-n", "--golden"]
    kinds = (
        flags,
        [flag[:k] for flag in flags for k in (3, len(flag) - 1)],
        [f"{flag}={value}" for flag in flags for value in ("4", "x")],
        ["-h", "--help", "--", "-"],
        ["0", "4", "8", "12", "24", "25", "401", "1001"],
        ["٣", "３", "+3", " 3", "-3", "-1"],
        ["A", "B", "C"],
        _TYPE_STRINGS + ["2..8", "x.txt"],
    )
    return st.one_of(*map(st.sampled_from, kinds))


_TREE = cli.build_parser()  # parse_args leaves a parser as it was, so one tree serves every example


def _argparse_fields(name, argv):
    """vars() of the tree's parse of [name, *argv] without command, or None when argparse exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(_TREE.parse_args([name, *argv]))
        except SystemExit:
            return None
    assert fields.pop("command") == name
    return fields


class TestRuleErrors:
    """A class rule that raises is reported with the class and the command that reproduces it."""

    @pytest.mark.parametrize("which,rule,bad", [("A", "dual_tensor_classes", "1,2"), ("C", "wedge_square_classes", "2_1,4_1")])
    def test_table(self, capsys, monkeypatch, which, rule, bad):
        real = getattr(cli, rule)

        def failing(x):
            if str(x) == bad:
                raise RuntimeError("forced")
            return real(x)

        monkeypatch.setattr(cli, rule, failing)
        command = "thmA" if which == "A" else "thmC"
        code, out, err = run(capsys, "table", which, "2..3")
        assert (code, out) == (1, "")
        assert err == f"error: table {which}: raised RuntimeError: forced; run: sp2forms {command} {bad}\n"

    def test_oracle_check_text(self, capsys, monkeypatch):
        # after the summary, each mismatch and then each parity violation, indented by two spaces
        real = crosscheck.dual_tensor_classes
        three = JordanType.parse("3")
        monkeypatch.setattr(crosscheck, "dual_tensor_classes", lambda j: real(three if str(j) == "2" else j))

        def forced(tagged, nondegenerate, context):
            return [f"{context}: forced"] if context == "wedge(4_1)" else []

        monkeypatch.setattr(crosscheck, "_parity_problems", forced)
        code, out, _ = run(capsys, "oracle-check", "--max-dim", "4", "--max-n", "2")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL: 5 symplectic + 2 linear instances, 2 mismatches, 1 parity violations, ")
        assert lines[1:] == [
            "  dual-tensor(2): matrices give 2_1^2, rules give 1_0,4_1^2; run: sp2forms thmA 2",
            "  dual-sub(2): matrices give 2_1, rules give 4_1^2; run: sp2forms thmA 2",
            "  wedge(4_1): forced; run: sp2forms thmC 4_1",
        ]

    def test_distinguished_text(self, capsys, monkeypatch):
        # each report's counterexamples follow its summary line, indented by two spaces
        real = distinguished.dual_tensor_classes
        monkeypatch.setattr(distinguished, "dual_tensor_classes", lambda j: 1 / 0 if str(j) == "2" else real(j))
        code, out, _ = run(capsys, "distinguished", "--max-n", "3", "--max-dim", "4")
        assert code == 1
        # summary lines without their elapsed time
        lines = [line if line[0] == " " else line.rsplit(", ", 1)[0] for line in out.splitlines()]
        counterexamples = [
            "  2: raised ZeroDivisionError: division by zero; run: sp2forms thmA 2",
            "  2: expected distinguished, not seen; run: sp2forms thmA 2",
        ]
        assert lines == [
            "FAIL dual-tensor-distinguished: 5 checked, 3 evaluated, 0 distinguished, 2 counterexamples",
            *counterexamples,
            "FAIL dual-irreducible-distinguished: 5 checked, 3 evaluated, 1 distinguished, 2 counterexamples",
            *counterexamples,
            "PASS bilinear-tensor-distinguished: 4 checked, 1 evaluated, 1 distinguished, 0 counterexamples",
            "PASS wedge-distinguished: 14 checked, 7 evaluated, 4 distinguished, 0 counterexamples",
        ]

    def test_distinguished(self, capsys, monkeypatch):
        # each sweep reports the raising class as one counterexample and goes on with the rest
        rules = {
            "dual_tensor_classes": "1,2",
            "wedge_square_classes": "2_1,4_1",
            "tensor_bilinear": "2_1 x 8_1",
        }
        for rule, bad in rules.items():
            real = getattr(distinguished, rule)

            def failing(*xs, real=real, bad=bad):
                if " x ".join(map(str, xs)) == bad:
                    raise RuntimeError("forced")
                return real(*xs)

            monkeypatch.setattr(distinguished, rule, failing)
        code, out, _ = run(capsys, "distinguished", "--max-n", "6", "--max-dim", "16", "--json")
        assert code == 1
        reports = {r["name"]: r for r in json.loads(out)}
        thm_a = ["1,2: raised RuntimeError: forced; run: sp2forms thmA 1,2"]
        assert reports["dual-tensor-distinguished"]["counterexamples"] == thm_a
        assert reports["dual-irreducible-distinguished"]["counterexamples"] == thm_a
        assert reports["wedge-distinguished"]["counterexamples"] == [
            "2_1,4_1: raised RuntimeError: forced; run: sp2forms thmC 2_1,4_1"
        ]
        assert reports["bilinear-tensor-distinguished"]["counterexamples"] == [
            "2_1 x 8_1: raised RuntimeError: forced; run: sp2forms tensor-bilinear 2_1 8_1"
        ]
        # the other classes were still evaluated: every hit is found
        assert {name: r["distinguished_inputs"] for name, r in reports.items()} == {
            "dual-tensor-distinguished": ["2"],
            "dual-irreducible-distinguished": ["2", "3", "5"],
            "bilinear-tensor-distinguished": ["2_1 x 2_1", "2_1 x 6_1", "2_1 x 2_1,6_1"],
            "wedge-distinguished": ["wedge 4_1", "irr 4_1", "irr 2_1^2", "irr 6_1", "irr 10_1", "irr 2_1,10_1"],
        }
