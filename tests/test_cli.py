"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from sp2forms import cli
from sp2forms.cli import main
from sp2forms.hesselink import EpsilonTaggedType
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

    @pytest.mark.parametrize("text", ["x..y", "3..2"])
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
