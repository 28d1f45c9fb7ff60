"""Command-line front end.

Subcommands expose the type arithmetic (tensor, wedge, tensor-bilinear,
consec-ones), the two classification engines (thmA, thmC), table
regeneration with golden-file comparison, the matrix cross-check sweep, and
the distinguished-class verification sweeps.

Every command is declared once, in ``COMMANDS``: its help line, its handler
and its arguments, each a name or flag with its ``add_argument`` keywords.
``main`` reads a command line in one of two ways.  When it starts with a
command name, ``read_command`` reads the command's arguments itself, which
is all a well-formed run needs, and no ``argparse`` is imported.  Anything
else (no command, a top-level option, or an argv that read declines, such
as help, an error or an abbreviation) goes to the full tree of subparsers
(``build_parser``), built from the same table, so every help text, usage
line and error is argparse's.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import __version__
from .crosscheck import run_crosscheck
from .distinguished import raised, verify_prop_A, verify_prop_C, verify_prop_tensor
from .enumeration import jordan_types, symplectic_types
from .hesselink import SymplecticType, induce_bilinear, tensor_bilinear
from .jordan import JordanType, ParseError, consecutive_ones, tensor, wedge_square
from .reps import dual_tensor_classes, wedge_square_classes

# Every timing below is one run of the command at the caps, all in one session
# on a shared 2-CPU Intel Xeon host with Python 3.11.7, at commit 8ab7a58.
# Whole runs on that host spread up to 1.8x between sessions of one day.

# Caps on the distinguished sweep bounds, which drive time and memory.  At the
# caps, in four runs at a later commit on the same host type, the command
# takes 3.0-3.7 s and 59 MB: the wedge sweep 0.18-0.28 s, the one pass giving
# both dual-tensor reports 0.04-0.05 s (nearly all of both was the class
# count; their searches never try a part above 6 or 12), and the pair sweep
# 2.5-3.3 s.  That session ran slow: its parent commit took 2.9-3.5 s.  Since
# the single-class counts come from the pentagonal theorem, those two sweeps
# take 4.5-5.6 ms and 2.6-3.1 ms in-process (BENCH_27.json).
# The pair sweep grows with its hit count: an earlier session measured 16 s
# and 207 MB at --max-dim 500.
MAX_N_CAP = 1000
MAX_DIM_CAP = 400

# Caps on the oracle-check bounds, which drive time.  Its cost about doubles
# for each +2 in symplectic dimension.  With --jobs 1, --max-dim 24 --max-n 0
# (2,256 symplectic classes) takes 7.0 s and --max-dim 0 --max-n 16 (913
# Jordan types, dual tensor squares up to dimension 256) 2.8 s, each in
# about 18 MB.
ORACLE_MAX_DIM_CAP = 24
ORACLE_MAX_N_CAP = 16

# Caps on the HI of a table range, which drives time and memory: every row is
# built in a list before printing.  At the caps, table A 2..32 takes 2.7 s for
# 43,787 rows in 25 MB, and table C 2..20 0.2 s for 937 rows (3.7 s for 47,047
# rows in 26 MB with --all).  Rows grow with the partition counts: table A
# 2..60 would hold 6.6 million.
TABLE_CAPS = {"A": 32, "C": 20}


def _parse_or_exit(parser_fn, text: str, what: str):
    try:
        return parser_fn(text)
    except ParseError as exc:
        print(f"error: invalid {what}: {exc.caret_message()}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as exc:
        print(f"error: invalid {what} {text!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(args, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_tensor(args) -> int:
    j1 = _parse_or_exit(JordanType.parse, args.left, "Jordan type")
    j2 = _parse_or_exit(JordanType.parse, args.right, "Jordan type")
    out = tensor(j1, j2)
    _emit(args, str(out), {"tensor": out.to_json()})
    return 0


def _cmd_wedge(args) -> int:
    j = _parse_or_exit(JordanType.parse, args.type, "Jordan type")
    out = wedge_square(j)
    _emit(args, str(out), {"wedge": out.to_json()})
    return 0


def _cmd_tensor_bilinear(args) -> int:
    s1 = _parse_or_exit(SymplecticType.parse, args.left, "symplectic type")
    s2 = _parse_or_exit(SymplecticType.parse, args.right, "symplectic type")
    out = tensor_bilinear(s1, s2)
    _emit(args, str(out), {"tensor": out.to_json()})
    return 0


def _cmd_consec_ones(args) -> int:
    if args.n <= 0:
        print("error: n must be positive", file=sys.stderr)
        return 2
    exp = consecutive_ones(args.n)
    _emit(args, str(exp), {"n": args.n, **exp.to_json()})
    return 0


def _cmd_thm_a(args) -> int:
    j = _parse_or_exit(JordanType.parse, args.type, "Jordan type")
    try:
        res = dual_tensor_classes(j)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, f"{res.tensor_space} | {res.irreducible}", {"input": j.to_json(), **res.to_json()})
    return 0


def _cmd_thm_c(args) -> int:
    s = _parse_or_exit(SymplecticType.parse, args.type, "symplectic type")
    try:
        res = wedge_square_classes(s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, f"{res.wedge_space} | {res.irreducible}", {"input": s.to_json(), **res.to_json()})
    return 0


def _ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits only, like the type scanner.

    Bare int() also takes '+', surrounding spaces, '_' between digits and
    any Unicode digit, such as '٣'; all of those raise ValueError here.
    """
    digits = text[1:] if text.startswith("-") else text
    if not digits or digits.strip("0123456789"):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def _int_arg(text: str) -> int:
    """An argparse type for an integer in ASCII digits; its error reads as type=int's (exit 2)."""
    try:
        return _ascii_int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _bounded(cap: int):
    """An argparse type for an integer in 0..cap; other values are usage errors (exit 2)."""

    def integer(text: str) -> int:
        n = _ascii_int(text)
        if not 0 <= n <= cap:
            import argparse

            raise argparse.ArgumentTypeError(f"{n} is outside 0..{cap}")
        return n

    return integer


def _parse_range(text: str) -> tuple[int, int]:
    """N or LO..HI as (lo, hi); ValueError if not integers or if LO > HI."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = _ascii_int(lo), _ascii_int(hi)
        if lo > hi:
            raise ValueError(f"reversed range {text!r}")
        return lo, hi
    n = _ascii_int(text)
    return n, n


class TableError(Exception):
    """A class rule raised on a row: what it raised, then the command that reproduces it."""


def table_a_rows(n_lo: int, n_hi: int) -> list[str]:
    """Rows for the special linear table, one per non-trivial Jordan type; TableError if a rule raises."""
    rows = []
    for n in range(max(2, n_lo), n_hi + 1):
        for j in jordan_types(n, include_trivial=False):
            try:
                res = dual_tensor_classes(j)
            except Exception as exc:
                raise TableError(raised(exc, "thmA", j)) from exc
            rows.append(f"{j.pretty()} | {res.tensor_space.pretty()} | {res.irreducible.pretty()}")
    return rows


def table_c_rows(n_lo: int, n_hi: int, show_all: bool = False) -> list[str]:
    """Rows for the symplectic table, one per class.

    Mirrors the published selection: every non-trivial class for n <= 3, only
    those with positive 2-adic content (``alpha_of(s) > 0``) for larger n;
    show_all lifts the restriction.  TableError if a rule raises.

    The restricted classes of dimension 2n are built by doubling: they are
    exactly ``induce_bilinear(t, 1)`` for t in ``symplectic_types(n)``, in
    the same order, so none of the classes with alpha 0 is generated.

    - ``alpha_of(s) > 0`` says that every untagged size is even and every
      tagged size is divisible by 4.
    - Halving every size maps these classes one-to-one onto the symplectic
      classes of dimension n.  A size that is 2 mod 4 has an odd half; it
      must be untagged, so its multiplicity is even, which is the parity law
      for an odd size.  A size divisible by 4 keeps its tag, and an even
      half may carry either tag.
    - Doubling keeps the reverse-lexicographic order of partitions and the
      tag order of ``epsilon_variants``.  The free choices it drops are tag
      1 on sizes that are 2 mod 4, and those have alpha 0.
    - The trivial class has alpha 0 and is never a double.
    """
    rows = []
    for n in range(max(2, n_lo), n_hi + 1):
        if show_all or n <= 3:
            classes = symplectic_types(2 * n, include_trivial=False)
        else:
            classes = (induce_bilinear(t, 1) for t in symplectic_types(n))
        for s in classes:
            try:
                res = wedge_square_classes(s)
            except Exception as exc:
                raise TableError(raised(exc, "thmC", s)) from exc
            rows.append(f"{s.pretty()} | {res.wedge_space.pretty()} | {res.irreducible.pretty()} | {res.alpha}")
    return rows


def _cmd_table(args) -> int:
    try:
        lo, hi = _parse_range(args.range)
    except ValueError:
        print(f"error: bad range {args.range!r}, expected N or LO..HI", file=sys.stderr)
        return 2
    cap = TABLE_CAPS[args.which]
    if hi > cap:
        print(f"error: range {args.range!r} is past the cap of table {args.which}: HI at most {cap}", file=sys.stderr)
        return 2
    expected = None
    if args.golden:  # read before any row is built, so a bad path fails fast
        try:
            with open(args.golden, "r", encoding="utf-8") as fh:
                expected = [line.rstrip("\n") for line in fh if line.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"error: cannot read golden file {args.golden!r}: {reason}", file=sys.stderr)
            return 2
    try:  # every row is built before any is printed
        rows = table_a_rows(lo, hi) if args.which == "A" else table_c_rows(lo, hi, show_all=args.all)
    except TableError as exc:
        print(f"error: table {args.which}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"table": args.which, "rows": rows}))
    else:
        for row in rows:
            print(row)
    if expected is not None:
        if rows != expected:
            for i, (got, want) in enumerate(zip(rows, expected)):
                if got != want:
                    print(f"golden mismatch at row {i}:\n  got  {got}\n  want {want}", file=sys.stderr)
                    break
            if len(rows) != len(expected):
                print(f"golden mismatch: {len(rows)} rows computed, {len(expected)} expected", file=sys.stderr)
            return 1
        print(f"golden check passed: {len(rows)} rows", file=sys.stderr)
    return 0


def _cmd_oracle_check(args) -> int:
    if args.dump_matrices and args.json:  # the grids would come before the JSON document
        print("error: --dump-matrices cannot be combined with --json", file=sys.stderr)
        return 2
    report = run_crosscheck(max_dim=args.max_dim, max_n=args.max_n, jobs=args.jobs)
    if args.dump_matrices:
        from . import oracle

        for s in symplectic_types(min(args.max_dim, 6) & ~1):  # the largest even dimension in range
            if s.is_empty():  # dimension 0 has no matrices
                continue
            space = oracle.space_from_type(s)
            print(f"class {s}:\n{space.ascii_grids()}")
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
        for line in report.mismatches + report.parity_violations:
            print(f"  {line}")
    return 0 if report.ok else 1


def _cmd_distinguished(args) -> int:
    reports = [
        *verify_prop_A(args.max_n),
        verify_prop_tensor(args.max_dim),
        verify_prop_C(args.max_n),
    ]
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
            for line in r.counterexamples:
                print(f"  {line}")
    return 0 if all(r.ok for r in reports) else 1


# Each argument: (name or flag, add_argument keywords), written once for both
# readers.  build_parser passes the keywords to argparse; read_command
# understands only type, choices, default and action="store_true" (help and
# metavar are for argparse alone).
_PAIR = (("left", {}), ("right", {}))
_JSON = ("--json", {"action": "store_true"})

_TABLE_ARGUMENTS = (
    ("which", {"choices": ("A", "C")}),
    ("range", {"help": f"N or LO..HI (dimension for A, at most {TABLE_CAPS['A']}; "
               f"half-dimension for C, at most {TABLE_CAPS['C']})"}),
    ("--golden", {"metavar": "FILE", "help": "compare against stored rows; exit 1 on mismatch"}),
    ("--all", {"action": "store_true", "help": "table C: include classes of 2-adic content zero"}),
)

_ORACLE_CHECK_ARGUMENTS = (
    ("--max-dim", {"type": _bounded(ORACLE_MAX_DIM_CAP), "default": 8,
                   "help": f"largest symplectic dimension to sweep, 0..{ORACLE_MAX_DIM_CAP}"}),
    ("--max-n", {"type": _bounded(ORACLE_MAX_N_CAP), "default": 6,
                 "help": f"largest special linear dimension to sweep, 0..{ORACLE_MAX_N_CAP}"}),
    ("--jobs", {"type": _int_arg, "default": 1, "help": "worker processes (default 1)"}),
    ("--dump-matrices", {"action": "store_true",
                         "help": "print the matrices of every class of the largest even dimension up to "
                         "min(--max-dim, 6) as 0/1 grids; not with --json"}),
)

_DISTINGUISHED_ARGUMENTS = (
    ("--max-n", {"type": _bounded(MAX_N_CAP), "default": 12,
                 "help": f"dimension bound for the single-space sweeps, 0..{MAX_N_CAP}"}),
    ("--max-dim", {"type": _bounded(MAX_DIM_CAP), "default": 24,
                   "help": f"product dimension bound for the pair sweep, 0..{MAX_DIM_CAP}"}),
)


# Each command: (help line, handler, its own arguments).  --json and the
# handler, as fn, are added to every command.
COMMANDS = {
    "tensor": ("Jordan type of a tensor product.", _cmd_tensor, _PAIR),
    "wedge": ("Jordan type of an exterior square.", _cmd_wedge, (("type", {}),)),
    "tensor-bilinear": ("Class of a tensor product of symplectic classes.", _cmd_tensor_bilinear, _PAIR),
    "consec-ones": ("Minimal alternating expansion into powers of two.", _cmd_consec_ones,
                    (("n", {"type": _int_arg}),)),
    "thmA": ("Classes on the dual tensor square and its subquotient.", _cmd_thm_a,
             (("type", {"help": "Jordan type of the element, e.g. '5' or '1,2^2'"}),)),
    "thmC": ("Classes on the wedge square and its subquotient.", _cmd_thm_c,
             (("type", {"help": "symplectic class, e.g. '4_1' or '2_0^2,8_1'"}),)),
    "table": ("Regenerate a classification table.", _cmd_table, _TABLE_ARGUMENTS),
    "oracle-check": ("Matrix cross-check of the combinatorial rules.", _cmd_oracle_check, _ORACLE_CHECK_ARGUMENTS),
    "distinguished": ("Verify the distinguished-class sweeps.", _cmd_distinguished, _DISTINGUISHED_ARGUMENTS),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level options and one subparser per command, each with --json and its handler as fn."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sp2forms",
        description="Jordan types and symplectic class data of unipotent elements in characteristic two.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, keywords in (*arguments, _JSON):
            command.add_argument(flag, **keywords)
        command.set_defaults(fn=handler)
    return parser


def read_command(name: str, tokens: list[str]) -> dict | None:
    """The fields the tree's subparser for name would parse from tokens, or None to leave them to it.

    Reads only what it fully understands: the command's options spelled in
    full, each but a store_true one followed by a value that does not start
    with '-', and exactly its positionals, in any order; a repeated option
    keeps its last value.  It declines everything else, which argparse
    then parses or answers with its own help, usage line or error: -h,
    --help, an abbreviation, --opt=value, --, any other token starting
    with '-' (such as a negative number), a missing value, the wrong number
    of positionals, and a value that fails its type or choices.
    """
    _, handler, arguments = COMMANDS[name]
    declared = dict((*arguments, _JSON))
    positionals = [flag for flag in declared if flag[0] != "-"]
    fields = {_dest(flag): keywords.get("default", False if "action" in keywords else None)
              for flag, keywords in declared.items()}
    fields["fn"] = handler
    given, values = [], []  # positional texts; (flag, text or True) of each option, in order
    rest = iter(tokens)
    for token in rest:
        if token[:1] != "-":
            given.append(token)
        elif token not in declared:
            return None
        elif "action" in declared[token]:  # store_true
            values.append((token, True))
        else:
            text = next(rest, "-")
            if text[:1] == "-":  # a missing value or one argparse may read otherwise
                return None
            values.append((token, text))
    if len(given) != len(positionals):
        return None
    try:
        for flag, text in (*values, *zip(positionals, given)):
            keywords = declared[flag]
            value = keywords["type"](text) if "type" in keywords else text
            if value not in keywords.get("choices", (value,)):
                return None
            fields[_dest(flag)] = value
    except Exception:  # argparse calls the type again, then reports the error or lets it propagate
        return None
    return fields


def _dest(flag: str) -> str:
    """The attribute argparse stores an argument in: 'range' for range, 'max_dim' for --max-dim."""
    return flag.lstrip("-").replace("-", "_")


def main(argv: list[str] | None = None) -> int:
    """Parse argv and run its command.

    When argv starts with a command name, read_command reads the rest.
    Everything else goes to the full tree: no command, an option before it,
    an unknown name, and any argv that read_command declines, so help,
    usage lines and errors are argparse's.
    """
    argv = sys.argv[1:] if argv is None else argv
    fields = read_command(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    args = build_parser().parse_args(argv) if fields is None else SimpleNamespace(**fields)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
