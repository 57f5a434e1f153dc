"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad arguments,
including a rectangle with m < n, a diagonal or choice tableau that does not
suit the rectangle, or a cap exceeded), 4 tableau parse error (a tableau
file that cannot be read, is not a tableau, or is not one the command
takes), 5 domain error (tableau outside the minimal orbit set), 141 stdout's
reader gone (128 + SIGPIPE).  They are stable, so shell harnesses need no
output parsing.  `main` maps exceptions to them in one place; the input
rules live in the library, m >= n in `shapes.Rectangle`.  `main` parses a
named command with its own parser, and help, top-level errors and leftovers
with the parser of all five, which prints the same bytes.  `construct`,
`promote` and `invert` never compile `sequences`, `sieving`, `sweep` or
`verify`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from .orbits import NotMinimalOrbitError, invert, minimal_orbit_tableau
from .shapes import Diagonal, Rectangle, parse_partition
from .tableaux import (
    TableauError,
    TableauFormatError,
    dumps,
    format_grid,
    inverse_promotion,
    loads,
    promotion,
    standard_rectangle_dims,
)
from .words import format_permutation, parse_permutation

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PARSE = 4
EXIT_DOMAIN = 5
EXIT_PIPE = 141


def _read_tableau(path: str, what: str = ""):
    """The tableau in file `path`, "-" for stdin; any failure to read or
    parse it is a TableauFormatError whose message starts with `what`."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        return loads(text)
    except UnicodeDecodeError as exc:
        raise TableauFormatError(f"{what}not UTF-8 text: {exc}") from exc
    except (OSError, TableauFormatError) as exc:
        raise TableauFormatError(f"{what}{exc}") from exc


def _print_tableau(t, fmt: str) -> None:
    if fmt == "grid":
        print(format_grid(t))
    else:
        print(dumps(t))


def _cmd_construct(args) -> int:
    w = parse_permutation(args.w)
    n = args.n if args.n is not None else w.n
    if w.n != n:
        raise ValueError(f"--w has {w.n} letters but --n is {n}")
    rect = Rectangle(n, args.m)
    diag = None if args.diagonal is None else Diagonal(parse_partition(args.diagonal))
    choice = None if args.choice_tableau is None else _read_tableau(args.choice_tableau, "bad choice tableau: ")
    t = minimal_orbit_tableau(w, rect, diag, via=args.via, choice=choice)
    _print_tableau(t, args.format)
    return EXIT_OK


def _cmd_promote(args) -> int:
    t = _read_tableau(args.tableau)
    nrows, ncols = standard_rectangle_dims(t, "promote")
    # promotion^N is the identity: walk the residue the shorter way round, forward on a tie
    cells = nrows * ncols
    steps = args.steps % cells
    step = promotion if 2 * steps <= cells else inverse_promotion
    for _ in range(min(steps, cells - steps)):
        t = step(t)
    _print_tableau(t, args.format)
    return EXIT_OK


def _cmd_invert(args) -> int:
    print(format_permutation(invert(_read_tableau(args.tableau))))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite
    report = run_suite(
        Rectangle(args.n, args.m),
        args.suite,
        seed=args.seed,
        all_choices=args.all_choices,
        all_diagonals=args.all_diagonals,
        max_count=args.max_count,
    )
    print(report.format_text())
    if args.json:
        print(json.dumps(report.to_json_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_csp(args) -> int:
    from .sieving import divisors, q_hook_at_root
    from .sweep import orbit_table
    rect = Rectangle(args.n, args.m)
    table = orbit_table(rect, max_count=args.max_count)
    ok = True
    for r in divisors(rect.ncells):
        fixed = table.counts[r]
        val = q_hook_at_root(rect, r)
        line = f"{r} {fixed} {val}"
        if fixed != val:
            line += " MISMATCH"
            ok = False
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def _construct_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="permutation size (defaults to the length of --w)")
    p.add_argument("--m", type=int, required=True, help="other side of the rectangle (columns)")
    p.add_argument("--w", required=True, help='permutation, e.g. "3142" or "3,1,4,2"')
    p.add_argument("--diagonal", default=None, help='diagonal as its outer shape, e.g. "5431"')
    p.add_argument("--choice-tableau", default=None, help="JSON tableau file fixing the slide order")
    p.add_argument("--via", choices=("slides", "insertion"), default="slides")
    p.add_argument("--format", choices=("json", "grid"), default="json")


def _promote_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tableau", default="-", help='JSON tableau file, or "-" for stdin')
    p.add_argument("--steps", type=int, default=1, help="negative values apply inverse promotion; taken mod the cell count")
    p.add_argument("--format", choices=("json", "grid"), default="json")


def _invert_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tableau", default="-", help='JSON tableau file, or "-" for stdin')


def _cap(text: str) -> int:
    """A --max-count value: an int of at least 0, by the sweep's rule."""
    from .sweep import check_cap
    try:
        value = int(text)
    except ValueError:  # argparse's own words for a non-int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return check_cap(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _max_count_argument(p: argparse.ArgumentParser, also: str = "") -> None:
    from .sweep import MAX_COUNT
    text = (f"the most standard tableaux a sweep may enumerate{also} (default: %(default)s), counted by the hook length "
            "formula before anything is enumerated; no setting lifts the 255-cell and 2^32-rank limits")
    p.add_argument("--max-count", type=_cap, default=MAX_COUNT, help=text)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .verify import SUITES
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    p.add_argument("--all-choices", action="store_true", help="check every choice tableau, by one walk over slide states")
    p.add_argument("--all-diagonals", action="store_true", help="sweep every diagonal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="also print a JSON report")
    _max_count_argument(p, ", and the most choice tableaux the --all-choices walk may cover")


def _csp_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _max_count_argument(p)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own drops a failed write: main must see it
        (file or sys.stdout).write(self.format_help())


# A subcommand: its help line, what adds its arguments to a parser, and
# what runs it on the parsed arguments and returns the exit code.
Command = namedtuple("Command", "help add_arguments run")


# One entry per subcommand, in the order help lists them.
COMMANDS = {
    "construct": Command("build the tableau attached to a permutation", _construct_arguments, _cmd_construct),
    "promote": Command("apply promotion steps to a tableau file", _promote_arguments, _cmd_promote),
    "invert": Command("read the permutation back off a tableau", _invert_arguments, _cmd_invert),
    "verify": Command("run a named check suite", _verify_arguments, _cmd_verify),
    "csp": Command("print r, fixed-tableau count, polynomial value per divisor r", _csp_arguments, _cmd_csp),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for help, top-level errors and leftovers."""
    parser = _Parser(
        prog="taquin",
        description="Minimal promotion orbits of rectangular standard Young tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        entry.add_arguments(sub.add_parser(name, help=entry.help))
    return parser


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()  # a buffered write to a reader that has gone fails here
        return code
    except BrokenPipeError:  # `taquin verify ... | head -1`: stdout to devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_PIPE


def _run(argv: list) -> int:
    name = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        if name is not None:  # the subparser that the full parser would hand argv[1:] to
            parser = _Parser(prog=f"taquin {name}")
            COMMANDS[name].add_arguments(parser)
            args, extras = parser.parse_known_args(argv[1:])
            args.command = name
        if name is None or extras:  # top-level help and errors, leftover arguments
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return COMMANDS[args.command].run(args)
    except NotMinimalOrbitError as exc:
        print(f"not in O_n: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, (TableauFormatError, TableauError)) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
