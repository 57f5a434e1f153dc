import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from taquin.cli import COMMANDS, build_parser, main
from taquin.orbits import minimal_orbit_tableau
from taquin.tableaux import dumps, format_grid, from_rows, loads, promotion
from taquin.shapes import Rectangle
from taquin.words import parse_permutation

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdin=None):
    """(exit code, stdout, stderr) of `main(args)` in this process, with
    `stdin` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_construct_json_output():
    code, out, _ = run_cli("construct", "--n", "4", "--m", "6", "--w", "3142")
    assert code == 0
    obj = json.loads(out)
    assert obj["outer"] == [6, 6, 6, 6]
    assert obj["rows"][0] == [1, 2, 6, 10, 14, 18]
    assert obj["rows"][3] == [7, 11, 15, 19, 23, 24]


def test_construct_grid_output():
    code, out, _ = run_cli("construct", "--n", "1", "--m", "1", "--w", "1", "--format", "grid")
    assert code == 0 and out == "1\n"


def test_construct_diagonal_and_via_flags(tmp_path):
    base = run_cli("construct", "--n", "4", "--m", "6", "--w", "3142")[1]
    with_diag = run_cli("construct", "--n", "4", "--m", "6", "--w", "3142", "--diagonal", "5431")[1]
    via_ins = run_cli("construct", "--n", "4", "--m", "6", "--w", "3142", "--via", "insertion")[1]
    assert base == with_diag == via_ins
    # pinning the slide order cannot change the result
    choice = tmp_path / "choice.json"
    choice.write_text(dumps(from_rows([[1, 3, 6, 7], [2, 4, 9], [5, 8]])))
    pinned = run_cli(
        "construct", "--n", "4", "--m", "6", "--w", "3142",
        "--diagonal", "5431", "--choice-tableau", str(choice),
    )
    assert pinned[0] == 0 and pinned[1] == with_diag
    # --n defaults to the length of --w
    no_n = run_cli("construct", "--m", "6", "--w", "3142")
    assert no_n[0] == 0 and no_n[1] == base


def test_construct_usage_errors(capsys, tmp_path):
    code, _, _ = run_cli("construct", "--m", "6", "--w", "31x2")
    assert code == 2
    code, _, _ = run_cli("construct", "--m", "6")  # argparse: missing --w
    assert code == 2
    # only ASCII digits parse: Arabic-Indic and superscript digits, and an
    # empty part, are malformed text, never a permutation or a partition
    for w in ("\u0663\u0661\u0662", "\u00b312", "3,,1,2"):
        assert main(["construct", "--m", "4", "--w", w]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"not a permutation: {w!r}" in err
    assert main(["construct", "--m", "4", "--w", "312", "--diagonal", "\u0663\u0662\u0661"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not a partition: '\u0663\u0662\u0661'" in err
    # a choice tableau pins the slide order, so the insertion route refuses
    # one, as the slides route refuses one of the wrong shape
    choice = tmp_path / "choice.json"
    choice.write_text(dumps(from_rows([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])))
    for via in ("slides", "insertion"):
        assert main(["construct", "--m", "3", "--w", "21", "--via", via, "--choice-tableau", str(choice)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_construct_refuses_m_below_n(capsys):
    argv = ["construct", "--n", "3", "--m", "2", "--w", "132"]
    for via in ([], ["--via", "insertion"]):
        assert main(argv + via) == 2
        out, err = capsys.readouterr()
        assert out == "" and "m >= n" in err
    assert main(argv + ["--via", "insertion", "--experimental"]) == 2
    assert "unrecognized arguments: --experimental" in capsys.readouterr().err


def test_construct_invert_pipe_round_trip():
    # the one test of the module entry across real processes: only a process
    # runs cli.py's last line, `raise SystemExit(main())`, so a refusal must
    # reach the shell as its code.  pyproject.toml's pythonpath reaches only
    # this process; the children need src on their own path
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    entry = [sys.executable, "-m", "taquin.cli"]
    pipe = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "env": env}
    refused = subprocess.Popen([*entry, "invert"], **pipe)
    construct = subprocess.Popen([*entry, "construct", "--n", "4", "--m", "5", "--w", "3142"], stdout=subprocess.PIPE, env=env)
    invert = subprocess.run([*entry, "invert"], stdin=construct.stdout, capture_output=True, text=True, env=env, timeout=60)
    construct.stdout.close()
    assert (construct.wait(60), invert.returncode, invert.stdout, invert.stderr) == (0, 0, "3142\n", "")
    out, err = refused.communicate(dumps(from_rows([[1, 2, 3], [4, 5, 6]])), timeout=60)
    assert (refused.returncode, out) == (5, "")
    assert err == "not in O_n: diagonal residues (2, 2) collide; not in the minimal orbit set\n"


# The child of the 141 test: `main` on the command line's arguments, which
# must leave the process's open file descriptors as it found them.
MAIN_KEEPS_FDS_SCRIPT = """
import os
from taquin.cli import main

before = sorted(os.listdir("/proc/self/fd"))
code = main()
after = sorted(os.listdir("/proc/self/fd"))
assert after == before, (before, after)
raise SystemExit(code)
"""


def test_a_reader_gone_before_the_first_write_exits_141_quietly():
    # `taquin verify ... | head -1`: the exit is a filter's killed by SIGPIPE,
    # and nothing is printed, not even by the flush at shutdown.  Buffered
    # stdout fails at main's flush; unbuffered fails at the write, help's
    # inside argparse included.  The descriptor main opens on devnull is
    # closed again
    procs = []
    for unbuffered, argv in (
        ("", ["construct", "--m", "6", "--w", "3142"]),
        ("", ["--help"]),
        ("1", ["verify", "--n", "2", "--m", "2", "--suite", "csp"]),
        ("1", ["--help"]),
    ):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        cmd = [sys.executable, "-c", MAIN_KEEPS_FDS_SCRIPT, *argv]
        procs.append((argv, unbuffered, subprocess.Popen(cmd, stdout=write, stderr=subprocess.PIPE, text=True, env=env)))
        os.close(write)
    for argv, unbuffered, proc in procs:
        assert (proc.wait(60), proc.stderr.read()) == (141, ""), (argv, unbuffered)
        proc.stderr.close()


def test_promote_steps():
    tw = run_cli("construct", "--n", "4", "--m", "6", "--w", "3142")[1]
    code, out, _ = run_cli("promote", "--steps", "0", stdin=tw)
    assert code == 0 and out == tw
    code, out, _ = run_cli("promote", "--steps", "24", stdin=tw)
    assert code == 0 and out == tw
    one = run_cli("promote", "--steps", "1", stdin=tw)[1]
    expected = run_cli("construct", "--n", "4", "--m", "6", "--w", "2431")[1]
    assert one == expected
    back = run_cli("promote", "--steps", "-1", stdin=one)[1]
    assert back == tw


def test_promote_huge_step_count_is_reduced_mod_cells():
    tw = run_cli("construct", "--n", "6", "--m", "10", "--w", "352416")[1]
    for sign in (1, -1):
        code, huge, _ = run_cli("promote", "--steps", str(sign * 10**12), stdin=tw)
        assert code == 0
        assert huge == run_cli("promote", "--steps", str(sign * (10**12 % 60)), stdin=tw)[1]
    # the input is checked before the step count is reduced
    code, _, err = run_cli("promote", "--steps", "60", stdin='{"outer": [2, 1], "rows": [[1, 3], [2]]}')
    assert code == 4 and "rectangle" in err


def test_promote_takes_the_short_way_round(monkeypatch, capsys):
    import taquin.cli as cli

    assert main(["construct", "--m", "10", "--w", "352416"]) == 0
    tw = capsys.readouterr().out
    calls = []
    for name in ("promotion", "inverse_promotion"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda t, real=real, name=name: calls.append(name) or real(t))

    def promote(steps):
        calls.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(tw))
        assert main(["promote", "--steps", str(steps)]) == 0
        return capsys.readouterr().out, list(calls)

    one, back = promote(1), promote(-1)
    # -59 is 1 mod 60 and 59 is -1; a tie at 30 goes forward
    assert promote(-59) == (one[0], ["promotion"])
    assert promote(59) == (back[0], ["inverse_promotion"])
    assert promote(30)[1] == ["promotion"] * 30


def test_tableau_file_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "t.json"
    path.write_bytes(b'{"outer": [1], "rows": [[1]]}\xff')
    for command in ("promote", "invert"):
        code, _, err = run_cli(command, "--tableau", str(path))
        assert code == 4 and "UTF-8" in err


def test_deeply_nested_json_is_a_parse_error(monkeypatch, capsys):
    # the JSON decoder recurses once per bracket; a deep enough nest must not
    # escape as a RecursionError traceback
    for command in ("promote", "invert"):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 200_000))
        assert main([command]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: invalid JSON")


def test_count_cap_is_checked_before_enumerating(monkeypatch, capsys):
    """Nothing is enumerated before a cap refusal: `sweep._syt_halves`,
    where every enumeration starts, is never called."""
    import taquin.sweep as sweep

    def never(*args, **kwargs):
        raise AssertionError("enumeration started despite the count cap")

    monkeypatch.setattr(sweep, "_syt_halves", never)
    assert main(["verify", "--n", "3", "--m", "8"]) == 2
    assert main(["csp", "--n", "2", "--m", "14"]) == 2
    assert capsys.readouterr().err == (
        "error: 23371634 tableaux exceed the 2000000 cap; raise max_count (CLI: --max-count) to sweep\n"
        "error: 2674440 tableaux exceed the 2000000 cap; raise max_count (CLI: --max-count) to sweep\n"
    )


def test_rank_lane_limit_is_checked_before_enumerating(monkeypatch, capsys):
    """Nothing is enumerated before a lane refusal: `sweep._syt_halves`,
    where every enumeration starts, is never called."""
    # 4x7 passes a raised cap, but its 13,672,405,890 tableaux do not fit
    # the sweep's 4-byte successor ranks
    import taquin.sweep as sweep

    def never(*args, **kwargs):
        raise AssertionError("enumeration started beyond the rank lanes")

    monkeypatch.setattr(sweep, "_syt_halves", never)
    assert main(["csp", "--n", "4", "--m", "7", "--max-count", "20000000000"]) == 2
    # no cap lifts the lane limit, so the message names no remedy
    assert capsys.readouterr().err == "error: 13672405890 tableaux exceed the 32-bit ranks of the sweep\n"


def test_csp_table(monkeypatch):
    import taquin.sieving as sieving

    code, out, _ = run_cli("csp", "--n", "2", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["1 0 0", "2 2 2", "4 2 2"]
    code, out, _ = run_cli("csp", "--n", "3", "--m", "3")
    assert code == 0
    assert "3 6 6" in out.splitlines()
    code, out, _ = run_cli("csp", "--n", "1", "--m", "1")
    assert code == 0 and out.strip() == "1 1 1"
    # 22 cells and 58,786 tableaux: the tableau count alone is capped
    assert run_cli("csp", "--n", "2", "--m", "11") == (0, "1 0 0\n2 2 2\n11 462 462\n22 58786 58786\n", "")
    # a polynomial value one too high at every divisor; `csp` imports
    # q_hook_at_root from taquin.sieving when it runs, so patch it there
    real = sieving.q_hook_at_root
    monkeypatch.setattr(sieving, "q_hook_at_root", lambda rect, r: real(rect, r) + 1)
    assert run_cli("csp", "--n", "2", "--m", "2") == (1, "1 0 1 MISMATCH\n2 2 3 MISMATCH\n4 2 3 MISMATCH\n", "")


def test_csp_refuses_m_below_n(capsys):
    assert main(["csp", "--n", "3", "--m", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "m >= n" in err


def test_verify_suites():
    code, out, _ = run_cli("verify", "--n", "3", "--m", "4", "--suite", "bijection")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(
        "verify", "--n", "3", "--m", "4", "--suite", "all", "--all-choices", "--all-diagonals"
    )
    assert code == 0 and "FAIL" not in out
    code, out, _ = run_cli("verify", "--n", "2", "--m", "2", "--suite", "csp", "--json")
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["suite"] == "csp"
    assert all(c["status"] == "pass" for c in report["cases"])


def test_verify_caps_reach_the_choice_enumerations(capsys):
    # independence reads no orbit table: its choice enumerations refuse
    argv = ["verify", "--n", "2", "--m", "9", "--suite", "independence", "--all-choices", "--all-diagonals"]
    assert main(argv + ["--max-count", "1000"]) == 2
    assert capsys.readouterr() == ("", "error: 1001 tableaux exceed the 1000 cap; raise max_count (CLI: --max-count) to sweep\n")
    assert main(argv + ["--max-count", "1430"]) == 0
    assert "independence: 4/4 cases ok" in capsys.readouterr().out
    # 22 cells pass with the default cap
    assert main(["verify", "--n", "1", "--m", "22", "--all-choices", "--all-diagonals"]) == 0
    assert "all: 26/26 cases ok" in capsys.readouterr().out


def test_main_callable_directly(capsys):
    assert main(["construct", "--n", "2", "--m", "2", "--w", "21", "--format", "grid"]) == 0
    out = capsys.readouterr().out
    assert out == "1 3\n2 4\n"
    assert main(["bogus-subcommand"]) == 2


def test_repeated_main_calls_use_their_own_defaults(monkeypatch, capsys):
    argv = ["construct", "--n", "3", "--m", "4", "--w", "231"]
    assert main(argv + ["--format", "grid"]) == 0
    grid = capsys.readouterr().out
    assert main(argv) == 0
    tw = capsys.readouterr().out
    t = loads(tw)
    assert grid == format_grid(t) + "\n"
    for steps, expected in ((["--steps", "2"], promotion(promotion(t))), ([], promotion(t))):
        monkeypatch.setattr(sys, "stdin", io.StringIO(tw))
        assert main(["promote", *steps]) == 0
        assert loads(capsys.readouterr().out) == expected


def test_verify_failure_exits_1(monkeypatch, capsys):
    import taquin.cli as cli
    import taquin.verify as verify
    from taquin.verify import CaseResult, SuiteReport

    def fake_run_suite(rect, suite, **kwargs):
        return SuiteReport(suite, rect, [CaseResult("doomed", "made up")])

    # `verify` imports run_suite from taquin.verify when it runs, so patch it there
    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    assert cli.main(["verify", "--n", "2", "--m", "2", "--suite", "csp"]) == 1
    assert "FAIL doomed" in capsys.readouterr().out


# One row per command and bad input: (argv, stdin, exit code, stderr prefix,
# words stderr must contain).  "@name" in argv is a file in a temporary
# directory holding BAD_FILES[name]; a name missing from BAD_FILES is a file
# that does not exist.
BAD_FILES = {
    "malformed.json": "{bad json",
    "nonstandard.json": dumps(from_rows([[1, 3, 6, 7], [2, 4, 10], [5, 8]])),
    "wrongshape.json": dumps(from_rows([[1, 2, 3], [4, 5, 6]])),
}
CONSTRUCT_4X6 = ["construct", "--n", "4", "--m", "6", "--w", "3142"]
CAP_EXCEEDED = "tableaux exceed the 2000000 cap; raise max_count (CLI: --max-count) to sweep\n"
BAD_INPUT_ROWS = [
    (["construct", "--n", "3", "--m", "4", "--w", "3142"], "", 2, "error: ", ["--w has 4 letters", "--n is 3"]),
    (CONSTRUCT_4X6 + ["--diagonal", "531"], "", 2, "error: ", ["531", "3 corners"]),
    (CONSTRUCT_4X6 + ["--diagonal", "7531"], "", 2, "error: ", ["7531", "does not fit", "4x6"]),
    (CONSTRUCT_4X6 + ["--diagonal", "55431"], "", 2, "error: ", ["55431", "does not fit", "4x6"]),
    (CONSTRUCT_4X6 + ["--diagonal", "7531", "--via", "insertion"], "", 2, "error: ", ["7531", "does not fit", "4x6"]),
    (["construct", "--n", "3", "--m", "2", "--w", "132"], "", 2, "error: ", ["m >= n"]),
    (["construct", "--n", "3", "--m", "2", "--w", "132", "--via", "insertion"], "", 2, "error: ", ["m >= n"]),
    (CONSTRUCT_4X6 + ["--diagonal", "5431", "--choice-tableau", "@malformed.json"], "", 4, "error: bad choice tableau: ", ["invalid JSON"]),
    (CONSTRUCT_4X6 + ["--diagonal", "5431", "--choice-tableau", "@nonstandard.json"], "", 2, "error: ", ["standard", "1..N"]),
    (CONSTRUCT_4X6 + ["--diagonal", "5431", "--choice-tableau", "@wrongshape.json"], "", 2, "error: ", ["must live on 432", "got 33"]),
    (CONSTRUCT_4X6 + ["--diagonal", "5431", "--choice-tableau", "@missing.json"], "", 4, "error: bad choice tableau: ", ["No such file", "missing.json"]),
    (["promote"], "{bad json", 4, "error: ", ["invalid JSON"]),
    (["promote"], '{"outer": [2, 1], "rows": [[1, 3], [2]]}', 4, "error: ", ["promote", "rectangle"]),
    (["invert"], dumps(from_rows([[1, 2, 3], [4, 5, 6]])), 5, "not in O_n: ", ["residues (2, 2) collide"]),
    (["invert", "--tableau", "@missing.json"], "", 4, "error: ", ["No such file", "missing.json"]),
    (["verify", "--n", "3", "--m", "2"], "", 2, "error: ", ["m >= n"]),
    (["verify", "--n", "4", "--m", "6"], "", 2, "error: ", ["140229804 " + CAP_EXCEEDED]),
    (["verify", "--n", "3", "--m", "8"], "", 2, "error: ", ["23371634 " + CAP_EXCEEDED]),
    (["csp", "--n", "3", "--m", "2"], "", 2, "error: ", ["m >= n"]),
    (["csp", "--n", "4", "--m", "6"], "", 2, "error: ", ["140229804 " + CAP_EXCEEDED]),
    (["csp", "--n", "2", "--m", "14"], "", 2, "error: ", ["2674440 " + CAP_EXCEEDED]),
    (CONSTRUCT_4X6 + ["--diagonal", "[]"], "", 2, "error: ", ["empty shape has no diagonal"]),
    # the message ends the line: no cap lifts the lane limit, so it names no remedy
    (["csp", "--n", "4", "--m", "7", "--max-count", "20000000000"], "", 2, "error: ",
     ["13672405890 tableaux exceed the 32-bit ranks of the sweep\n"]),
    # one grid byte per entry: refused on the cell count alone, before the
    # hook length count is held to the cap, and naming no remedy
    (["csp", "--n", "1", "--m", "300", "--max-count", "0"], "", 2, "error: ",
     ["300 cells exceed the 255-cell limit of the sweep's grid bytes\n"]),
    (["csp", "--n", "1", "--m", "300"], "", 2, "error: ",
     ["300 cells exceed the 255-cell limit of the sweep's grid bytes\n"]),
    (["csp", "--n", "300", "--m", "300"], "", 2, "error: ",
     ["90000 cells exceed the 255-cell limit of the sweep's grid bytes\n"]),
    # parsed 2x2 entries that are not a standard filling: the validator's
    # message, whole; a 0 is an entry, never an empty cell
    *(
        ([command], '{"outer": [2, 2], "rows": ' + rows + "}", 4, "error: " + message + "\n", [])
        for command, rows, message in (
            ("promote", "[[1, true], [3, 4]]", "entry True at (1, 2) is not an integer"),
            ("promote", "[[1, 2.0], [3, 4]]", "entry 2.0 at (1, 2) is not an integer"),
            ("invert", '[[1, "2"], [3, 4]]', "entry '2' at (1, 2) is not an integer"),
            ("invert", "[[0, 2], [3, 4]]", "non-positive entry 0 at (1, 1)"),
            ("promote", "[[1, 0], [3, 4]]", "row not increasing at (1, 1): 1 !< 0"),
            ("invert", "[[-3, 2], [3, 4]]", "non-positive entry -3 at (1, 1)"),
            ("promote", "[[1, 2], [2, 4]]", "duplicate entries"),
            ("invert", "[[1, 4], [3, 2]]", "column not increasing at (1, 2): 4 !< 2"),
            ("promote", "[[1, null], [3, 4]]", "promote needs a standard tableau with entries 1..N"),
        )
    ),
    # a negative cap is bad input, refused by argparse naming the option
    (["csp", "--n", "2", "--m", "2", "--max-count", "-1"], "", 2, "usage: taquin csp ",
     ["taquin csp: error: argument --max-count: a cap must be at least 0, got -1\n"]),
    (["verify", "--n", "2", "--m", "2", "--max-count", "-1"], "", 2, "usage: taquin verify ",
     ["taquin verify: error: argument --max-count: a cap must be at least 0, got -1\n"]),
    # parsed tableaux that no row above covers: the message, whole; an inner
    # shape outside the outer one is named before the per-row cell counts
    *(
        ([command], text, 4, "error: " + message + "\n", [])
        for command, text, message in (
            ("promote", '{"outer": [2, 2], "rows": [[1, 2], [3, 4.7]]}', "entry 4.7 at (2, 2) is not an integer"),
            ("promote", '{"outer": "22", "rows": [[1, 2], [3, 4]]}', "'outer' must be a list of integers"),
            ("promote", '{"outer": [2, 2], "rows": [[1, 3], [2, 5]]}', "promote needs a standard tableau with entries 1..N"),
            ("promote", '{"outer": [2, 2], "inner": [3], "rows": [[1], [2, 3]]}', "inner 3 not contained in outer 22"),
            ("invert", '{"outer": [2, 2], "inner": [3], "rows": [[1], [2, 3]]}', "inner 3 not contained in outer 22"),
        )
    ),
]


def test_a_refused_choice_tableau_is_refused_again_in_one_process(tmp_path, capsys):
    # slide orders are cached per choice, but nothing is kept for a choice
    # that fails its check: a second construct gets the same exit and message
    choice = tmp_path / "nonstandard.json"
    choice.write_text(BAD_FILES["nonstandard.json"])
    argv = CONSTRUCT_4X6 + ["--diagonal", "5431", "--choice-tableau", str(choice)]
    outcomes = [(main(argv), *capsys.readouterr()) for _ in range(2)]
    assert outcomes[0] == outcomes[1] == (2, "", "error: choice tableau must be standard with entries 1..N\n")


@pytest.mark.parametrize("argv, stdin, code, prefix, words", BAD_INPUT_ROWS)
def test_bad_input_exit_codes(argv, stdin, code, prefix, words, tmp_path, monkeypatch, capsys):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix), err
    for word in words:
        assert word in err, (word, err)


# argparse's own errors, pinned byte for byte at 80 columns: usage line,
# message, empty stdout and exit code.  (argv, exit code, stderr)
TOP_USAGE = "usage: taquin [-h] {construct,promote,invert,verify,csp} ...\n"
CONSTRUCT_USAGE = (
    "usage: taquin construct [-h] [--n N] --m M --w W [--diagonal DIAGONAL]\n"
    "                        [--choice-tableau CHOICE_TABLEAU]\n"
    "                        [--via {slides,insertion}] [--format {json,grid}]\n"
)
VERIFY_USAGE = (
    "usage: taquin verify [-h] --n N --m M\n"
    "                     [--suite {bijection,independence,csp,haiman,propositions,all}]\n"
    "                     [--all-choices] [--all-diagonals] [--seed SEED] [--json]\n"
    "                     [--max-count MAX_COUNT]\n"
)
ARGPARSE_ERROR_ROWS = [
    ([], 2, TOP_USAGE + "taquin: error: the following arguments are required: command\n"),
    (["bogus"], 2, TOP_USAGE + "taquin: error: argument command: invalid choice: 'bogus' "
     "(choose from 'construct', 'promote', 'invert', 'verify', 'csp')\n"),
    (["construct", "--m", "4", "--w", "213", "extra"], 2, TOP_USAGE + "taquin: error: unrecognized arguments: extra\n"),
    (["construct", "--m", "4", "--w", "213", "--bogus"], 2, TOP_USAGE + "taquin: error: unrecognized arguments: --bogus\n"),
    (["construct", "--m", "x", "--w", "12"], 2, CONSTRUCT_USAGE + "taquin construct: error: argument --m: invalid int value: 'x'\n"),
    (["construct", "--w", "21"], 2, CONSTRUCT_USAGE + "taquin construct: error: the following arguments are required: --m\n"),
    (["verify", "--n", "2", "--m", "3", "--suite", "nope"], 2, VERIFY_USAGE + "taquin verify: error: argument --suite: "
     "invalid choice: 'nope' (choose from 'bijection', 'independence', 'csp', 'haiman', 'propositions', 'all')\n"),
]


@pytest.mark.parametrize(
    "argv, code, stderr", ARGPARSE_ERROR_ROWS, ids=[" ".join(row[0]) or "no-command" for row in ARGPARSE_ERROR_ROWS]
)
def test_argparse_errors_are_pinned(argv, code, stderr, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    assert capsys.readouterr() == ("", stderr)


# main must give each argv here the exit code, stdout and stderr that the
# parser of all five commands and the command give, although it parses a
# named command with that command's parser and hands only leftovers on.
DIFFERENTIAL_ARGV = [
    ["construct", "--m", "4", "--w", "213", "--", "--n", "3"],
    ["construct", "--", "--m", "4", "--w", "213"],
    ["invert", "--"],
    ["construct", "--m", "4", "--w", "213", "--for", "grid"],
    ["csp", "--n", "2", "--m", "3", "--max-c", "5"],
    ["construct", "--m=4", "--w", "213"],
    ["construct", "--m", "4", "--w", "213", "--m", "5", "--format", "grid"],
    ["promote", "--steps", "-1", "--steps", "2"],
    ["verify", "-h", "extra", "--bogus"],
    ["construct", "--bogus", "--help"],
    ["construct", "--m", "4", "--w"],
    ["promote", "--steps"],
    ["construct", "--m", "4", "--w", "213", "--nope"],
    ["construct", "--m", "4", "--w", "213", "construct"],
    ["promote", "--steps", "2", "--nope", "1"],
    ["invert", "--tableau", "-", "--nope"],
    ["verify", "--n", "2", "--m", "3", "--nope"],
    ["csp", "--n", "2", "--m", "3", "--nope"],
]


def _via_full_parser(argv) -> int:
    """The exit code of the parser of all five commands, then the command."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return COMMANDS[args.command].run(args)


@pytest.mark.parametrize("argv", DIFFERENTIAL_ARGV, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    stdin = dumps(minimal_orbit_tableau(parse_permutation("213"), Rectangle(3, 4)))
    outcomes = []
    for run in (main, _via_full_parser):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        outcomes.append((run(argv), *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_help_matches_the_full_parser(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: taquin {command} [-h]") and err == ""
    # the one cap of verify also bounds the choice tableaux of --all-choices
    assert ("choice tableaux the --all-choices walk may cover" in " ".join(out.split())) == (command == "verify")
    # main built this command's parser alone; the parser of all five prints the same
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0 and capsys.readouterr() == (out, "")


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(TOP_USAGE)
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ") and not line[4].isspace()]
    assert listed == ["construct", "promote", "invert", "verify", "csp"]


def test_main_builds_only_the_named_command(monkeypatch):
    built, parsers = [], []
    add_parser = argparse._SubParsersAction.add_parser
    init = argparse.ArgumentParser.__init__

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["construct", "--n", "2", "--m", "2", "--w", "21"]) == 0
    assert (built, parsers) == ([], ["taquin construct"])
    # help and errors at the top level, and leftover arguments, build all five
    for argv in ([], ["bogus"], ["--help"], ["-h", "construct"], ["--bogus", "construct"], ["invert", "--bogus"]):
        built.clear()
        main(argv)
        assert built == list(COMMANDS), argv


def test_main_reads_sys_argv(monkeypatch, capsys):
    assert main(["construct", "--n", "4", "--m", "5", "--w", "3142"]) == 0
    tw = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["taquin", "invert"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(tw))
    assert main() == 0
    assert capsys.readouterr() == ("3142\n", "")


# A fresh interpreter without `site` (whose start-up may import `typing`)
# runs the pipe in-process through main, then verify, and prints after each
# the taquin modules in sys.modules, those whose code has run, and which of
# `dataclasses`, `inspect` and `typing` have run (the audit hook sees each
# module body that `exec` runs).
LOADED_MODULES_SCRIPT = """
import contextlib, io, sys
from pathlib import Path

ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", "")))
import taquin.cli

def run(argv, text=""):
    sys.stdin, out = io.StringIO(text), io.StringIO()
    with contextlib.redirect_stdout(out):
        assert taquin.cli.main(argv) == 0, argv
    return out.getvalue()

def loaded():
    modules = sorted(key for key in sys.modules if key.partition(".")[0] == "taquin")
    taquin = sorted(Path(f).stem for f in ran if Path(f).parent.name == "taquin")
    stdlib = sorted({"dataclasses", "inspect", "typing"} & {Path(f).stem for f in ran if Path(f).parent.name != "taquin"})
    return " | ".join((" ".join(modules), " ".join(taquin), " ".join(stdlib)))

t = run(["construct", "--m", "10", "--w", "351624"])
assert run(["invert"], run(["promote", "--steps", "3"], t)) == "624351\\n"
print(loaded())
run(["verify", "--n", "2", "--m", "2", "--suite", "csp"])
print(loaded())
"""


def test_the_pipe_runs_no_sweep_counts_or_checks():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_MODULES_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    everything = (
        "taquin taquin.cli taquin.orbits taquin.sequences taquin.shapes taquin.sieving taquin.sweep taquin.tableaux"
        " taquin.verify taquin.words"
    )
    # the check layers sit in sys.modules from `import taquin` on, but only
    # verify and csp run them, and only they run dataclasses and typing
    assert proc.stdout.splitlines() == [
        f"{everything} | __init__ cli orbits shapes tableaux words | ",
        f"{everything} | __init__ cli orbits sequences shapes sieving sweep tableaux verify words | dataclasses inspect typing",
    ]
