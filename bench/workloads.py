"""The benchmark's workloads: seeded inputs, one operation each, and the
check that decides whether an operation passed.

Every operation calls the public CLI entry `taquin.cli.main` in-process
with generated argv and stdin and captures its stdout, so interpreter
start-up is paid once per run and not once per operation.  The program
sees only the generated inputs; the pipe's expected answers are computed
here, apart from the package, from the action of the promotion cycle on
one-line notation.

There is no workload for the full 4x5 orbit sweep (`csp --n 4 --m 5`).
It is memory-bound (250 MB peak), and on a shared 2-core VM whole runs
of it moved by up to 50% (8.8 s to 13.7 s per sweep), so the interquartile
spread of its timings over ten seeded runs reached 0.25, the largest bound
a timing may have.  Its exact counters are checked in test_bench.py.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable

# One call of the CLI: (argv, stdin text) -> (exit code, stdout, stderr).
Call = Callable[..., tuple]


def invoke(main, argv, stdin=""):
    """Run `main(argv)` with `stdin` as standard input; capture both outputs."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def rectangle_syt_count(nrows: int, ncols: int) -> int:
    """Hook length formula for the nrows x ncols rectangle."""
    return factorial(nrows * ncols) // prod(i + j + 1 for i in range(nrows) for j in range(ncols))


def _failed(step: str, code: int, err: str) -> str:
    return f"{step} exited {code}: {err.strip()[:200]}"


# -- verify: the user's end-to-end check at 3x6 ---------------------------

VERIFY_N, VERIFY_M = 3, 6
VERIFY_OPS = 64


def verify_ops(seed: int) -> list:
    rng = random.Random(seed)
    return [
        ("verify", "--n", str(VERIFY_N), "--m", str(VERIFY_M), "--suite", "all",
         "--all-diagonals", "--json", "--seed", str(rng.randrange(2**31)))
        for _ in range(VERIFY_OPS)
    ]


def verify_op(call: Call, argv) -> str | None:
    """Pass only if verify exits 0 and every case of its JSON report passes."""
    code, out, err = call(list(argv))
    if code != 0:
        return _failed("verify", code, err)
    cases = json.loads(out.splitlines()[-1])["cases"]
    if not cases:
        return "verify reported no cases"
    bad = [c["name"] for c in cases if c["status"] != "pass"]
    return f"cases not passing: {bad}" if bad else None


# -- pipe: construct | promote | invert at 6x10 ---------------------------

PIPE_N, PIPE_M = 6, 10
PIPE_EPOCHS = 16  # shuffles of S_6 in the stream; a run cycles past the end


@dataclass(frozen=True)
class PipeOp:
    w: str
    steps: int
    expected: str  # c^steps o w, with c = promotion_cycle(n)


def rotate_residues(w, k: int) -> tuple:
    """c^k o w for the n-cycle c sending 1 to n and j to j-1: one promotion
    step subtracts 1 mod n from every one-line value."""
    n = len(w)
    return tuple((v - 1 - k) % n + 1 for v in w)


def _word(w) -> str:
    return "".join(str(v) for v in w)


def pipe_ops(seed: int) -> list:
    rng = random.Random(seed)
    perms = list(itertools.permutations(range(1, PIPE_N + 1)))
    ops = []
    for _ in range(PIPE_EPOCHS):
        rng.shuffle(perms)
        for w in perms:
            k = rng.randrange(PIPE_N)
            ops.append(PipeOp(_word(w), k, _word(rotate_residues(w, k))))
    return ops


def pipe_op(call: Call, op: PipeOp) -> str | None:
    """Pass only if construct, promote and invert all exit 0 and invert
    prints c^k o w."""
    code, tableau, err = call(["construct", "--m", str(PIPE_M), "--w", op.w])
    if code != 0:
        return _failed("construct", code, err)
    code, tableau, err = call(["promote", "--steps", str(op.steps)], tableau)
    if code != 0:
        return _failed("promote", code, err)
    code, out, err = call(["invert"], tableau)
    if code != 0:
        return _failed("invert", code, err)
    if out.strip() != op.expected:
        return f"invert printed {out.strip()}, expected {op.expected} for w={op.w}, k={op.steps}"
    return None


# -- the workload table ----------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    make_ops: Callable[[int], list]
    run_op: Callable[[Call, object], str | None]
    trace_ops: int  # operations in the traced pass, fixed so counters repeat
    layer_metrics: tuple[str, ...]  # per-layer metrics read on this workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            f"verify {VERIFY_N}x{VERIFY_M} --suite all --all-diagonals, "
            f"{rectangle_syt_count(VERIFY_N, VERIFY_M)} SYT, one op per suite run",
            verify_ops,
            verify_op,
            2,
            (
                "cli.verify.self_ms",
                "orbits.minimal_orbit_tableau.calls",
                "orbits.minimal_orbit_tableau.p50_ms",
                "orbits.invert.self_ms",
                "orbits.forward_tableau.self_s",
                "orbits.reverse_tableau.self_s",
                "orbits.box_sequence.self_s",
                "orbits.slides",
                "tableaux.PartialTableau.inits",
                "tableaux.promotion.calls",
                "tableaux.promotion.p50_ms",
                "verify.orbit_table.calls",
                "verify.orbit_table.self_s",
                "verify.orbit_table.syt",
                "verify.orbit_table.orbits",
                "verify.q_hook_at_root.self_ms",
                "verify.run_suite.bijection.self_s",
                "verify.run_suite.independence.self_s",
                "verify.run_suite.csp.self_s",
                "verify.run_suite.haiman.self_s",
                "verify.run_suite.propositions.self_s",
                "words.bounded_equivalence.calls",
                "words.bounded_equivalence.explored",
                "words.bounded_equivalence.self_s",
                "words.insertion_tableau.calls",
                "words.insertion_tableau.self_s",
                "shapes.staircase_diagonal.calls",
                "shapes.staircase_diagonal.self_ms",
                "shapes.enumerate_diagonals.self_ms",
            ),
        ),
        Workload(
            "pipe",
            f"construct {PIPE_N}x{PIPE_M} | promote --steps k | invert, "
            f"w from seeded shuffles of S_{PIPE_N}, k in 0..{PIPE_N - 1}",
            pipe_ops,
            pipe_op,
            300,
            (
                "cli.construct.self_ms",
                "cli.promote.self_ms",
                "cli.invert.self_ms",
                "orbits.minimal_orbit_tableau.calls",
                "orbits.minimal_orbit_tableau.p50_ms",
                "orbits.invert.self_ms",
                "orbits.forward_tableau.self_s",
                "orbits.reverse_tableau.self_s",
                "orbits.slides",
                "tableaux.PartialTableau.inits",
                "tableaux.promotion.calls",
                "tableaux.promotion.p50_ms",
                "tableaux.loads.p50_ms",
                "tableaux.dumps.p50_ms",
                "shapes.staircase_diagonal.calls",
                "shapes.staircase_diagonal.self_ms",
            ),
        ),
    )
}
