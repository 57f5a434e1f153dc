"""Tests of the benchmark itself: exact counters, the correctness gate and
the result contract.

    python3 -m unittest discover -s bench

The sweep counter test runs one full 4x5 orbit sweep (about ten seconds).
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import reference
import run
import spans
from workloads import WORKLOADS, PipeOp, Workload, invoke, rectangle_syt_count

sys.path.insert(0, str(run.SRC))
COUNT_STATS = ("calls", "inits", "syt", "orbits", "explored", "slides")


def traced_counts(workload, ops):
    cli = run.load_cli()
    tally = run.Tally()
    tracer, _ = run.traced_pass(cli, workload, ops, tally)
    table = spans.layer_table(tracer, len(ops), workload.layer_metrics)
    counts = {k: v["value"] for k, v in table.items() if k.rpartition(".")[2] in COUNT_STATS}
    return counts, tally


class CounterTest(unittest.TestCase):
    def test_sweep_counters_are_exact(self):
        # the full 4x5 orbit sweep behind csp, which is not a benchmark workload
        def run_op(call, argv):
            code, out, err = call(argv)
            return None if code == 0 and "MISMATCH" not in out else f"csp exited {code}: {out}{err}"

        argv = ["csp", "--n", "4", "--m", "5", "--max-count", "2000000"]
        metrics = ("verify.orbit_table.calls", "verify.orbit_table.syt", "verify.orbit_table.orbits")
        sweep = Workload("sweep", "csp 4x5", lambda seed: [argv], run_op, 1, metrics)
        counts, tally = traced_counts(sweep, [argv])
        self.assertEqual(tally.failed, 0, tally.first_failure)
        self.assertEqual(counts["verify.orbit_table.calls"], 1)
        self.assertEqual(counts["verify.orbit_table.syt"], rectangle_syt_count(4, 5))
        self.assertEqual(counts["verify.orbit_table.syt"], 1_662_804)
        self.assertEqual(counts["verify.orbit_table.orbits"], 83_256)

    def test_verify_counters_are_exact_and_repeat(self):
        verify = WORKLOADS["verify"]
        ops = verify.make_ops(7)[:1]
        first, tally = traced_counts(verify, ops)
        second, _ = traced_counts(verify, ops)
        self.assertEqual(tally.failed, 0, tally.first_failure)
        self.assertEqual(first, second)
        self.assertEqual(first["verify.orbit_table.calls"], 3)
        self.assertEqual(first["verify.orbit_table.syt"], rectangle_syt_count(3, 6))
        self.assertEqual(first["verify.orbit_table.syt"], 87_516)

    def test_pipe_counters_are_exact_and_repeat(self):
        pipe = WORKLOADS["pipe"]
        ops = pipe.make_ops(3)[:40]
        first, tally = traced_counts(pipe, ops)
        second, _ = traced_counts(pipe, ops)
        self.assertEqual(tally.failed, 0, tally.first_failure)
        self.assertEqual(first, second)
        self.assertEqual(first["orbits.minimal_orbit_tableau.calls"], 2)
        # 6x10 staircase: |lambda_minus| = 15 and |complement of lambda_plus| = 39
        self.assertEqual(first["orbits.slides"], 2 * (15 + 39))
        self.assertEqual(first["tableaux.promotion.calls"], sum(op.steps for op in ops) / len(ops))

    def test_reference_kernel_counts_orbits_like_taquin(self):
        from taquin.shapes import Rectangle
        from taquin.verify import orbit_table

        run.load_cli()
        table = orbit_table(Rectangle(reference.NROWS, reference.NCOLS))
        self.assertEqual(len(reference.syt_flats(reference.NROWS, reference.NCOLS)), table.total)
        self.assertEqual(reference.count_orbits(), len(table.orbits))
        self.assertEqual(reference.ORBITS, len(table.orbits))

    def test_tracing_is_undone(self):
        cli = run.load_cli()
        before = dict(vars(sys.modules["taquin.cli"]))
        init = sys.modules["taquin.tableaux"].PartialTableau.__init__
        run.traced_pass(cli, WORKLOADS["pipe"], WORKLOADS["pipe"].make_ops(0)[:2], run.Tally())
        self.assertEqual(dict(vars(sys.modules["taquin.cli"])), before)
        self.assertIs(sys.modules["taquin.tableaux"].PartialTableau.__init__, init)


def not_minimal_tableau() -> str:
    """The row-by-row filling of 6x10; its diagonal residues collide."""
    return json.dumps({"outer": [10] * 6, "rows": [list(range(10 * r + 1, 10 * r + 11)) for r in range(6)]})


class GateTest(unittest.TestCase):
    def setUp(self):
        self.pipe = WORKLOADS["pipe"]
        self.call = functools.partial(invoke, run.load_cli().main)
        self.good = self.pipe.make_ops(5)[0]

    def assert_every_bad_op_failed(self, ops, call):
        tally = run.Tally()
        latencies, _ = run.closed_loop(self.pipe, call, ops, 0.3, tally)
        bad = sum(1 for i in range(len(latencies)) if ops[i % len(ops)] is ops[0])
        self.assertGreaterEqual(tally.attempted, 2)
        self.assertEqual(tally.attempted, len(latencies))
        self.assertEqual(tally.failed, bad)
        return tally

    def test_wrong_expected_permutation_fails(self):
        wrong = PipeOp(self.good.w, self.good.steps, self.good.w[::-1])
        self.assertNotEqual(wrong.expected, self.good.expected)
        tally = self.assert_every_bad_op_failed([wrong, self.good], self.call)
        self.assertIn("expected", tally.first_failure)

    def test_tableau_outside_minimal_orbits_fails(self):
        tampered, good = self.pipe.make_ops(5)[1:3]
        self.assertNotEqual(tampered.w, good.w)
        constructed = []

        def call(argv, stdin=""):
            # feed invert a non-minimal tableau whenever the op is `tampered`
            if argv[0] == "construct":
                constructed[:] = [argv[-1]]
            if argv[0] == "invert" and constructed == [tampered.w]:
                stdin = not_minimal_tableau()
            return self.call(argv, stdin)

        tally = self.assert_every_bad_op_failed([tampered, good], call)
        self.assertIn("invert exited 5", tally.first_failure)


class ContractTest(unittest.TestCase):
    def bench_command(self, cwd, *args):
        return subprocess.run(
            [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
        )

    def test_result_line_and_benchmark_json_agree(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        per_layer = [f"{w.name}.{m}" for w in WORKLOADS.values() for m in (*w.layer_metrics, "trace.overhead_pct")]
        self.assertEqual([m["name"] for m in spec["per_layer"]], per_layer)
        done = self.bench_command(run.ROOT, "--workload", "pipe", "--seed", "1", "--seconds", "0.5", "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec["end_to_end"]])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            (Path(tmp) / "bench").mkdir()
            for path in Path(run.__file__).parent.glob("*.py"):
                shutil.copy(path, Path(tmp) / "bench")
            done = self.bench_command(tmp, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
