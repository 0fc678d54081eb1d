"""Self-test of the benchmark harness (not of memwave).

    python3 perfbench/selftest.py

Run from the root of a memwave checkout; takes about half a minute, most of
it two real CLI runs whose outputs are then corrupted on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
import unittest
from time import sleep

import run
import tracing
from check import check
from workloads import DEFAULT_SEED, WORKLOADS, make_config

os.environ.update({v: str(run.BLAS_THREADS) for v in run.BLAS_VARS})
sys.path.insert(0, str(run.SRC))


def cli_run(bench: run.Bench, name: str):
    out = bench.tmp / name
    cli = [bench.workload.command, "--config", str(bench.config_path), "--out", str(out)]
    code, _, _ = bench.spawn([sys.executable, "-m", "memwave.cli", *cli], bench.tmp / "log")
    return out, code


class CorruptedOutputsFail(unittest.TestCase):
    def setUp(self):
        self._dir = run.scratch_dir(f"selftest-{os.getpid()}")
        self.tmp = self._dir.__enter__()

    def tearDown(self):
        self._dir.__exit__(None, None, None)

    def test_trace_csv(self):
        name = "simulate-generic-kernels"
        bench = run.Bench(WORKLOADS[name], DEFAULT_SEED, self.tmp)
        out, code = cli_run(bench, "out")
        self.assertEqual(check(name, bench.config, out, code, True), [])
        trace = out / "trace.csv"
        lines = trace.read_text().splitlines(keepends=True)
        row = lines[101].split(",")
        row[1] = repr(float(row[1]) * (1.0 + 1e-6))  # column U, well inside the run
        lines[101] = ",".join(row)
        trace.write_text("".join(lines))
        problems = check(name, bench.config, out, code, True)
        self.assertTrue(any("column U" in p for p in problems), problems)
        trace.write_text("".join(lines[:50]))  # truncated
        self.assertNotEqual(check(name, bench.config, out, code, True), [])
        self.assertEqual(check(name, bench.config, out, 3, True), ["exit code 3"])

    def test_region_csv_one_byte(self):
        name = "sweep-region"
        bench = run.Bench(WORKLOADS[name], DEFAULT_SEED, self.tmp)
        out, code = cli_run(bench, "out")
        self.assertEqual(check(name, bench.config, out, code, True), [])
        region = out / "region.csv"
        blob = bytearray(region.read_bytes())
        # the last digit of a margin: invisible to the invariants, not to the digest
        pos = blob.index(b"\n", len(blob) // 2) - 1
        blob[pos] = ord("1") if blob[pos] != ord("1") else ord("2")
        region.write_bytes(bytes(blob))
        self.assertEqual(check(name, bench.config, out, code, True),
                         ["region.csv differs from the reference digest"])

    def test_region_invariants(self):
        name = "sweep-region"
        bench = run.Bench(WORKLOADS[name], 5, self.tmp)
        bench.config["sweep"]["resolution"] = 40
        bench.config_path.write_text(run.yaml.safe_dump(bench.config))
        out, code = cli_run(bench, "out")
        self.assertEqual(check(name, bench.config, out, code, False), [])
        region = out / "region.csv"
        lines = region.read_text().splitlines(keepends=True)
        p, q, branch, satisfied, margin = lines[700].rstrip("\n").split(",")
        bad = ",".join((p, q, branch, satisfied, repr(float(margin) + 1e-3))) + "\n"
        region.write_text("".join(lines[:700] + [bad] + lines[701:]))
        problems = check(name, bench.config, out, code, False)
        self.assertTrue(any("margin" in p for p in problems), problems)
        region.write_text("".join(lines[:-1]))
        self.assertEqual(check(name, bench.config, out, code, False),
                         ["region.csv has 1599 rows, expected 1600"])


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # weights [0, 10] holds second_antiderivative [1, 6], which holds two
        # re-entrant antiderivative calls, then one direct antiderivative call
        spans = [
            ["solver.weights", 0.0, 10.0, -1, 10.0],
            ["kernels.second_antiderivative", 1.0, 6.0, 0, 5.0],
            ["kernels.antiderivative", 2.0, 3.0, 1, 1.0],
            ["kernels.antiderivative", 4.0, 5.5, 1, 1.5],
            ["kernels.antiderivative", 7.0, 8.0, 0, 1.0],
            # a generator resumed twice for 0.25 each across [8.5, 9.5]
            ["exponents.rows", 8.5, 9.5, 0, 0.5],
        ]
        table = tracing.summarize(spans)
        self.assertEqual(table["solver.weights"], (1, 10.0, 3.5))
        self.assertEqual(table["kernels.second_antiderivative"], (1, 5.0, 2.5))
        self.assertEqual(table["kernels.antiderivative"], (3, 3.5, 3.5))
        self.assertEqual(table["exponents.rows"], (1, 0.5, 0.5))

    def test_tracer_nesting(self):
        class Kernel:
            def antiderivative(self, t):
                sleep(0.01)
                return t

            def second_antiderivative(self, t):
                return sum(self.antiderivative(s) for s in (t, t))

        def rows(n):
            for i in range(n):
                sleep(0.005)
                yield i

        def consume(n):
            out = []
            for row in mod.rows(n):
                sleep(0.02)  # consumer work between items, not charged to rows
                out.append(row)
            return out

        mod = types.SimpleNamespace(rows=rows, consume=consume, Kernel=Kernel)
        sys.modules["perfbench_fake"] = mod
        try:
            tracer = tracing.Tracer()
            tracer.install("perfbench_fake", "Kernel.antiderivative", "kernels.antiderivative")
            tracer.install("perfbench_fake", "Kernel.second_antiderivative",
                           "kernels.second_antiderivative")
            tracer.install("perfbench_fake", "rows", "exponents.rows")
            tracer.install("perfbench_fake", "consume", "cli.write_csv")
            Kernel().second_antiderivative(1.0)
            Kernel().antiderivative(1.0)
            mod.consume(4)
        finally:
            del sys.modules["perfbench_fake"]
        table = tracing.summarize(tracer.spans)
        calls, total, own = table["kernels.second_antiderivative"]
        anti = table["kernels.antiderivative"]
        self.assertEqual((calls, anti[0]), (1, 3))
        self.assertLess(own, 0.005)  # both nested antiderivative calls excluded
        self.assertAlmostEqual(anti[2], anti[1])
        rows_calls, rows_busy, _ = table["exponents.rows"]
        self.assertEqual(rows_calls, 1)
        self.assertLess(rows_busy, 0.05)  # 4 x 5 ms, not the 4 x 20 ms between items
        writer = table["cli.write_csv"]
        self.assertAlmostEqual(writer[2], writer[1] - rows_busy)
        parents = {s[0]: s[3] for s in tracer.spans}
        self.assertEqual(tracer.spans[parents["exponents.rows"]][0], "cli.write_csv")


class MissingHook(unittest.TestCase):
    def test_absent_metric(self):
        tracer = tracing.Tracer()
        self.assertFalse(tracer.install("memwave_no_such_module", "step", "solver.step"))
        self.assertFalse(tracer.install("os", "no_such_function", "solver.weights"))
        self.assertFalse(tracer.install("memwave.solver", "HistoryWeights.gone",
                                        "solver.weights"))
        self.assertEqual(len(tracer.missing), 3)
        self.assertTrue(tracer.install("memwave.cli", "detect_blowup",
                                       "observables.detect_blowup"))
        try:
            metrics = tracing.layer_metrics(tracer.spans, tracer.counters, tracer.installed)
        finally:
            import memwave.cli

            memwave.cli.detect_blowup = memwave.cli.detect_blowup.__wrapped__
        self.assertNotIn("solver.step_s", metrics)
        self.assertNotIn("solver.weights_calls", metrics)
        self.assertEqual(metrics["observables.detect_blowup_s"], (0.0, "s"))

    def test_every_hook_resolves_today(self):
        # in a fresh interpreter, so the hooks do not outlive the test
        code = "import tracing; t = tracing.Tracer(); tracing.install_hooks(t); print(t.missing)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=run.HERE, env=dict(os.environ, PYTHONPATH=str(run.SRC)))
        self.assertEqual((proc.returncode, proc.stdout.strip(), proc.stderr), (0, "[]", ""))


class Seeds(unittest.TestCase):
    def test_configs(self):
        for w in WORKLOADS.values():
            self.assertEqual(make_config(w, 3), make_config(w, 3))
            self.assertNotEqual(make_config(w, 3), make_config(w, 4))
            self.assertEqual(make_config(w, DEFAULT_SEED), w.build(lambda v, width: v))


if __name__ == "__main__":
    unittest.main()
