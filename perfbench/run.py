"""memwave benchmark: runs the memwave CLI as a user does and times it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a memwave checkout; the program is imported from its
``src/``.  Every operation is a fresh interpreter, one at a time, with BLAS
limited to BLAS_THREADS threads; all files go to ``.perfbench_tmp/`` in the
checkout, which is removed at the end.

--trace 0 measures the end-to-end metrics:
    setup_s      median over SETUP_REPEATS fresh interpreters of
                 ``import memwave.cli`` + load_config + validate_config
    wall_s       median wall time of one CLI invocation, start to exit
    peak_rss_mb  median peak resident set of the CLI process (os.wait4)
    ok_frac      share of operations that exited 0 and passed the output check
CLI invocations repeat until --seconds have passed (at least MIN_INVOCATIONS).

--trace 1 repeats pairs of one untraced invocation and one traced in-process
run (probe.py) until --seconds have passed, and reports the median of each
per-layer metric over the pairs (see tracing.py and NOTES.md).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Every invocation's outputs are checked (check.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 150.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Bench:
    """One benchmark run: its workload, config, scratch directory and tally."""

    def __init__(self, workload, seed: int, tmp: Path):
        from workloads import DEFAULT_SEED, make_config

        self.workload = workload
        self.seed_is_default = seed == DEFAULT_SEED
        self.config = make_config(workload, seed)
        self.tmp = tmp
        self.config_path = tmp / "config.yaml"
        self.config_path.write_text(yaml.safe_dump(self.config, sort_keys=False))
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp),
                        **{v: str(BLAS_THREADS) for v in BLAS_VARS})
        self.attempted = 0
        self.failed = 0
        self._runs = 0

    def spawn(self, args: list[str], log_path: Path) -> tuple[int, float, float]:
        """Run one child to exit; returns (exit code, wall s, peak RSS MB)."""
        with open(log_path, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.tmp)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def _tally(self, what: str, problems: list[str], log_path: Path) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"{self.workload.name} {what} FAILED: " + "; ".join(problems[:5]))
            tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
            for line in tail:
                log(f"  | {line}")
        return not problems

    def setup(self) -> float | None:
        log_path = self.tmp / "setup.log"
        code, _, _ = self.spawn(
            [sys.executable, str(HERE / "probe.py"), "setup", str(self.config_path)], log_path)
        try:
            value = json.loads(log_path.read_text().strip().splitlines()[-1])["setup_s"]
        except (ValueError, KeyError, IndexError):
            value = None
        problems = [f"exit code {code}"] if code else ([] if value else ["no setup time"])
        return value if self._tally("setup", problems, log_path) else None

    def invoke(self, traced: bool) -> tuple[float, float, dict | None] | None:
        """One CLI invocation, checked; returns (wall s, peak RSS MB, trace
        data or None), or None when it failed."""
        from check import check

        self._runs += 1
        out = self.tmp / f"out{self._runs}"
        log_path = self.tmp / f"run{self._runs}.log"
        spans_path = self.tmp / f"spans{self._runs}.json"
        cli = [self.workload.command, "--config", str(self.config_path), "--out", str(out)]
        if traced:
            args = [sys.executable, str(HERE / "probe.py"), "trace", str(spans_path), *cli]
        else:
            args = [sys.executable, "-m", "memwave.cli", *cli]
        code, wall, rss = self.spawn(args, log_path)
        problems = check(self.workload.name, self.config, out, code, self.seed_is_default)
        data = None
        if traced and not problems:
            data = json.loads(spans_path.read_text())
        shutil.rmtree(out, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        what = "traced run" if traced else "invocation"
        log(f"{self.workload.name} {what} {self._runs}: wall {wall:.3f} s, rss {rss:.1f} MB")
        return (wall, rss, data) if self._tally(what, problems, log_path) else None


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under .perfbench_tmp/ in the checkout, removed with
    .perfbench_tmp/ itself once no other run uses it."""
    tmp = ROOT / ".perfbench_tmp" / name
    tmp.mkdir(parents=True)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


def repeat(op, seconds: float, minimum: int) -> list:
    """Run op until another run would end after `seconds` (at least
    `minimum` runs); returns the results that were not None."""
    results, durations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        result = op()
        durations.append(perf_counter() - t0)
        if result is not None:
            results.append(result)
        elapsed = perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return results


def measure(bench: Bench, seconds: float) -> dict:
    setups = [v for v in (bench.setup() for _ in range(SETUP_REPEATS)) if v is not None]
    runs = repeat(lambda: bench.invoke(traced=False), seconds, MIN_INVOCATIONS)
    if not setups or not runs:
        raise SystemExit("perfbench: no operation succeeded; nothing to report")
    return {
        "wall_s": (statistics.median(r[0] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r[1] for r in runs), "MB"),
        "ok_frac": (1.0 - bench.failed / bench.attempted, "ratio"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict:
    import tracing

    def pair():
        plain = bench.invoke(traced=False)
        traced = bench.invoke(traced=True)
        if plain is None or traced is None:
            return None
        data = traced[2]
        for name in data["missing"]:
            log(f"hook target {name} is missing; its metrics are absent")
        metrics = tracing.layer_metrics(data["spans"], data["counters"], data["installed"])
        metrics["cli.import_s"] = (data["import_s"], "s")
        metrics["trace.wall_s"] = (traced[0], "s")
        metrics["trace.overhead_s"] = (traced[0] - plain[0], "s")
        return metrics

    pairs = repeat(pair, seconds, 1)
    if not pairs:
        raise SystemExit("perfbench: no traced run succeeded; nothing to report")
    metrics = {
        name: (statistics.median(p[name][0] for p in pairs), unit)
        for name, (_, unit) in pairs[0].items()
    }
    ok, claim = bench.workload.layer_claim({k: v for k, (v, _) in metrics.items()})
    log(f"layer check {bench.workload.name}: {'ok' if ok else 'NOT MET'}: {claim}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memwave" / "cli.py").is_file():
        log(f"no memwave sources at {SRC}; run from the root of a memwave checkout")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    os.environ.update({v: str(BLAS_THREADS) for v in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    versions = ", ".join(f"{p} {metadata.version(p)}" for p in ("numpy", "scipy"))
    log(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, {versions}, "
        f"BLAS threads {BLAS_THREADS}")
    with scratch_dir(str(os.getpid())) as tmp:
        bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
        run = measure_traced if args.trace else measure
        metrics = run(bench, args.seconds)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
