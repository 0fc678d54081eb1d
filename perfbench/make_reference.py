"""Writes reference/<workload>.json from one seed-0 run of the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a memwave checkout.  The references pin the outputs of
the code at the commit that added them; regenerate one only in a change that
adds or alters that workload, never in a change that claims a speed-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def reference(bench: run.Bench, out) -> dict:
    import numpy as np
    from check import SNAPSHOT_STRIDE, TRACE_STRIDE, load_snapshots, load_trace

    if bench.workload.command == "sweep":
        blob = (out / "region.csv").read_bytes()
        return {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    trace = load_trace(out / "trace.csv")
    rows = np.unique(np.r_[np.arange(0, len(trace["t"]), TRACE_STRIDE), len(trace["t"]) - 1])
    verdict = json.loads((out / "verdict.json").read_text())
    return {
        "verdict": {k: verdict[k] for k in ("blew_up", "trigger", "t_stop")},
        "trace": {name: col[rows].tolist() for name, col in trace.items()},
        "snapshots": [
            {"n": n, "dr": dr, "t": t, "cells": fields[0].size,
             "fields": [f[::SNAPSHOT_STRIDE].tolist() for f in fields]}
            for n, dr, t, fields in load_snapshots(out)
        ],
    }


def main(names) -> int:
    from check import REFERENCE_DIR, check

    os.environ.update({v: str(run.BLAS_THREADS) for v in run.BLAS_VARS})
    sys.path.insert(0, str(run.SRC))
    with run.scratch_dir(f"reference-{os.getpid()}") as tmp:
        for name in names or WORKLOADS:
            bench = run.Bench(WORKLOADS[name], DEFAULT_SEED, tmp)
            out = tmp / name
            cli = [bench.workload.command, "--config", str(bench.config_path), "--out", str(out)]
            code, wall, _ = bench.spawn([sys.executable, "-m", "memwave.cli", *cli], tmp / "log")
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(reference(bench, out), indent=1) + "\n")
            problems = check(name, bench.config, out, code, seed_is_default=True)
            print(f"{name}: {wall:.2f} s, wrote {path.name}; check: {problems or 'ok'}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
