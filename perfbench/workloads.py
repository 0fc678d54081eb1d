"""The benchmark's workloads: seeded memwave configs and what each one loads.

Seed 0 gives the canonical configs, whose outputs are pinned by the files in
``reference/``.  Any other seed perturbs the physical parameters inside the
narrow relative ranges given next to each value; the mesh, the grid sizes and
the time horizon never change, so every seed does the same amount of work to
within about one percent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # memwave subcommand
    why: str
    build: Callable[[Callable[[float, float], float]], dict]
    layer_claim: Callable[[dict], tuple[bool, str]]


def _blowup(j):
    return {
        "problem": {"n": 1, "p": 2.0, "q": 2.0},
        "kernels": {
            "g1": {"family": "riemann_liouville", "gamma": j(0.5, 0.02)},
            "g2": {"family": "exponential", "beta": j(1.0, 0.02)},
        },
        "initial": {
            "u0": {"kind": "gaussian", "amplitude": j(10.0, 0.01), "radius": 1.0},
            "u1": {"kind": "zero"},
        },
        "simulation": {
            "t_max": 6.0,
            "dr": 0.0025,
            "mode": "coupled",
            "snapshot_times": [1.0, 2.0, 3.0, 4.0],
        },
    }


def _generic_kernels(j):
    return {
        "problem": {"n": 1, "p": 2.0, "q": 2.0},
        "kernels": {
            "g1": {"family": "oscillating_polynomial", "gamma": j(0.3, 0.03)},
            "g2": {"family": "iterated_exponential", "depth": 2, "c": j(1.0, 0.02)},
        },
        "initial": {
            "u0": {"kind": "gaussian", "amplitude": j(1.0, 0.05), "radius": 1.0},
            "u1": {"kind": "zero"},
        },
        "simulation": {"t_max": 2.0, "dr": 0.01, "mode": "coupled"},
    }


def _linear_2d(j):
    return {
        "problem": {"n": 2, "p": 2.0, "q": 2.0},
        "kernels": {
            "g1": {"family": "riemann_liouville", "gamma": 0.5},
            "g2": {"family": "exponential", "beta": 1.0},
        },
        "initial": {
            "u0": {"kind": "gaussian", "amplitude": j(1.0, 0.05), "radius": 1.0},
            "u1": {"kind": "zero"},
        },
        "simulation": {"t_max": 4.0, "dr": 0.0025, "mode": "coupled", "linear": True},
    }


def _sweep(j):
    return {
        "problem": {"n": 3, "p": 2.0, "q": 2.0, "gamma1": j(0.5, 0.02), "gamma2": j(0.7, 0.02)},
        "sweep": {
            "p_range": [j(1.1, 0.01), j(4.0, 0.005)],
            "q_range": [j(1.1, 0.01), j(4.0, 0.005)],
            "resolution": 1000,
        },
    }


def _share(m: dict, names, of: str) -> float:
    total = m.get(of, 0.0)
    return sum(m.get(n, 0.0) for n in names) / total if total > 0.0 else 0.0


def _claim_blowup(m):
    inner = ("solver.weights_s", "solver.initial_state_s", "solver.run_simulation_s",
             "observables.functionals_s", "kernels.antiderivative_s",
             "kernels.second_antiderivative_s")
    largest = max(inner, key=lambda n: m.get(n, 0.0))
    ok = m.get("solver.step_s", 0.0) > m.get(largest, 0.0)
    return ok, f"solver.step_s is the largest self time in run_simulation (next: {largest})"


def _claim_generic(m):
    share = _share(m, ("kernels.antiderivative_s", "kernels.second_antiderivative_s",
                       "solver.weights_s"), "solver.run_simulation_total_s")
    return share > 0.5, f"kernels + weights take {share:.0%} of run_simulation (> 50%)"


def _claim_linear(m):
    ok = (m.get("solver.weights_calls") == 0
          and m.get("observables.functionals_s", 0.0) > m.get("solver.step_s", 0.0))
    return ok, "no weights calls and functionals_s > step_s"


def _claim_sweep(m):
    io = _share(m, ("cli.write_csv_s", "exponents.rows_s"), "trace.wall_s")
    region = _share(m, ("exponents.region_s",), "trace.wall_s")
    return io > 0.5 and region < 0.05, (
        f"write_csv + rows take {io:.0%} of the traced wall (> 50%), region {region:.1%} (< 5%)"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-blowup", "simulate",
            "a genuine blow-up verdict; the history matvec in solver.step dominates",
            _blowup, _claim_blowup,
        ),
        Workload(
            "simulate-generic-kernels", "simulate",
            "kernels without closed forms; nested-quadrature antiderivatives dominate",
            _generic_kernels, _claim_generic,
        ),
        Workload(
            "simulate-linear-2d", "simulate",
            "free 2-d waves: no weights, no convolution; functionals and stencil dominate",
            _linear_2d, _claim_linear,
        ),
        Workload(
            "sweep-region", "sweep",
            "a 1000x1000 (p, q) region map; per-cell CSV output dominates, no solver code runs",
            _sweep, _claim_sweep,
        ),
    )
}


def make_config(workload: Workload, seed: int) -> dict:
    """The config for a seed; seed 0 is canonical, others jitter each value
    by a uniform relative amount of at most the stated width."""
    if seed == DEFAULT_SEED:
        return workload.build(lambda value, width: value)
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.build(lambda value, width: round(value * (1.0 + rng.uniform(-width, width)), 9))
