"""Checks of one memwave CLI invocation's artifacts.

Every seed is checked against invariants of its workload:

- simulate-blowup stops on ``maxnorm`` before t_max with a finite trace, and
  writes one finite snapshot per requested time;
- simulate-generic-kernels and simulate-linear-2d reach t_max with a finite
  trace whose maxnorm stays below 10x the initial amplitude;
- sweep-region writes resolution^2 rows on the configured (p, q) grid whose
  margins equal alpha_wm(p, q, gamma1, gamma2) - (n-1)/2, with
  ``satisfied`` = margin > 0.

Seed 0 is also compared with ``reference/<workload>.json``, which holds the
outputs of the code at the commit that added the benchmark:

- region.csv must match its SHA-256 digest byte for byte;
- trace columns must agree within RTOL on the recorded times both runs share
  (every TRACE_STRIDE-th reference row is stored);
- snapshot payloads, decoded with ``memwave.cli.read_snapshot``, must agree
  within RTOL on every SNAPSHOT_STRIDE-th cell;
- verdict.json must keep ``blew_up`` and ``trigger``.

``t_stop`` and the snapshot header time may each move by up to one dt: today
a run can overshoot t_max by dt/2 and snapshots carry the requested rather
than the reached time, and fixing either must not count as a failure.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

RTOL = 1e-8  # far below the O(dr^2) ~ 1e-5 discretization error
TRACE_STRIDE = 10
SNAPSHOT_STRIDE = 20
DEFAULT_CFL = 0.9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TRACE_COLUMNS = ("t", "U", "V", "U0", "V0", "Lp_v", "Lq_u", "maxnorm_u", "maxnorm_v")
REGION_HEADER = b"p,q,branch,satisfied,margin"
SLOW_SLOW = "slow-slow"


def load_trace(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def load_snapshots(out: Path) -> list[tuple]:
    """(n, dr, t, fields) of every snapshot, in header-time order."""
    paths = list(out.glob("snapshot*.bin"))
    if not paths:
        return []
    from memwave.cli import read_snapshot

    return sorted((read_snapshot(p) for p in paths), key=lambda s: s[2])


def _close(got, want, rtol: float = RTOL) -> bool:
    """Elementwise |got - want| <= rtol * max(|want|, 1e-6 * max|want|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    floor = 1e-6 * np.max(np.abs(want), initial=0.0)
    return bool(np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), floor)))


def _index_problems(out: Path, required) -> list[str]:
    problems = []
    try:
        listed = set(json.loads((out / "index.json").read_text())["outputs"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"index.json unreadable: {exc}"]
    for name in sorted(listed | set(required)):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
        elif name not in listed:
            problems.append(f"{name} not listed in index.json")
    return problems


def check(workload: str, config: dict, out: Path, returncode: int, seed_is_default: bool) -> list[str]:
    """Every problem found with one invocation's outputs; empty when it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if workload == "sweep-region":
            return _check_sweep(config, out, seed_is_default)
        return _check_simulate(workload, config, out, seed_is_default)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_simulate(workload: str, config: dict, out: Path, seed_is_default: bool) -> list[str]:
    problems = _index_problems(out, ("trace.csv", "verdict.json", "manifest.json"))
    if problems:
        return problems
    sim = config["simulation"]
    dt = sim.get("cfl", DEFAULT_CFL) * sim["dr"]
    t_max = sim["t_max"]
    slack = dt * (1.0 + 1e-9)
    trace = load_trace(out / "trace.csv")
    verdict = json.loads((out / "verdict.json").read_text())
    snapshots = load_snapshots(out)
    missing = [c for c in TRACE_COLUMNS if c not in trace]
    if missing:
        return [f"trace.csv lacks columns {missing}"]
    t = trace["t"]
    if not all(np.all(np.isfinite(trace[c])) for c in TRACE_COLUMNS):
        problems.append("trace.csv holds non-finite values")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        problems.append("trace times do not start at 0 and increase")
    peak = max(trace["maxnorm_u"][-1], trace["maxnorm_v"][-1])
    if workload == "simulate-blowup":
        if not verdict["blew_up"] or verdict["trigger"] != "maxnorm":
            problems.append(f"no maxnorm blow-up: {verdict['blew_up']}, {verdict['trigger']}")
        if verdict["t_stop"] >= t_max or peak <= 1e6:
            problems.append(f"blow-up not reached before t_max: t_stop {verdict['t_stop']}")
        wanted = sorted(sim["snapshot_times"])
        got = [s[2] for s in snapshots]
        if len(got) != len(wanted) or any(abs(a - b) > slack for a, b in zip(got, wanted)):
            problems.append(f"snapshot times {got}, expected {wanted}")
        for n, _, ts, fields in snapshots:
            if n != config["problem"]["n"] or len(fields) != 2:
                problems.append(f"snapshot at t={ts}: dimension {n}, {len(fields)} fields")
            elif not all(np.all(np.isfinite(f)) for f in fields):
                problems.append(f"snapshot at t={ts} holds non-finite values")
    else:
        amplitude = config["initial"]["u0"]["amplitude"]
        if verdict["blew_up"] or verdict["trigger"] != "reached_tmax":
            problems.append(f"did not reach t_max: {verdict['blew_up']}, {verdict['trigger']}")
        if abs(verdict["t_stop"] - t_max) > slack or abs(t[-1] - t_max) > slack:
            problems.append(f"stopped at {verdict['t_stop']}, expected t_max {t_max}")
        bound = 10.0 * amplitude
        if np.max(trace["maxnorm_u"]) > bound or np.max(trace["maxnorm_v"]) > bound:
            problems.append(f"trace maxnorm exceeds {bound}")
    if seed_is_default and not problems:
        problems += _compare_simulate(workload, trace, verdict, snapshots, slack)
    return problems


def _compare_simulate(workload, trace, verdict, snapshots, slack) -> list[str]:
    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    problems = []
    for key in ("blew_up", "trigger"):
        if verdict[key] != ref["verdict"][key]:
            problems.append(f"verdict {key} {verdict[key]!r}, reference {ref['verdict'][key]!r}")
    if abs(verdict["t_stop"] - ref["verdict"]["t_stop"]) > slack:
        problems.append(f"t_stop {verdict['t_stop']}, reference {ref['verdict']['t_stop']}")
    ref_t = np.asarray(ref["trace"]["t"])
    t = trace["t"]
    pos = np.clip(np.searchsorted(t, ref_t), 1, len(t) - 1)
    nearest = np.where(np.abs(t[pos - 1] - ref_t) <= np.abs(t[pos] - ref_t), pos - 1, pos)
    common = np.abs(t[nearest] - ref_t) <= 1e-6 * slack
    # the reference's final row is its stop row, which may legitimately move
    if not np.all(common[:-1]):
        problems.append(f"{int(np.sum(~common[:-1]))} reference trace times not recorded")
    for name, values in ref["trace"].items():
        if name != "t" and not _close(trace[name][nearest[common]], np.asarray(values)[common]):
            problems.append(f"trace column {name} differs from the reference by more than {RTOL}")
    for snap in ref["snapshots"]:
        match = [s for s in snapshots if abs(s[2] - snap["t"]) <= slack]
        if not match:
            problems.append(f"no snapshot within one dt of t={snap['t']}")
            continue
        n, dr, _, fields = match[0]
        if (n, dr, fields[0].size) != (snap["n"], snap["dr"], snap["cells"]):
            problems.append(f"snapshot at t={snap['t']}: header differs from the reference")
        elif not all(_close(f[::SNAPSHOT_STRIDE], w) for f, w in zip(fields, snap["fields"])):
            problems.append(f"snapshot at t={snap['t']}: payload differs from the reference")
    return problems


def alpha_wm(p, q, gamma1, gamma2):
    """The slow/slow critical-curve quantity, written out independently of
    memwave so the sweep check does not trust the code it checks."""
    pq1 = p * q - 1.0
    first = ((2.0 - gamma2) * p + (3.0 - gamma1) + 1.0 / q) / pq1
    second = ((2.0 - gamma1) * q + (3.0 - gamma2) + 1.0 / p) / pq1
    return np.maximum(first, second)


def _region_blocks(path: Path, digest, rows: int = 100_000):
    """region.csv body in blocks of whole lines; feeds every byte to digest."""
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        if header.rstrip(b"\r\n") != REGION_HEADER:
            raise ValueError(f"region.csv header {header!r}")
        while block := b"".join(itertools.islice(fh, rows)):
            digest.update(block)
            yield block


def _check_sweep(config: dict, out: Path, seed_is_default: bool) -> list[str]:
    problems = _index_problems(out, ("region.csv", "manifest.json"))
    if problems:
        return problems
    prob, sweep = config["problem"], config["sweep"]
    res = sweep["resolution"]
    ps = np.linspace(*sweep["p_range"], res)
    qs = np.linspace(*sweep["q_range"], res)
    threshold = (prob["n"] - 1) / 2.0
    digest = hashlib.sha256()
    done = 0
    for block in _region_blocks(out / "region.csv", digest):
        nums = np.loadtxt(io.BytesIO(block), delimiter=",", usecols=(0, 1, 4), ndmin=2)
        tags = np.loadtxt(io.BytesIO(block), delimiter=",", usecols=(2, 3), dtype=str, ndmin=2)
        idx = np.arange(done, done + len(nums))
        done += len(nums)
        if done > res * res:
            break
        p, q, margin = nums.T
        if not (_close(p, ps[idx // res], 1e-12) and _close(q, qs[idx % res], 1e-12)):
            problems.append(f"rows {idx[0]}..{idx[-1]}: (p, q) off the configured grid")
        want = alpha_wm(p, q, prob["gamma1"], prob["gamma2"]) - threshold
        if not np.all(np.abs(margin - want) <= 1e-12 * np.maximum(np.abs(want), 1.0)):
            problems.append(f"rows {idx[0]}..{idx[-1]}: margin differs from alpha_wm - {threshold}")
        if np.any(tags[:, 0] != SLOW_SLOW) or np.any((tags[:, 1] == "true") != (margin > 0.0)):
            problems.append(f"rows {idx[0]}..{idx[-1]}: branch or satisfied flag wrong")
        if problems:
            return problems
    if done != res * res:
        return [f"region.csv has {done} rows, expected {res * res}"]
    if seed_is_default:
        ref = json.loads((REFERENCE_DIR / "sweep-region.json").read_text())
        if digest.hexdigest() != ref["sha256"]:
            problems.append("region.csv differs from the reference digest")
    return problems
