"""Deterministic command-line front end.

Subcommands: simulate, classify, sweep, sequences, verify.  Configuration is
a single YAML file validated against the documented schema; every run writes
a manifest (resolved config, no timestamp), a timestamp file (the only
timestamped artifact), the data files, and an index listing all outputs.
Every CSV goes through one block writer, ``_write_csv``: a table is a header
plus blocks of columns, each block formatted by one ``%`` template and written
in one call (``sweep`` streams one block per p value).  Floats carry 17
significant digits (``%.17g``), rows end in ``\r\n`` and str cells are
quoted as ``csv.writer`` quotes them, so repeated runs are byte-identical.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure
(non-finite values outside a blow-up trigger, or failed verification).
"""

from __future__ import annotations

import argparse
import datetime
import json
import struct
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from . import __version__, iteration, observables
from .errors import ConfigError
from .exponents import (
    ProblemParams,
    check_condition_fast,
    check_condition_slow,
    experimental_mixed_condition,
    generalized_strauss,
    region_from_grids,
    strauss_exponent,
)
from .kernels import (
    Constant,
    Custom,
    Exponential,
    IteratedExponential,
    OscillatingPolynomial,
    PolynomialShifted,
    RiemannLiouville,
    classify_decay,
)
from .observables import TRACE_COLUMNS, detect_blowup
from .solver import HistoryWeights, Profile, SystemConfig, run_simulation

FLOAT_FMT = "%.17g"

SNAPSHOT_MAGIC = b"MWSN"
SNAPSHOT_VERSION = 1

_KERNEL_FAMILIES = {
    "riemann_liouville": (RiemannLiouville, {"gamma": True, "scale": False}),
    "polynomial_shifted": (PolynomialShifted, {"gamma": True}),
    "exponential": (Exponential, {"beta": True}),
    "iterated_exponential": (IteratedExponential, {"c": True, "depth": True}),
    "oscillating_polynomial": (OscillatingPolynomial, {"gamma": True}),
    "constant": (Constant, {"value": True}),
    "custom": (None, {"samples": True}),
}

_SCHEMA = {
    "problem": {"n", "p", "q", "gamma1", "gamma2", "r_depth"},
    "kernels": {"g1", "g2"},
    "initial": {"u0", "u1", "v0", "v1"},
    "simulation": {
        "t_max",
        "dr",
        "cfl",
        "mode",
        "record_every",
        "maxnorm_threshold",
        "linear",
        "snapshot_times",
    },
    "sweep": {"p_range", "q_range", "resolution"},
    "sequences": {"case", "j_max"},
}

_PROFILE_KEYS = {"kind", "amplitude", "radius"}


class ValidationReport:
    """Accumulates path-tagged errors and warnings during config resolution."""

    def __init__(self):
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def warn(self, path: str, message: str) -> None:
        self.warnings.append(f"{path}: {message}")


def _check_keys(section: dict, allowed: set, path: str, report: ValidationReport) -> None:
    for key in section:
        if key not in allowed:
            report.error(f"{path}.{key}", f"unknown key (expected one of {sorted(allowed)})")


def _build_kernel(block: dict, path: str, report: ValidationReport, base: Path):
    if not isinstance(block, dict) or "family" not in block:
        report.error(path, "kernel block must be a mapping with a 'family' key")
        return None
    family = block["family"]
    if family not in _KERNEL_FAMILIES:
        report.error(
            f"{path}.family", f"unknown family (expected one of {sorted(_KERNEL_FAMILIES)})"
        )
        return None
    cls, fields = _KERNEL_FAMILIES[family]
    extra = set(block) - set(fields) - {"family"}
    if extra:
        report.error(path, f"unknown kernel parameters {sorted(extra)}")
        return None
    for name, required in fields.items():
        if required and name not in block:
            report.error(f"{path}.{name}", "required kernel parameter missing")
            return None
    kwargs = {k: v for k, v in block.items() if k != "family"}
    try:
        if family != "custom":
            return cls(**kwargs)
        # every fault of a custom kernel lies in its sample table
        path = f"{path}.samples"
        sample_path = base / str(kwargs["samples"])
        if not sample_path.exists():
            raise ConfigError(f"sample table not found: {sample_path}")
        table = np.loadtxt(sample_path, delimiter=",", ndmin=2)
        if table.shape[1] != 2:
            raise ConfigError("sample table must have exactly two columns (t, g)")
        return Custom(table[:, 0], table[:, 1])
    except ConfigError as exc:
        report.error(f"{path}.{exc.param}" if exc.param else path, str(exc))
    except (ValueError, TypeError) as exc:
        report.error(path, str(exc))
    return None


def _build_profile(block, path: str, report: ValidationReport) -> Profile | None:
    if block is None:
        return None
    if not isinstance(block, dict) or "kind" not in block:
        report.error(path, "profile block must be a mapping with a 'kind' key")
        return None
    extra = set(block) - _PROFILE_KEYS
    if extra:
        report.error(path, f"unknown profile keys {sorted(extra)}")
        return None
    try:
        return Profile(
            block["kind"],
            float(block.get("amplitude", 0.0)),
            float(block.get("radius", 1.0)),
        )
    except ConfigError as exc:
        report.error(path, str(exc))
        return None


def load_config(path: Path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def validate_config(raw: dict, base: Path) -> tuple[dict, ValidationReport]:
    """Resolve a raw config mapping into constructed objects plus a report.

    The resolved mapping holds: params, kernels, profiles, a SystemConfig
    (when the simulation section is present), and the untouched sweep and
    sequences sections.
    """
    report = ValidationReport()
    resolved: dict = {}
    for key in raw:
        if key not in _SCHEMA:
            report.error(key, f"unknown section (expected one of {sorted(_SCHEMA)})")
    prob = raw.get("problem")
    if not isinstance(prob, dict):
        report.error("problem", "required section missing or not a mapping")
        return resolved, report
    _check_keys(prob, _SCHEMA["problem"], "problem", report)
    if report.errors:
        return resolved, report
    try:
        params = ProblemParams(
            int(prob.get("n", 1)),
            float(prob.get("p", 2.0)),
            float(prob.get("q", 2.0)),
            prob.get("gamma1"),
            prob.get("gamma2"),
            int(prob.get("r_depth", 0)),
        )
    except ConfigError as exc:
        report.error("problem", str(exc))
        return resolved, report
    if params.sobolev_violated:
        bound = params.n / (params.n - 2)
        report.warn(
            "problem",
            f"p or q exceeds the admissibility bound n/(n-2) = {bound:g}; "
            "local existence theory does not cover this range",
        )
    resolved["params"] = params

    kernels = []
    kblock = raw.get("kernels", {})
    if not isinstance(kblock, dict):
        report.error("kernels", "must be a mapping with g1/g2 blocks")
        kblock = {}
    _check_keys(kblock, _SCHEMA["kernels"], "kernels", report)
    for name in ("g1", "g2"):
        if name in kblock:
            k = _build_kernel(kblock[name], f"kernels.{name}", report, base)
            if k is not None:
                kernels.append(k)
    if len(kernels) == 1:
        kernels.append(kernels[0])
    resolved["kernels"] = tuple(kernels)

    profiles = {}
    iblock = raw.get("initial", {})
    if iblock:
        _check_keys(iblock, _SCHEMA["initial"], "initial", report)
        for name in ("u0", "u1", "v0", "v1"):
            prof = _build_profile(iblock.get(name), f"initial.{name}", report)
            if prof is not None:
                profiles[name] = prof
    resolved["profiles"] = profiles

    sblock = raw.get("simulation")
    if sblock is not None and not report.errors:
        _check_keys(sblock, _SCHEMA["simulation"], "simulation", report)
        if not report.errors:
            if len(kernels) < 2:
                report.error("kernels", "simulation requires at least one kernel block")
            elif "u0" not in profiles or "u1" not in profiles:
                report.error("initial", "simulation requires u0 and u1 profiles")
            else:
                try:
                    resolved["system"] = SystemConfig(
                        params,
                        tuple(kernels),
                        u0=profiles["u0"],
                        u1=profiles["u1"],
                        v0=profiles.get("v0"),
                        v1=profiles.get("v1"),
                        t_max=float(sblock.get("t_max", 2.0)),
                        dr=float(sblock.get("dr", 0.01)),
                        cfl=float(sblock.get("cfl", 0.9)),
                        mode=sblock.get("mode", "coupled"),
                        maxnorm_threshold=float(sblock.get("maxnorm_threshold", 1e6)),
                        linear=bool(sblock.get("linear", False)),
                        record_every=int(sblock.get("record_every", 1)),
                        snapshot_times=tuple(sblock.get("snapshot_times", ())),
                    )
                except ConfigError as exc:
                    report.error("simulation", str(exc))
    for name in ("sweep", "sequences"):
        block = raw.get(name)
        if block is not None:
            _check_keys(block, _SCHEMA[name], name, report)
            resolved[name] = block
    return resolved, report


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


_BOOL_TEXT = ("false", "true")
_QUOTE_CHARS = ',"\r\n'


def _needs_quote(text: str) -> bool:
    return any(c in text for c in _QUOTE_CHARS)


def _quote(cell: str) -> str:
    """csv.writer's QUOTE_MINIMAL: quote a cell holding a comma, a quote or a
    line break, doubling its quotes."""
    return '"' + cell.replace('"', '""') + '"' if _needs_quote(cell) else cell


def _column(col):
    """One block column as (``%`` conversion, cell values), or as (literal
    text, None) for a scalar that repeats over the block."""
    if not isinstance(col, (list, tuple, np.ndarray)):
        conversion, cells = _column([col])
        return (conversion % tuple(cells)).replace("%", "%%"), None
    cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
    first = cells[0] if cells else 0.0
    if isinstance(first, bool):
        return "%s", list(map(_BOOL_TEXT.__getitem__, cells))
    if isinstance(first, float):
        return FLOAT_FMT, cells
    if not isinstance(first, str):
        cells = list(map(str, cells))
    if _needs_quote("".join(cells)):
        cells = list(map(_quote, cells))
    return "%s", cells


def _write_csv(path: Path, header, blocks) -> None:
    """Write a CSV table given as blocks of equal-length columns.

    A column is a sequence of floats (written with ``FLOAT_FMT``), of bools
    (``true``/``false``) or of anything else (``str``), its kind read from its
    first cell, or one scalar repeated over the block.  Each block becomes one
    ``%`` template with the scalars baked in, so its rows are formatted and
    written in one call; the bytes are those of ``csv.writer`` over
    ``FLOAT_FMT``-formatted cells.
    """
    with open(path, "w", newline="") as fh:
        for block in chain([header], blocks):
            parts, columns = zip(*map(_column, block))
            varying = [c for c in columns if c is not None]
            rows = len(varying[0]) if varying else 1
            # row-major cell values: column k fills every len(varying)-th slot
            cells = [None] * (rows * len(varying))
            for k, column in enumerate(varying):
                cells[k :: len(varying)] = column
            fh.write(((",".join(parts) + "\r\n") * rows) % tuple(cells))


def _describe_config(raw: dict, resolved: dict) -> dict:
    params = resolved.get("params")
    desc = {"tool_version": __version__, "config": raw}
    if params is not None:
        desc["resolved_problem"] = {
            "n": params.n,
            "p": params.p,
            "q": params.q,
            "gamma1": params.gamma1,
            "gamma2": params.gamma2,
            "r_depth": params.r_depth,
            "sobolev_violated": params.sobolev_violated,
        }
    system = resolved.get("system")
    if system is not None:
        desc["resolved_simulation"] = {
            "t_max": system.t_max,
            "dr": system.dr,
            "dt": system.dt,
            "cfl": system.cfl,
            "mode": system.mode,
            "R": system.R,
            "grid_cells": system.n_cells,
            "record_every": system.record_every,
            "maxnorm_threshold": system.maxnorm_threshold,
            "linear": system.linear,
        }
    return desc


class OutputDir:
    """Collects artifact paths and writes manifest, timestamp, and index."""

    def __init__(self, out: Path):
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[str] = []

    def path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def finalize(self, manifest: dict) -> None:
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        # the timestamp lives alone so every data file stays byte-reproducible
        stamp = self.out / "timestamp.txt"
        stamp.write_text(datetime.datetime.now(datetime.timezone.utc).isoformat() + "\n")
        with open(self.out / "index.json", "w") as fh:
            json.dump({"outputs": sorted(self.artifacts)}, fh, indent=2)
            fh.write("\n")


def write_snapshot(path: Path, n: int, dr: float, t: float, fields) -> None:
    """Flat binary snapshot: 4-byte magic, u32 version, u32 n, u64 M, f64 dr,
    f64 t, then one little-endian f64 row of length M+1 per field."""
    arrays = [np.asarray(f, dtype="<f8") for f in fields if f is not None]
    M = arrays[0].size - 1
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIQdd", SNAPSHOT_VERSION, n, M, dr, t))
        for arr in arrays:
            fh.write(arr.tobytes())


def read_snapshot(path: Path):
    """Inverse of write_snapshot; returns (n, dr, t, list of fields)."""
    blob = Path(path).read_bytes()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise ConfigError(f"{path}: bad snapshot magic")
    version, n, M, dr, t = struct.unpack_from("<IIQdd", blob, 4)
    if version != SNAPSHOT_VERSION:
        raise ConfigError(f"{path}: unsupported snapshot version {version}")
    payload = np.frombuffer(blob, dtype="<f8", offset=4 + struct.calcsize("<IIQdd"))
    fields = [payload[i : i + M + 1] for i in range(0, payload.size, M + 1)]
    return n, dr, t, fields


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args, raw, resolved, outdir: OutputDir) -> int:
    system = resolved.get("system")
    if system is None:
        print("simulate requires a 'simulation' section", file=sys.stderr)
        return 2
    ladder = max(1, args.resolution_ladder)
    configs = [system]
    for level in range(1, ladder):
        import dataclasses

        configs.append(dataclasses.replace(system, dr=system.dr / 2**level))
    results = []
    for level, cfg in enumerate(configs):
        result = run_simulation(cfg)
        results.append(result)
        suffix = "" if ladder == 1 else f"_level{level}"
        trace = tuple(getattr(result.trace, c) for c in TRACE_COLUMNS)
        _write_csv(outdir.path(f"trace{suffix}.csv"), TRACE_COLUMNS, [trace])
        verdict = detect_blowup(result.trace, cfg)
        with open(outdir.path(f"verdict{suffix}.json"), "w") as fh:
            json.dump(verdict.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for t_snap, fields in sorted(result.snapshots.items()):
            name = f"snapshot{suffix}_{FLOAT_FMT % t_snap}.bin"
            write_snapshot(outdir.path(name), cfg.params.n, cfg.dr, t_snap, fields)
        if result.trace.stop_trigger == "nonfinite" and not verdict.blew_up:
            return 3
    if ladder > 1:
        gaps = []
        for coarse, fine in zip(results, results[1:]):
            k = min(len(coarse.trace), len(fine.trace))
            a = coarse.trace.column("maxnorm_u")[:k]
            b = fine.trace.column("maxnorm_u")[:k]
            gaps.append(float(np.max(np.abs(a - b))))
        levels = list(range(ladder))
        _write_csv(outdir.path("ladder.csv"), ["coarse_level", "fine_level", "trace_gap"],
                   [(levels[:-1], levels[1:], gaps)])
    return 0


def cmd_classify(args, raw, resolved, outdir: OutputDir) -> int:
    kernels = resolved.get("kernels", ())
    if len(kernels) < 2:
        print("classify requires kernel blocks g1 (and optionally g2)", file=sys.stderr)
        return 2
    params = resolved["params"]
    decay = [classify_decay(k) for k in kernels]
    classes = [cls.tag.value for cls in decay]
    _write_csv(
        outdir.path("classification.csv"),
        ["kernel", "family", "decay_class", "onset_time"],
        [(["g1", "g2"], [type(k).__name__ for k in kernels], classes,
          [cls.t0 for cls in decay])],
    )
    verdict = None
    extra: dict = {"decay_classes": classes}
    if classes == ["slow", "slow"]:
        verdict = check_condition_slow(params, kernels[0], kernels[1])
    elif classes == ["fast", "fast"]:
        verdict = check_condition_fast(params)
    elif "indeterminate" not in classes:
        slow_index = 1 if classes[0] == "slow" else 2
        times, lhs, rhs = experimental_mixed_condition(
            params, kernels[0], kernels[1], slow_index
        )
        _write_csv(
            outdir.path("mixed_condition_experimental.csv"),
            ["t", "log_lhs", "log_rhs"],
            [(times, lhs, rhs)],
        )
        extra["note"] = "mixed slow/fast regime is conjectural; raw curves emitted"
    if verdict is not None:
        extra["condition"] = {
            "satisfied": verdict.satisfied,
            "branch": verdict.branch.value,
            "margin": verdict.margin,
            "critical": verdict.critical,
        }
    with open(outdir.path("condition.json"), "w") as fh:
        json.dump(extra, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_sweep(args, raw, resolved, outdir: OutputDir) -> int:
    block = resolved.get("sweep")
    if block is None:
        print("sweep requires a 'sweep' section", file=sys.stderr)
        return 2
    params = resolved["params"]
    p_range = tuple(map(float, block.get("p_range", (1.1, 3.0))))
    q_range = tuple(map(float, block.get("q_range", (1.1, 3.0))))
    resolution = int(block.get("resolution", 50))
    if resolution < 1:
        print("sweep.resolution must be >= 1", file=sys.stderr)
        return 2
    ps = np.linspace(p_range[0], p_range[1], resolution)
    qs = np.linspace(q_range[0], q_range[1], resolution)
    region = region_from_grids(params.n, params.gamma1, params.gamma2, ps, qs)
    # one block per p value; the q cells are formatted once for the whole run
    q_text = [FLOAT_FMT % q for q in qs.tolist()]
    branch = region.branch.value
    _write_csv(
        outdir.path("region.csv"),
        ["p", "q", "branch", "satisfied", "margin"],
        ((p, q_text, branch, region.satisfied[i], region.margin[i])
         for i, p in enumerate(ps.tolist())),
    )
    return 0


_SEQUENCES = {
    "case1": (
        iteration.case1_recursion,
        iteration.case1_closed_form,
        ("a", "a_t", "alpha", "alpha_t", "b", "b_t", "beta", "beta_t"),
        ("logD", "logD_t"),
    ),
    "case2": (
        iteration.case2_recursion,
        iteration.case2_closed_form,
        ("theta", "theta_t", "sigma", "sigma_t"),
        ("ell", "L", "logQ", "logQ_t"),
    ),
}


def cmd_sequences(args, raw, resolved, outdir: OutputDir) -> int:
    block = resolved.get("sequences") or {}
    case = block.get("case", "case1")
    j_max = int(block.get("j_max", 25))
    if case not in _SEQUENCES:
        print(f"sequences.case must be case1 or case2, got {case!r}", file=sys.stderr)
        return 2
    recursion, closed_form, fields, logs = _SEQUENCES[case]
    params = resolved["params"]
    p, q, n = params.p, params.q, params.n
    seq = recursion(p, q, n, j_max)
    js = list(range(1, j_max + 1))
    terms = [seq.at(j) for j in js]
    agree = []
    for j, term in zip(js, terms):
        cf = closed_form(p, q, n, j)
        agree.append(all(
            getattr(cf, f) is None or getattr(cf, f) == getattr(term, f) for f in fields
        ))
    columns = (
        js,
        *([float(getattr(term, f)) for term in terms] for f in fields),
        *(getattr(seq, name)[:j_max] for name in logs),
        agree,
    )
    _write_csv(outdir.path("sequences.csv"), ("j", *fields, *logs, "closed_form_agrees"),
               [columns])
    return 0


def _verify_checks():
    """Fast internal cross-checks; yields (name, passed, detail)."""
    for n in range(2, 10):
        p = strauss_exponent(n)
        resid = abs((n - 1) * p * p - (n + 1) * p - 2)
        yield f"strauss_root_n{n}", resid < 1e-12, f"residual {resid:.3e}"
    for n in range(2, 7):
        gap = abs(generalized_strauss(n, 1 - 1e-8) - strauss_exponent(n))
        yield f"strauss_limit_n{n}", gap < 1e-6, f"gap {gap:.3e}"
    for kernel in (RiemannLiouville(0.5), Exponential(1.0), Constant(1.0),
                   PolynomialShifted(0.4)):
        hw = HistoryWeights(kernel, 0.01)
        got = float(hw.weights(100) @ np.ones(101))
        want = kernel.antiderivative(1.0)
        name = type(kernel).__name__.lower()
        yield f"quadrature_{name}", abs(got - want) < 1e-10, f"error {abs(got - want):.3e}"
    ok = True
    for j in range(1, 16):
        cf = iteration.case1_closed_form(2, 3, 3, j)
        terms = iteration.case1_recursion(2, 3, 3, 16).at(j)
        if cf.beta != terms.beta or (cf.a is not None and cf.a != terms.a):
            ok = False
    yield "iteration_closed_forms", ok, "exact rational agreement"
    r = np.linspace(0.1, 5.0, 400)
    for n in (1, 2, 3):
        phi = observables.phi_eigenfunction(n, r)
        dr = r[1] - r[0]
        lap = np.gradient(np.gradient(phi, dr), dr)
        if n > 1:
            lap += (n - 1) / r * np.gradient(phi, dr)
        rel = np.max(np.abs(lap[2:-2] - phi[2:-2]) / phi[2:-2])
        yield f"eigen_identity_n{n}", bool(rel < 5e-2), f"max rel {rel:.3e}"


def cmd_verify(args, raw, resolved, outdir: OutputDir) -> int:
    names, passed, details = zip(*_verify_checks())
    _write_csv(outdir.path("verify.csv"), ["check", "passed", "detail"],
               [(names, passed, details)])
    return 0 if all(passed) else 3


_COMMANDS = {
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "sequences": cmd_sequences,
    "verify": cmd_verify,
}

_DEFAULT_CONFIG = {
    "problem": {"n": 1, "p": 2.0, "q": 2.0},
    "kernels": {
        "g1": {"family": "riemann_liouville", "gamma": 0.5},
        "g2": {"family": "exponential", "beta": 1.0},
    },
    "initial": {
        "u0": {"kind": "gaussian", "amplitude": 1.0, "radius": 1.0},
        "u1": {"kind": "zero"},
    },
    "simulation": {"t_max": 1.0, "dr": 0.02, "mode": "coupled"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memwave",
        description="Blow-up laboratory for wave equations with memory forcing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, default=None, help="YAML config file")
        sp.add_argument("--out", type=Path, required=True, help="output directory")
        sp.add_argument(
            "--resolution-ladder",
            type=int,
            default=1,
            help="number of mesh-halving levels for convergence studies",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            if args.command != "verify":
                print(f"{args.command} requires --config", file=sys.stderr)
                return 2
            raw = dict(_DEFAULT_CONFIG)
            base = Path.cwd()
        else:
            raw = load_config(args.config)
            base = args.config.parent
        resolved, report = validate_config(raw, base)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.errors:
        for e in report.errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    outdir = OutputDir(args.out)
    try:
        status = _COMMANDS[args.command](args, raw, resolved, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    outdir.finalize(_describe_config(raw, resolved))
    return status


if __name__ == "__main__":
    sys.exit(main())
