"""Deterministic command-line front end.

Subcommands: simulate, classify, sweep, sequences, verify.  Configuration is
a single YAML file resolved on one path: ``_SCHEMA`` coerces each value, the
constructors it feeds (ProblemParams, Profile, the kernel families,
SystemConfig) hold the defaults and the range checks, and every fault is
reported at its config path before any command runs.  Every run writes
a manifest (resolved config, no timestamp), a timestamp file (the only
timestamped artifact), the data files, and an index listing all outputs.
Every CSV goes through one block writer, ``_write_csv``: a table is a header
plus blocks of columns, each block formatted by one ``%`` template and written
in one call (``sweep`` streams one block per p value, and formats one range
of p values per usable CPU, each in its own process).  A table is written
under a hidden name and renamed onto its own once whole.  Floats carry 17
significant digits (``%.17g``), rows end in ``\r\n`` and str cells are
quoted as ``csv.writer`` quotes them, so repeated runs are byte-identical.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure
(non-finite values outside a blow-up trigger, or failed verification).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import struct
import sys
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from . import __version__, iteration, observables
from .errors import ConfigError, InsufficientDataError
from .exponents import (
    ProblemParams,
    check_condition_fast,
    check_condition_slow,
    condition_curves,
    generalized_strauss,
    region_from_grids,
    strauss_exponent,
    sweep_grids,
)
from .kernels import (
    Constant,
    Custom,
    Exponential,
    IteratedExponential,
    OscillatingPolynomial,
    PolynomialShifted,
    RiemannLiouville,
)
from .observables import TRACE_COLUMNS, detect_blowup
from .solver import HistoryWeights, Profile, SystemConfig, run_simulation

FLOAT_FMT = "%.17g"

SNAPSHOT_MAGIC = b"MWSN"
SNAPSHOT_VERSION = 1


class ValidationReport:
    """Accumulates path-tagged errors and warnings during config resolution."""

    def __init__(self):
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def warn(self, path: str, message: str) -> None:
        self.warnings.append(f"{path}: {message}")


# coercions of one config value; each raises TypeError or ValueError on a bad
# one.  Numbers may come as strings because PyYAML reads 1e6 as a string.


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _whole(value) -> int:
    number = _float(value)
    if not number.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(number)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _floats(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(map(_float, value))


def _pair(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected [low, high], got {value!r}")
    return _floats(value)


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a mapping, got {value!r}")
    return value


def _custom_kernel(base: Path, samples: str) -> Custom:
    """A tabulated kernel read from a two-column (t, g) CSV file named
    relative to the config file; every fault is the table's."""
    try:
        table = np.loadtxt(base / samples, delimiter=",", ndmin=2)
        if table.shape[1] != 2:
            raise ConfigError("sample table must have exactly two columns (t, g)")
        return Custom(table[:, 0], table[:, 1])
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc), param="samples") from exc


_SEQUENCES = {
    "case1": (iteration.case1_recursion, iteration.case1_closed_form),
    "case2": (iteration.case2_recursion, iteration.case2_closed_form),
}


def _sequences(case: str = "case1", j_max: int = 25):
    """The (recursion, closed form) of a sequence case, and j_max."""
    if case not in _SEQUENCES:
        raise ConfigError(f"must be one of {sorted(_SEQUENCES)}, got {case!r}", param="case")
    if j_max < 1:
        raise ConfigError(f"must be >= 1, got {j_max}", param="j_max")
    return _SEQUENCES[case], j_max


# family -> (constructor, schema of its parameters)
_KERNEL_FAMILIES = {
    "riemann_liouville": (RiemannLiouville, {"gamma": _float, "scale": _float}),
    "polynomial_shifted": (PolynomialShifted, {"gamma": _float}),
    "exponential": (Exponential, {"beta": _float}),
    "iterated_exponential": (IteratedExponential, {"c": _float, "depth": _whole}),
    "oscillating_polynomial": (OscillatingPolynomial, {"gamma": _float}),
    "constant": (Constant, {"value": _float}),
    "custom": (_custom_kernel, {"samples": str}),
}

_PROFILE = {"kind": str, "amplitude": _float, "radius": _float}

# section -> key -> coercion; a missing key takes its constructor's default
_SCHEMA = {
    "problem": {"n": _whole, "p": _float, "q": _float, "gamma1": _float, "gamma2": _float,
                "r_depth": _whole},
    "kernels": {"g1": _mapping, "g2": _mapping},
    "initial": dict.fromkeys(("u0", "u1", "v0", "v1"), _mapping),
    "simulation": {
        "t_max": _float,
        "dr": _float,
        "cfl": _float,
        "mode": str,
        "record_every": _whole,
        "maxnorm_threshold": _float,
        "linear": _bool,
        "snapshot_times": _floats,
    },
    "sweep": {"p_range": _pair, "q_range": _pair, "resolution": _whole},
    "sequences": {"case": str, "j_max": _whole},
}


def _coerce(block, schema: dict, path: str, report: ValidationReport) -> dict | None:
    """Coerce each key of a config mapping by its schema; report a
    non-mapping, each unknown key and each bad value at its own path, and
    return None if there was any."""
    if not isinstance(block, dict):
        report.error(path, f"expected a mapping, got {block!r}")
        return None
    faults = len(report.errors)
    values = {}
    for key, value in block.items():
        if key not in schema:
            report.error(f"{path}.{key}", f"unknown key (expected one of {sorted(schema)})")
            continue
        try:
            values[key] = schema[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            report.error(f"{path}.{key}", str(exc))
    return values if len(report.errors) == faults else None


def _construct(build, values: dict | None, schema: dict, path: str, report: ValidationReport):
    """Call a constructor on coerced values (None when they failed).  A fault
    naming one of the schema's keys (``ConfigError.param``) is reported at
    that key, any other at the block, a missing required argument included."""
    if values is None:
        return None
    try:
        return build(**values)
    except (TypeError, ValueError) as exc:
        param = getattr(exc, "param", None)
        report.error(f"{path}.{param}" if param in schema else path, str(exc))
        return None


def _kernel(block: dict, path: str, report: ValidationReport, base: Path):
    """Resolve a kernel block: its family picks the constructor and schema."""
    params = dict(block)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _KERNEL_FAMILIES:
        report.error(f"{path}.family",
                     f"expected one of {sorted(_KERNEL_FAMILIES)}, got {family!r}")
        return None
    build, schema = _KERNEL_FAMILIES[family]
    if build is _custom_kernel:
        build = partial(build, base)
    return _construct(build, _coerce(params, schema, path, report), schema, path, report)


def load_config(path: Path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    return raw


def validate_config(raw: dict, base: Path) -> tuple[dict, ValidationReport]:
    """Resolve a raw config mapping into constructed objects plus a report.

    Every section given is coerced by ``_SCHEMA`` before any is built, so each
    unknown key and bad value is reported, whatever else fails.  ``problem``
    and ``sequences`` take their defaults when absent.  The resolved mapping
    holds: params (ProblemParams), profiles, and when their sections are
    given kernels (g1, g2; one alone serves both), system (SystemConfig),
    sweep (the p and q grids) and sequences.
    """
    report = ValidationReport()
    for key in raw:
        if key not in _SCHEMA:
            report.error(key, f"unknown section (expected one of {sorted(_SCHEMA)})")
    given = {"problem": {}, "sequences": {}, **raw}
    values = {name: _coerce(given[name], schema, name, report)
              for name, schema in _SCHEMA.items() if name in given}
    blocks = values.get("kernels") or {}
    kernels = [_kernel(blocks[name], f"kernels.{name}", report, base)
               for name in ("g1", "g2") if name in blocks]
    profiles = {name: _construct(Profile, _coerce(block, _PROFILE, f"initial.{name}", report),
                                 _PROFILE, f"initial.{name}", report)
                for name, block in (values.get("initial") or {}).items()}
    resolved = {"profiles": profiles}
    if kernels:
        resolved["kernels"] = (kernels[0], kernels[-1])
    for name, key, build in (("problem", "params", ProblemParams), ("sweep", "sweep", sweep_grids),
                             ("sequences", "sequences", _sequences)):
        if name in values:
            resolved[key] = _construct(build, values[name], _SCHEMA[name], name, report)
    params = resolved["params"]
    if params is not None and params.sobolev_violated:
        report.warn(
            "problem",
            f"p or q exceeds the admissibility bound n/(n-2) = {params.n / (params.n - 2):g}; "
            "local existence theory does not cover this range",
        )
    # a SystemConfig reads every other section, so it is built only when they were
    if "simulation" in values and not report.errors:
        system = partial(SystemConfig, params, resolved.get("kernels", ()), **profiles)
        resolved["system"] = _construct(system, values["simulation"], _SCHEMA["simulation"],
                                         "simulation", report)
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


def _write_blocks(fh, blocks) -> None:
    """Write each block of a table, formatted by one ``%`` template."""
    for block in blocks:
        parts, columns = zip(*map(_column, block))
        varying = [c for c in columns if c is not None]
        rows = len(varying[0]) if varying else 1
        # row-major cell values: column k fills every len(varying)-th slot
        cells = [None] * (rows * len(varying))
        for k, column in enumerate(varying):
            cells[k :: len(varying)] = column
        fh.write(((",".join(parts) + "\r\n") * rows) % tuple(cells))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where ``_write_csv`` cannot
    fork writers and splice their parts."""
    import os

    if not (hasattr(os, "fork") and hasattr(os, "copy_file_range")):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_writer(part: Path, blocks) -> int:
    """Fork a child that writes the blocks into the file ``part`` and exits
    with status 0, or 1 after printing its traceback; return its pid."""
    import os
    import warnings

    with warnings.catch_warnings():
        # Python 3.12 warns about a fork while a second thread exists, and
        # NumPy's OpenBLAS pool starts one at import.  The child calls no BLAS
        # routine and takes no lock that a parked BLAS thread could hold: it
        # evaluates ufuncs, formats text and writes one file.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(part, "w", newline="") as fh:
            _write_blocks(fh, blocks)
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _write_csv(path: Path, header, blocks, forked=()) -> None:
    """Write a CSV table given as blocks of equal-length columns.

    A column is a sequence of floats (written with ``FLOAT_FMT``), of bools
    (``true``/``false``) or of anything else (``str``), its kind read from its
    first cell, or one scalar repeated over the block.  Each block becomes one
    ``%`` template with the scalars baked in, so its rows are formatted and
    written in one call; the bytes are those of ``csv.writer`` over
    ``FLOAT_FMT``-formatted cells.

    The table is written into the hidden part file ``.<name>.part0`` beside
    ``path`` and moved onto ``path`` (``os.replace``) once it is whole, so
    ``path`` never holds a fragment.  Each item of ``forked`` is a further
    iterable of blocks, in table order after ``blocks``.  A forked child
    writes each into the part file ``.<name>.part<k>``, k >= 1, while this
    process writes the header and ``blocks`` into part 0; the parts are then
    appended to part 0 in order, so the bytes do not depend on the split.
    However this returns, every child is reaped and every part removed; a
    failed child raises ChildProcessError.
    """
    import os

    parts = [path.with_name(f".{path.name}.part{k}") for k in range(len(forked) + 1)]
    children = {}  # pid -> its part file, in table order, until reaped
    try:
        for part, part_blocks in zip(parts[1:], forked):
            children[_fork_writer(part, part_blocks)] = part
        with open(parts[0], "w", newline="") as fh:
            _write_blocks(fh, chain([header], blocks))
            # the parts go in at the descriptor's offset, the end of what is
            # flushed (an O_APPEND descriptor makes copy_file_range fail)
            fh.flush()
            for pid, part in list(children.items()):
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if status:
                    raise ChildProcessError(f"writer of {part.name} exited with status {status}")
                with open(part, "rb") as src:
                    while os.copy_file_range(src.fileno(), fh.fileno(), 1 << 30):
                        pass
        os.replace(parts[0], path)
    finally:
        if children:  # an exception left writers running: stop them
            import signal

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)


def _describe_config(raw: dict, resolved: dict) -> dict:
    params = resolved.get("params")
    desc = {"tool_version": __version__, "config": raw}
    if params is not None:
        desc["resolved_problem"] = {**dataclasses.asdict(params),
                                    "sobolev_violated": params.sobolev_violated}
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
    """Collects artifact paths and writes manifest, timestamp, and index.
    The directory is made for the first artifact, so a command that fails
    before writing leaves nothing behind."""

    def __init__(self, out: Path):
        self.out = out
        self.artifacts: list[str] = []

    def path(self, name: str) -> Path:
        if not self.artifacts:
            self.out.mkdir(parents=True, exist_ok=True)
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
    fields = np.asarray(fields, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIQdd", SNAPSHOT_VERSION, n, fields.shape[-1] - 1, dr, t))
        fh.write(fields.tobytes())


def read_snapshot(path: Path):
    """Inverse of write_snapshot; returns (n, dr, t, list of fields)."""
    blob = Path(path).read_bytes()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise ConfigError(f"{path}: bad snapshot magic")
    offset = 4 + struct.calcsize("<IIQdd")
    if len(blob) < offset:
        raise ConfigError(f"{path}: truncated snapshot header, {len(blob)} of {offset} bytes")
    version, n, M, dr, t = struct.unpack_from("<IIQdd", blob, 4)
    if version != SNAPSHOT_VERSION:
        raise ConfigError(f"{path}: unsupported snapshot version {version}")
    if (len(blob) - offset) % (8 * (M + 1)):
        raise ConfigError(f"{path}: truncated snapshot, {len(blob) - offset} payload bytes "
                          f"are not whole fields of {M + 1} values")
    payload = np.frombuffer(blob, dtype="<f8", offset=offset)
    fields = [payload[i : i + M + 1] for i in range(0, payload.size, M + 1)]
    return n, dr, t, fields


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args, resolved, outdir: OutputDir) -> int:
    system = resolved["system"]
    ladder = args.resolution_ladder
    configs = [dataclasses.replace(system, dr=system.dr / 2**level) for level in range(ladder)]
    results = []
    for level, cfg in enumerate(configs):
        result = run_simulation(cfg)
        results.append(result)
        suffix = "" if ladder == 1 else f"_level{level}"
        _write_csv(outdir.path(f"trace{suffix}.csv"), TRACE_COLUMNS, [result.trace.table().T])
        verdict = detect_blowup(result.trace, cfg)
        with open(outdir.path(f"verdict{suffix}.json"), "w") as fh:
            json.dump(verdict.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for t_snap, (t, fields) in sorted(result.snapshots.items()):
            name = f"snapshot{suffix}_{FLOAT_FMT % t_snap}.bin"
            write_snapshot(outdir.path(name), cfg.params.n, cfg.dr, t, fields)
        if result.trace.stop_trigger == "nonfinite" and not verdict.blew_up:
            return 3
    if ladder > 1:
        # dt halves at each level, so fine row 2i and coarse row i share a
        # step time; rows pair by index, since accumulated times differ in
        # the last bit
        gaps = []
        for coarse, fine in zip(results, results[1:]):
            a = coarse.trace.column("maxnorm_u")
            b = fine.trace.column("maxnorm_u")[::2]
            k = min(a.size, b.size)
            gaps.append(float(np.max(np.abs(a[:k] - b[:k]))))
        levels = list(range(ladder))
        _write_csv(outdir.path("ladder.csv"), ["coarse_level", "fine_level", "trace_gap"],
                   [(levels[:-1], levels[1:], gaps)])
    return 0


def cmd_classify(args, resolved, outdir: OutputDir) -> int:
    kernels = resolved["kernels"]
    params = resolved["params"]
    decay = []
    for name, kernel in zip(("g1", "g2"), kernels):
        try:
            decay.append(kernel.decay_class)
        except InsufficientDataError as exc:  # a tabulated kernel's table is too short
            raise ConfigError(f"kernels.{name}.samples: {exc}") from exc
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
        verdict = check_condition_slow(params, *kernels)
    elif classes == ["fast", "fast"]:
        verdict = check_condition_fast(params)
    elif "indeterminate" not in classes:
        times, lhs, rhs = condition_curves(params, *kernels)
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


def cmd_sweep(args, resolved, outdir: OutputDir) -> int:
    params = resolved["params"]
    ps, qs = resolved["sweep"]
    region = region_from_grids(params.n, params.gamma1, params.gamma2, ps, qs)
    # one block per p value, evaluated as it is written; the q cells are
    # formatted once for the whole run.  The p rows are cut into one
    # contiguous range per usable CPU, each formatted by its own process
    # (``_write_csv``), so %.17g runs on every CPU and each process holds one
    # block at a time; the bytes are the same for any count.
    q_text = [FLOAT_FMT % q for q in qs.tolist()]
    branch = region.branch.value

    def blocks(p_values):
        part = dataclasses.replace(region, p_values=p_values)
        return ((p, q_text, branch, margin > 0.0, margin) for p, margin in part.margin_rows())

    ranges = [blocks(p_values) for p_values in np.array_split(ps, min(ps.size, _usable_cpus()))]
    _write_csv(outdir.path("region.csv"), ["p", "q", "branch", "satisfied", "margin"],
               ranges[0], ranges[1:])
    return 0


def _closed_form_agrees(closed_form, p, q, n: int, seq, j: int) -> bool:
    """Whether every sequence that the closed form states at index j equals
    entry j of the recursion's list."""
    return all(value == seq[name][j - 1] for name, value in closed_form(p, q, n, j).items())


def cmd_sequences(args, resolved, outdir: OutputDir) -> int:
    (recursion, closed_form), j_max = resolved["sequences"]
    params = resolved["params"]
    p, q, n = params.p, params.q, params.n
    seq = recursion(p, q, n, j_max)
    js = range(1, j_max + 1)
    columns = (
        list(js),
        *([float(x) for x in values] for values in seq.values()),
        [_closed_form_agrees(closed_form, p, q, n, seq, j) for j in js],
    )
    _write_csv(outdir.path("sequences.csv"), ("j", *seq, "closed_form_agrees"), [columns])
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
    # the weights' sum at t = 1 against G(1) by hand
    root = 4.0 ** np.arange(-4, 3)  # samples of t^-1/2, exact in binary
    for kernel, want in ((RiemannLiouville(0.5), 2.0 / math.sqrt(math.pi)),
                         (Exponential(1.0), -math.expm1(-1.0)),
                         (Constant(1.0), 1.0),
                         (PolynomialShifted(0.4), (2.0**0.6 - 1.0) / 0.6),
                         (OscillatingPolynomial(0.0), 3.0 + 2.0 * (1.0 - math.cos(1.0))),
                         (IteratedExponential(1, 1.0), -math.expm1(-1.0)),
                         (Custom(root, root**-0.5), 2.0)):
        got = float(HistoryWeights(kernel, 0.01).weights(100) @ np.ones(101))
        name = type(kernel).__name__.lower()
        yield f"quadrature_{name}", abs(got - want) < 1e-10, f"error {abs(got - want):.3e}"
    ok = True
    for recursion, closed_form in _SEQUENCES.values():
        seq = recursion(2, 3, 3, 16)
        ok &= all(_closed_form_agrees(closed_form, 2, 3, 3, seq, j) for j in range(1, 16))
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


def cmd_verify(args, resolved, outdir: OutputDir) -> int:
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

# command -> (the config section it reads beyond ``problem``, its resolved key)
_REQUIRES = {
    "simulate": ("simulation", "system"),
    "classify": ("kernels", "kernels"),
    "sweep": ("sweep", "sweep"),
}


def _level_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memwave",
        description="Blow-up laboratory for wave equations with memory forcing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, required=name != "verify",
                        help="YAML config file")
        sp.add_argument("--out", type=Path, required=True, help="output directory")
    sub.choices["simulate"].add_argument(
        "--resolution-ladder",
        type=_level_count,
        default=1,
        help="number of mesh-halving levels for convergence studies",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None:
            raw, base = {}, Path.cwd()
        else:
            raw, base = load_config(args.config), args.config.parent
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2
    resolved, report = validate_config(raw, base)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.errors:
        for e in report.errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    section, key = _REQUIRES.get(args.command, (None, None))
    if key is not None and key not in resolved:
        print(f"error: {section}: missing, and {args.command} requires it", file=sys.stderr)
        return 2
    outdir = OutputDir(args.out)
    try:
        status = _COMMANDS[args.command](args, resolved, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir.finalize(_describe_config(raw, resolved))
    return status


if __name__ == "__main__":
    sys.exit(main())
