"""Command-line front end: validation, artifacts, determinism, snapshots."""

import csv
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import memwave
from memwave.cli import _write_csv, main, read_snapshot, validate_config, write_snapshot
from memwave.exponents import ProblemParams, check_condition_slow, condition_curves
from memwave.kernels import Exponential, RiemannLiouville

MINIMAL = {
    "problem": {"n": 1, "p": 2.0, "q": 2.0},
    "kernels": {
        "g1": {"family": "riemann_liouville", "gamma": 0.5},
        "g2": {"family": "exponential", "beta": 1.0},
    },
    "initial": {
        "u0": {"kind": "gaussian", "amplitude": 1.0, "radius": 1.0},
        "u1": {"kind": "zero"},
    },
    "simulation": {"t_max": 0.4, "dr": 0.02, "mode": "coupled"},
}


def _write(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_validate_minimal_config(tmp_path):
    resolved, report = validate_config(MINIMAL, tmp_path)
    assert not report.errors and not report.warnings
    assert resolved["system"].mode == "coupled"
    assert resolved["params"].p == 2.0


def test_validate_rejects_bad_gamma(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"]["gamma"] = 1.2
    _, report = validate_config(cfg, tmp_path)
    assert any("kernels.g1.gamma" in e and "(0, 1)" in e for e in report.errors)


def test_validate_builds_constant_kernel(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"] = {"family": "constant", "value": 1.0}
    resolved, report = validate_config(cfg, tmp_path)
    assert not report.errors
    assert resolved["kernels"][0].value == 1.0


@pytest.mark.parametrize("family, params", [
    ("exponential", {"beta": 1.0}),
    ("polynomial_shifted", {"gamma": 0.5}),
    ("oscillating_polynomial", {"gamma": 0.5}),
])
def test_validate_rejects_scale_where_unsupported(tmp_path, family, params):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"] = {"family": family, "scale": 2.0, **params}
    _, report = validate_config(cfg, tmp_path)
    assert report.errors == [f"kernels.g1.scale: unknown key (expected one of {sorted(params)})"]


# one block per family in the README config comment, with the edge values the
# kernel constructors accept: the constructors are the only parameter check
DOCUMENTED_KERNELS = [
    {"family": "riemann_liouville", "gamma": 0.5},
    {"family": "riemann_liouville", "gamma": 0.5, "scale": 2.0},
    {"family": "exponential", "beta": 1.0},
    {"family": "polynomial_shifted", "gamma": 0.5},
    {"family": "polynomial_shifted", "gamma": 1.0},
    {"family": "polynomial_shifted", "gamma": 2.5},
    {"family": "iterated_exponential", "c": 1.0, "depth": 2},
    {"family": "oscillating_polynomial", "gamma": 0.0},
    {"family": "oscillating_polynomial", "gamma": 0.5},
    {"family": "constant", "value": 1.0},
    {"family": "custom", "samples": "kernel.csv"},
]


def test_documented_kernels_cover_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme[readme.index("kernels:\n  g1:"):readme.index("\ninitial:")]
    documented = set(re.findall(r"family: (\w+)", block))
    documented |= set(re.findall(r"^  #   (\w+):", block, re.M))
    assert documented == {b["family"] for b in DOCUMENTED_KERNELS}


def _readme_modes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"^  mode: \w+ +# ([\w |]+?) *(?:\(|$)", readme, re.M).group(1).split(" | ")


def test_readme_lists_the_modes():
    assert sorted(_readme_modes()) == ["coupled", "mgt", "single"]


@pytest.mark.parametrize("mode", _readme_modes())
def test_simulate_runs_documented_mode(tmp_path, mode):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["mode"] = mode
    if mode == "mgt":
        cfg["kernels"]["g1"] = {"family": "exponential", "beta": 1.0}
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("block", DOCUMENTED_KERNELS,
                         ids=lambda b: "-".join(str(v) for v in b.values()))
def test_validate_builds_documented_kernel(tmp_path, block):
    np.savetxt(tmp_path / "kernel.csv", [[0.5, 1.5], [1.0, 1.0], [2.0, 0.5]], delimiter=",")
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"] = block
    resolved, report = validate_config(cfg, tmp_path)
    assert report.errors == []
    assert "system" in resolved


@pytest.mark.parametrize("block, param", [
    ({"family": "polynomial_shifted", "gamma": -1.0}, "gamma"),
    ({"family": "oscillating_polynomial", "gamma": 1.0}, "gamma"),
    ({"family": "exponential", "beta": 0.0}, "beta"),
    ({"family": "iterated_exponential", "c": 1.0, "depth": 9}, "depth"),
    ({"family": "riemann_liouville", "gamma": 0.5, "scale": -1.0}, "scale"),
], ids=lambda x: x["family"] if isinstance(x, dict) else x)
def test_validate_tags_kernel_error_with_parameter(tmp_path, block, param):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"] = block
    _, report = validate_config(cfg, tmp_path)
    assert len(report.errors) == 1
    assert report.errors[0].startswith(f"kernels.g1.{param}: ")


def test_validate_reports_unknown_key(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["timestep"] = 0.1
    _, report = validate_config(cfg, tmp_path)
    assert any("simulation.timestep" in e for e in report.errors)


def test_validate_sobolev_warning(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["problem"] = {"n": 3, "p": 4.0, "q": 2.0}
    cfg["simulation"]["cfl"] = 0.8  # below the n = 3 bound
    _, report = validate_config(cfg, tmp_path)
    assert not report.errors
    assert any("n/(n-2) = 3" in w for w in report.warnings)


@pytest.mark.parametrize("command", ["sweep", "classify", "simulate"])
def test_n3_config_without_cfl_runs(tmp_path, command):
    # a default cfl of 0.9 lies above the n = 3 bound, so this config exited 2
    # in every command that validates its simulation section
    cfg = {**MINIMAL, "problem": {"n": 3, "p": 2.0, "q": 2.0},
           "sweep": {"p_range": [1.5, 2.5], "q_range": [1.5, 2.5], "resolution": 3}}
    out = tmp_path / command
    assert main([command, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_simulation"]["cfl"] == 0.8


def test_simulate_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "verdict.json").exists()
    assert (out / "manifest.json").exists()
    assert (out / "timestamp.txt").exists()
    index = json.loads((out / "index.json").read_text())
    assert "trace.csv" in index["outputs"]
    # manifest carries no timestamp; the stamp lives in its own file
    manifest = (out / "manifest.json").read_text()
    assert "timestamp" not in manifest
    verdict = json.loads((out / "verdict.json").read_text())
    assert set(verdict) == {"blew_up", "t_stop", "T_estimate", "ci_low", "ci_high",
                            "trigger"}


def test_simulate_deterministic(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_simulate_exit_code_on_bad_config(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"]["gamma"] = 2.0
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_simulate_resolution_ladder(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = tmp_path / "ladder"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--resolution-ladder", "2"])
    assert code == 0
    assert (out / "trace_level0.csv").exists()
    assert (out / "trace_level1.csv").exists()
    assert (out / "ladder.csv").exists()


def test_sweep_grid(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["sweep"] = {"p_range": [1.5, 2.5], "q_range": [1.5, 2.5], "resolution": 2}
    path = _write(tmp_path, cfg)
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "region.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + 2x2 grid


def test_sweep_streams_rows(tmp_path):
    # one p row of the region at a time: at resolution 400 the peak of traced
    # allocations stays below the 1.28 MB of a single (400, 400) float plane
    cfg = {"problem": {"n": 3, "p": 2.0, "q": 2.0, "gamma1": 0.5, "gamma2": 0.7},
           "sweep": {"p_range": [1.1, 4.0], "q_range": [1.1, 4.0], "resolution": 400}}
    path = _write(tmp_path, cfg)
    tracemalloc.start()
    try:
        status = main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 1_000_000


def _scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after running code;
    a subprocess, since the test session itself has imported scipy."""
    src = str(Path(memwave.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_cli_leaves_scipy_unloaded(tmp_path):
    assert _scipy_modules_after("import memwave.cli", tmp_path) == []


def test_package_exports_are_consistent():
    # listed names exist, the package exports only listed names, the solver has no scipy
    for info in pkgutil.iter_modules(memwave.__path__):
        module = importlib.import_module(f"memwave.{info.name}")
        assert all(hasattr(module, name) for name in getattr(module, "__all__", ())), info.name
    for name, obj in vars(memwave).items():
        if not name.startswith("_") and not inspect.ismodule(obj):
            assert name in sys.modules[obj.__module__].__all__, name
    assert "scipy" not in Path(memwave.solver.__file__).read_text()


_EXPONENTIAL = {"family": "exponential", "beta": 1.0}


@pytest.mark.parametrize("kernels, simulation, loads_scipy", [
    pytest.param({}, {}, False, id="exponential-params0-False"),
    pytest.param({"g2": {"family": "oscillating_polynomial", "gamma": 0.3}}, {}, True,
                 id="oscillating_polynomial-params1-True"),
    # 111 steps: past the exact window, so the riemann_liouville row builds
    # and runs its sum-of-exponentials tail, in coupled and in single mode
    pytest.param({}, {"t_max": 2.0}, False, id="exponential-mode-tail"),
    pytest.param({}, {"t_max": 2.0, "mode": "single"}, False, id="single-mode-tail"),
    pytest.param({"g1": _EXPONENTIAL}, {"t_max": 2.0, "mode": "mgt"}, False, id="mgt"),
])
def test_simulate_loads_scipy_only_for_quadrature(tmp_path, kernels, simulation, loads_scipy):
    # closed-form kernels (riemann_liouville + exponential) never need scipy;
    # a quadrature-backed kernel loads it on its first antiderivative
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"].update(kernels)
    cfg["simulation"].update(simulation)
    path = _write(tmp_path, cfg)
    argv = ["simulate", "--config", str(path), "--out", "out"]
    code = f"import memwave.cli\nassert memwave.cli.main({argv!r}) == 0"
    assert bool(_scipy_modules_after(code, tmp_path)) == loads_scipy


def test_closed_form_commands_leave_scipy_unloaded(tmp_path):
    # classify (a mixed pair's curves), sweep, sequences and verify
    cfg = {**MINIMAL, "sweep": {"p_range": [1.1, 3.0], "q_range": [1.1, 3.0], "resolution": 9}}
    path = str(_write(tmp_path, cfg))
    runs = [[command, "--config", path, "--out", command]
            for command in ("classify", "sweep", "sequences")] + [["verify", "--out", "verify"]]
    code = "import memwave.cli\n" + "".join(
        f"assert memwave.cli.main({argv!r}) == 0\n" for argv in runs)
    assert _scipy_modules_after(code, tmp_path) == []


@pytest.mark.parametrize("swapped, classes", [(False, ["slow", "fast"]), (True, ["fast", "slow"])],
                         ids=["slow-fast", "fast-slow"])
def test_classify_slow_fast_pair(tmp_path, swapped, classes):
    # swapping the kernels and p with q leaves the mixed curves unchanged
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["problem"]["q"] = 3.0
    if swapped:
        cfg["problem"].update(p=3.0, q=2.0)
        cfg["kernels"] = {"g1": cfg["kernels"]["g2"], "g2": cfg["kernels"]["g1"]}
    out = tmp_path / "cls"
    assert main(["classify", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
    condition = json.loads((out / "condition.json").read_text())
    assert condition["decay_classes"] == classes
    want = condition_curves(ProblemParams(1, 2.0, 3.0), RiemannLiouville(0.5), Exponential(1.0))
    got = np.loadtxt(out / "mixed_condition_experimental.csv", delimiter=",", skiprows=1)
    assert np.array_equal(got, np.column_stack(want))


def test_classify_slow_slow_pair(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g2"] = {"family": "polynomial_shifted", "gamma": 0.5}
    out = tmp_path / "cls"
    assert main(["classify", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
    c = json.loads((out / "condition.json").read_text())["condition"]
    resolved, _ = validate_config(cfg, tmp_path)
    want = check_condition_slow(resolved["params"], *resolved["kernels"])
    assert (c["branch"], c["satisfied"], c["margin"]) == ("slow-slow", want.satisfied, want.margin)


def test_classify_fast_fast_pair(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"] = {"family": "exponential", "beta": 2.0}
    path = _write(tmp_path, cfg)
    out = tmp_path / "cls"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
    condition = json.loads((out / "condition.json").read_text())
    assert condition["condition"]["branch"] == "fast-fast"
    assert condition["condition"]["satisfied"] is True


def test_sequences_closed_form_agreement(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["sequences"] = {"case": "case1", "j_max": 15}
    path = _write(tmp_path, cfg)
    out = tmp_path / "seq"
    assert main(["sequences", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "sequences.csv").read_text().strip().splitlines()
    assert len(rows) == 16
    assert all(line.endswith("true") for line in rows[1:])


def test_sequences_case2(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["sequences"] = {"case": "case2", "j_max": 10}
    path = _write(tmp_path, cfg)
    out = tmp_path / "seq2"
    assert main(["sequences", "--config", str(path), "--out", str(out)]) == 0
    header = (out / "sequences.csv").read_text().splitlines()[0]
    assert header.startswith("j,theta")


def test_verify_default_golden_path(tmp_path):
    out = tmp_path / "ver"
    assert main(["verify", "--out", str(out)]) == 0
    rows = (out / "verify.csv").read_text().strip().splitlines()
    assert len(rows) > 10
    assert all(",true," in r for r in rows[1:])


def test_custom_kernel_from_csv(tmp_path):
    t = np.geomspace(0.1, 100.0, 64)
    table = np.column_stack([t, t**-0.5])
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",")
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"]["g1"] = {"family": "custom", "samples": "kernel.csv"}
    path = _write(tmp_path, cfg)
    out = tmp_path / "cls"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == 0
    body = (out / "classification.csv").read_text()
    assert "Custom,slow" in body


def test_snapshot_roundtrip(tmp_path):
    u = np.linspace(0.0, 1.0, 11)
    v = np.linspace(1.0, 2.0, 11)
    path = tmp_path / "snap.bin"
    write_snapshot(path, 3, 0.1, 0.5, (u, v))
    n, dr, t, fields = read_snapshot(path)
    assert (n, dr, t) == (3, 0.1, 0.5)
    assert len(fields) == 2
    assert np.array_equal(fields[0], u) and np.array_equal(fields[1], v)


def test_snapshot_written_by_simulate(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["snapshot_times"] = [0.2]
    path = _write(tmp_path, cfg)
    out = tmp_path / "snap"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    snaps = list(out.glob("snapshot_*.bin"))
    assert len(snaps) == 1
    n, dr, t, fields = read_snapshot(snaps[0])
    assert n == 1 and t == pytest.approx(0.2) and len(fields) == 2


# ---------------------------------------------------------------------------
# golden files: the exact bytes of every CSV the CLI writes, recorded from the
# per-cell csv.writer path the block writer replaced
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

_SLOW_SWEEP = {"n": 3, "p": 2.0, "q": 2.0, "gamma1": 0.5, "gamma2": 0.7}
GOLDEN_RUNS = {
    # sweep validates the simulation section too, which for n = 3 takes the
    # default cfl of its dimension, 0.8
    "sweep_slow": ("sweep", {"problem": _SLOW_SWEEP, "sweep": {
        "p_range": [1.1, 4.0], "q_range": [1.2, 3.5], "resolution": 5}}, []),
    "sweep_fast": ("sweep", {"problem": {"n": 2, "p": 2.0, "q": 2.0}, "sweep": {
        "p_range": [1.5, 2.5], "q_range": [1.1, 6.0], "resolution": 4}}, []),
    "simulate": ("simulate", {}, []),
    "ladder": ("simulate", {"simulation": {"t_max": 0.2, "dr": 0.05, "mode": "coupled"}},
               ["--resolution-ladder", "2"]),
    "classify": ("classify", {}, []),
    "sequences_case1": ("sequences", {"sequences": {"case": "case1", "j_max": 8}}, []),
    "sequences_case2": ("sequences", {"sequences": {"case": "case2", "j_max": 8}}, []),
    "verify": ("verify", None, []),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_csv_matches_golden_bytes(tmp_path, run):
    command, changes, extra = GOLDEN_RUNS[run]
    argv = [command, "--out", str(tmp_path / "out")] + extra
    if changes is not None:
        argv += ["--config", str(_write(tmp_path, {**MINIMAL, **changes}))]
    assert main(argv) == 0
    written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    recorded = sorted(p.name.split("__", 1)[1] for p in GOLDEN.glob(f"{run}__*.csv"))
    assert written == recorded
    for name in written:
        got = (tmp_path / "out" / name).read_bytes()
        assert got == (GOLDEN / f"{run}__{name}").read_bytes(), name


def test_csv_str_cell_quoted_like_csv_writer(tmp_path):
    # a block of scalars is one row, so this call reads the same as one row
    cells = ["plain", 'a,"b" c', 0.1, True, "x\ny"]
    path = tmp_path / "quoted.csv"
    _write_csv(path, ["name", 'odd,"head"', "value", "flag", "lines"], [tuple(cells)])
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["name", 'odd,"head"', "value", "flag", "lines"])
    writer.writerow(["plain", 'a,"b" c', "0.10000000000000001", "true", "x\ny"])
    assert path.read_bytes() == want.getvalue().encode()


def test_csv_blocks_match_csv_writer_rows(tmp_path):
    margins = np.array([0.1, -0.0, np.inf, np.nan, 1e-300, 2.0 / 3.0])
    flags = margins > 0.0
    names = ["a", 'b,"c"', "d\re", "", "f", "%g"]
    blocks = [
        (1.5, names, "100%", flags, margins, list(range(6))),
        (np.float64(2.25), names[::-1], "x,y", flags[::-1].tolist(), margins.tolist(),
         list(range(6, 12))),
    ]
    header = ["p", "name", "label", "flag", "margin", "j"]
    path = tmp_path / "blocks.csv"
    _write_csv(path, header, iter(blocks))
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    for p, name_col, label, flag_col, margin_col, j_col in blocks:
        for name, flag, margin, j in zip(name_col, flag_col, margin_col, j_col):
            writer.writerow(["%.17g" % p, name, label, str(bool(flag)).lower(),
                             "%.17g" % margin, str(j)])
    assert path.read_bytes() == want.getvalue().encode()


def _custom_table_config(tmp_path, table: str, g2: dict):
    (tmp_path / "kernel.csv").write_text(table)
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["kernels"] = {"g1": {"family": "custom", "samples": "kernel.csv"}, "g2": g2}
    return cfg


def test_validate_reports_custom_table_error_with_other_errors(tmp_path):
    cfg = _custom_table_config(tmp_path, "0.5,2.0\n1.0,-1.0\n2.0,0.5\n",
                               {"family": "exponential", "beta": -1.0})
    _, report = validate_config(cfg, tmp_path)
    assert len(report.errors) == 2
    assert report.errors[0] == "kernels.g1.samples: sample values must be positive"
    assert report.errors[1].startswith("kernels.g2.beta: ")


def test_simulate_non_numeric_custom_table_exits_2(tmp_path, capsys):
    cfg = _custom_table_config(tmp_path, "t,g\n0.5,2.0\n1.0,1.0\n",
                               {"family": "exponential", "beta": 1.0})
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernels.g1.samples: could not convert")
    assert "Traceback" not in err


def test_simulate_non_integrable_custom_table_exits_2(tmp_path, capsys):
    # g = t^-2 below t = 1: G(0.5) came out as -2.0 for this positive kernel
    cfg = _custom_table_config(tmp_path, "0.1,100.0\n1.0,1.0\n",
                               {"family": "exponential", "beta": 1.0})
    path = _write(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: kernels.g1.samples: first segment slope -2 makes the kernel non-integrable"
        " at t = 0 (need log-log slope > -1)\n"
    )
    assert not out.exists()


def test_sweep_reversed_range_exits_2(tmp_path, capsys):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["sweep"] = {"p_range": [2.5, 1.5], "q_range": [1.5, 2.5], "resolution": 3}
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 2
    assert "non-decreasing" in capsys.readouterr().err
    assert not (tmp_path / "s" / "region.csv").exists()


# every malformed shape is reported at its own path, before any output exists
_RUNNABLE = {**MINIMAL, "sweep": {"p_range": [1.5, 2.5], "q_range": [1.5, 2.5], "resolution": 2},
             "sequences": {"case": "case1", "j_max": 5}}
MALFORMED = [
    ("simulate", {"simulation.t_max": "abc"}, "simulation.t_max"),
    ("simulate", {"simulation.snapshot_times": 1.0}, "simulation.snapshot_times"),
    ("simulate", {"simulation.snapshot_times": ["abc"]}, "simulation.snapshot_times"),
    ("simulate", {"simulation.t_max": 0.5, "simulation.snapshot_times": [0.9]},
     "simulation.snapshot_times"),
    ("simulate", {"simulation.linear": "no"}, "simulation.linear"),
    ("simulate", {"simulation.record_every": 0}, "simulation.record_every"),
    ("simulate", {"problem.n": "abc"}, "problem.n"),
    ("simulate", {"problem.n": 4}, "simulation"),
    ("simulate", {"initial.u0.amplitude": "abc"}, "initial.u0.amplitude"),
    ("simulate", {"initial": [1]}, "initial"),
    ("simulate", {"kernels.g2": {"family": "iterated_exponential", "c": 1.0, "depth": 2.5}},
     "kernels.g2.depth"),
    ("sweep", {"sweep.p_range": [1.5]}, "sweep.p_range"),
    ("sweep", {"sweep.p_range": "abc"}, "sweep.p_range"),
    ("sweep", {"sweep.resolution": "abc"}, "sweep.resolution"),
    ("sequences", {"sequences.j_max": "abc"}, "sequences.j_max"),
]


def _with(cfg: dict, changes: dict) -> dict:
    cfg = yaml.safe_load(yaml.safe_dump(cfg))
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        block = cfg
        for name in parents:
            block = block[name]
        block[key] = value
    return cfg


@pytest.mark.parametrize("command, changes, path", MALFORMED,
                         ids=[";".join(f"{k}={v}" for k, v in c.items()) for _, c, _ in MALFORMED])
def test_malformed_config_exits_2_at_its_path(tmp_path, capsys, command, changes, path):
    config = _write(tmp_path, _with(_RUNNABLE, changes))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert "Traceback" not in err
    assert not out.exists()


# range checks the constructors make, reported before any output exists
@pytest.mark.parametrize("command, changes, message", [
    ("sequences", {"sequences.j_max": 0}, "sequences.j_max: must be >= 1, got 0"),
    ("sweep", {"sweep.p_range": [2.5, 1.5]},
     "sweep.p_range: sweep p grid must be non-empty and non-decreasing"),
    ("sweep", {"sweep.q_range": [0.5, 2.5]}, "sweep.q_range: sweep powers must exceed 1, got q = 0.5"),
], ids=["j_max_0", "p_range_reversed", "q_range_below_1"])
def test_range_error_exits_2_before_output(tmp_path, capsys, command, changes, message):
    config = _write(tmp_path, _with(_RUNNABLE, changes))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("changes", [
    {"kernels.g2": {"family": "iterated_exponential", "c": 1.0, "depth": 2.0}},
    {"simulation.maxnorm_threshold": "1e6"},
], ids=["depth_2.0", "maxnorm_threshold_string"])
def test_simulate_accepts_shape(tmp_path, changes):
    config = _write(tmp_path, _with(MINIMAL, changes))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_validate_reports_every_section(tmp_path):
    cfg = _with(MINIMAL, {"kernels.g1.gamma": 1.5, "simulation.t_max": "abc"})
    _, report = validate_config(cfg, tmp_path)
    assert sorted(e.split(":")[0] for e in report.errors) == ["kernels.g1.gamma", "simulation.t_max"]


def test_resolution_ladder_is_a_simulate_flag(tmp_path):
    config = _write(tmp_path, _RUNNABLE)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(config), "--out", str(tmp_path / "s"),
              "--resolution-ladder", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_resolution_ladder_below_one_exits_2(tmp_path, capsys, levels):
    config = _write(tmp_path, MINIMAL)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(config), "--out", str(out),
              "--resolution-ladder", levels])
    assert exc.value.code == 2
    assert f"--resolution-ladder: must be >= 1, got {levels}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_validates(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme[readme.index("```yaml\n") + len("```yaml\n"):]
    raw = yaml.safe_load(block[:block.index("```")])
    resolved, report = validate_config(raw, tmp_path)
    assert report.errors == [] and report.warnings == []
    assert set(resolved) >= {"params", "kernels", "profiles", "system", "sweep", "sequences"}
