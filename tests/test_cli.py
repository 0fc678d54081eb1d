"""Command-line front end: validation, artifacts, determinism, snapshots."""

import ast
import csv
import functools
import graphlib
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
from memwave import exponents, kernels, solver
from memwave.cli import _write_csv, main, read_snapshot, validate_config, write_snapshot
from memwave.errors import ConfigError
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


def test_ladder_compares_the_same_times(tmp_path):
    # dt halves at each level, so the gap pairs fine row 2i with coarse row
    # i; pairing rows by index compared t with t / 2 and read 0.28 here
    cfg = _write(tmp_path, {**MINIMAL, "simulation": {"t_max": 0.2, "dr": 0.05}})
    out = tmp_path / "ladder"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--resolution-ladder", "2"]) == 0
    coarse, fine = (np.loadtxt(out / f"trace_level{k}.csv", delimiter=",", skiprows=1)
                    for k in (0, 1))
    fine = fine[::2][: len(coarse)]
    np.testing.assert_allclose(fine[:, 0], coarse[: len(fine), 0], rtol=1e-12)
    gap = np.max(np.abs(fine[:, 7] - coarse[: len(fine), 7]))
    (row,) = np.loadtxt(out / "ladder.csv", delimiter=",", skiprows=1, ndmin=2)
    assert row[2] == gap and gap < 1e-3


def test_sweep_grid(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["sweep"] = {"p_range": [1.5, 2.5], "q_range": [1.5, 2.5], "resolution": 2}
    path = _write(tmp_path, cfg)
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "region.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + 2x2 grid


def test_sweep_streams_rows(tmp_path):
    # the region is rendered and written one block at a time, whole p rows of
    # at most BLOCK_ROWS cells in all (ten rows of 400 here): the peak of
    # traced allocations stays below the 1.28 MB of a single (400, 400) float
    # plane
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


_FORKS = hasattr(os, "fork") and hasattr(os, "copy_file_range")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_region_bytes_do_not_depend_on_cpu_count(tmp_path):
    # each in a fresh interpreter: pinned to one CPU (no child), on every CPU
    # the machine gives, and told of three CPUs (more writers than cores,
    # ranges of 22, 21 and 21 rows); at resolution 1 each count is capped at
    # the one p row
    setups = {"pinned": "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n",
              "unpinned": "",
              "three": "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"}
    configs = {res: str(_write(tmp_path, {"problem": _SLOW_SWEEP, "sweep": {
        "p_range": [1.1, 4.0], "q_range": [1.1, 4.0], "resolution": res}}, f"r{res}.yaml"))
        for res in (64, 1)}
    for name, setup in setups.items():
        _run_fresh("import os\nimport memwave.cli\n" + setup + "".join(
            f"assert memwave.cli.main(['sweep', '--config', {path!r}, '--out', "
            f"'{name}{res}']) == 0\n" for res, path in configs.items()), tmp_path)
    for res in configs:
        region = [(tmp_path / f"{name}{res}" / "region.csv").read_bytes() for name in setups]
        assert region[0].count(b"\r\n") == res * res + 1
        assert region[1] == region[0] and region[2] == region[0]
    assert not list(tmp_path.glob("*/.region.csv.part*"))


def _failing_sweep(tmp_path, monkeypatch, cpus, failing):
    """Run a 10 x 10 sweep on the given CPUs whose alpha_wm raises on the
    forked child's range (the last five p rows of two) or, as an error or as
    an interrupt, on the command process's; check that it leaves no
    region.csv, no part file and no manifest.  A forked child inherits the
    patched alpha_wm."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    last_of_first = np.linspace(1.1, 4.0, 10)[4]
    alpha_wm = exponents.alpha_wm

    def failing_alpha_wm(p, *args):
        if (p > last_of_first) == (failing == "child"):
            raise KeyboardInterrupt if failing == "interrupt" else RuntimeError(p)
        return alpha_wm(p, *args)

    monkeypatch.setattr(exponents, "alpha_wm", failing_alpha_wm)
    path = _write(tmp_path, {"problem": _SLOW_SWEEP, "sweep": {
        "p_range": [1.1, 4.0], "q_range": [1.1, 4.0], "resolution": 10}})
    out = tmp_path / "s"
    error = {"child": ChildProcessError, "parent": RuntimeError, "interrupt": KeyboardInterrupt}
    with pytest.raises(error[failing]):
        main(["sweep", "--config", str(path), "--out", str(out)])
    assert not (out / "region.csv").exists()
    assert not list(out.glob(".region.csv.part*"))
    assert not (out / "manifest.json").exists()


@pytest.mark.skipif(not _FORKS, reason="sweep writes from one process here")
@pytest.mark.parametrize("failing", ["child", "parent", "interrupt"])
def test_sweep_failed_writer_leaves_no_part_or_child(tmp_path, monkeypatch, failing):
    # two ranges of five p rows on any machine
    _failing_sweep(tmp_path, monkeypatch, {0, 1}, failing)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", ["parent", "interrupt"])
def test_sweep_failed_on_one_cpu_leaves_no_region(tmp_path, monkeypatch, failing):
    # one range, written by the command process alone
    _failing_sweep(tmp_path, monkeypatch, {0}, failing)


def _run_fresh(code: str, cwd: Path) -> str:
    """Run code in a fresh interpreter that imports this memwave, and return
    its stdout; a subprocess, since the test session itself has imported
    scipy."""
    src = str(Path(memwave.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after running code."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    return json.loads(_run_fresh(script, cwd).strip().splitlines()[-1])


def test_power_law_simulate_leaves_numpy_polynomial_unloaded(tmp_path):
    # the sum-of-exponentials fit takes its Gauss-Legendre nodes from the one
    # table, so a run with a fitted tail never imports numpy.polynomial
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["t_max"] = 1.5
    path = _write(tmp_path, cfg)
    argv = ["simulate", "--config", str(path), "--out", "o"]
    code = ("import sys\nimport memwave.cli\n"
            f"assert memwave.cli.main({argv!r}) == 0\n"
            "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial'\n")
    _run_fresh(code, tmp_path)
    assert (tmp_path / "o" / "verdict.json").exists()


def test_import_cli_leaves_scipy_unloaded(tmp_path):
    assert _scipy_modules_after("import memwave.cli", tmp_path) == []


def test_package_exports_are_consistent():
    # listed names exist, the package exports only listed names, no module names scipy
    for info in pkgutil.iter_modules(memwave.__path__):
        module = importlib.import_module(f"memwave.{info.name}")
        assert all(hasattr(module, name) for name in getattr(module, "__all__", ())), info.name
    for name, obj in vars(memwave).items():
        if not name.startswith("_") and not inspect.ismodule(obj):
            assert name in sys.modules[obj.__module__].__all__, name
    for path in Path(memwave.__file__).parent.glob("*.py"):
        assert "scipy" not in path.read_text(), path.name


def test_package_imports_form_no_cycle():
    # every import between the package's modules, those inside functions too
    package = Path(memwave.__file__).parent
    names = {path.stem for path in package.glob("*.py")}

    def module(dotted: str) -> str | None:
        """The package module an import of ``dotted`` loads, if any."""
        if dotted == "memwave":
            return "__init__"
        head, _, tail = dotted.partition(".")
        return tail if head == "memwave" and tail in names else None

    graph = {}
    for path in package.glob("*.py"):
        deps = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                deps.update(module(alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level <= 1:
                base = ".".join(filter(None, ("memwave" if node.level else "", node.module)))
                deps.update(module(f"{base}.{alias.name}") or module(base)
                            for alias in node.names)
        deps.discard(None)
    assert graph["solver"] >= {"observables", "kernels"}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


_EXPONENTIAL = {"family": "exponential", "beta": 1.0}


@pytest.mark.parametrize("kernels, simulation, loads_scipy", [
    pytest.param({}, {}, False, id="exponential-params0-False"),
    pytest.param({"g2": {"family": "oscillating_polynomial", "gamma": 0.3}}, {}, False,
                 id="oscillating_polynomial-params1-False"),
    # 111 steps: past the exact window, so the riemann_liouville row builds
    # and runs its sum-of-exponentials tail, in coupled and in single mode
    pytest.param({}, {"t_max": 2.0}, False, id="exponential-mode-tail"),
    pytest.param({}, {"t_max": 2.0, "mode": "single"}, False, id="single-mode-tail"),
    pytest.param({"g1": _EXPONENTIAL}, {"t_max": 2.0, "mode": "mgt"}, False, id="mgt"),
])
def test_simulate_loads_scipy_only_for_quadrature(tmp_path, kernels, simulation, loads_scipy):
    # no family needs scipy: closed forms, or Gauss rules in NumPy
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


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # with scipy unimportable, the kernels without closed forms (two Gauss
    # rules, the tabulated power laws) and every other command still run;
    # importing the package builds no Gauss table
    generic = yaml.safe_load(yaml.safe_dump(MINIMAL))
    generic["kernels"] = {"g1": {"family": "oscillating_polynomial", "gamma": 0.3},
                          "g2": {"family": "iterated_exponential", "depth": 2, "c": 1.0}}
    custom = _custom_table_config(tmp_path, _power_law_table(10.0, 20),
                                  {"family": "exponential", "beta": 1.0})
    cfg = {**MINIMAL, "sweep": {"p_range": [1.1, 3.0], "q_range": [1.1, 3.0], "resolution": 9}}
    paths = {name: str(_write(tmp_path, c, f"{name}.yaml"))
             for name, c in (("generic", generic), ("custom", custom), ("cfg", cfg))}
    runs = [["simulate", "--config", paths["generic"], "--out", "generic"],
            ["simulate", "--config", paths["custom"], "--out", "custom"]]
    runs += [[command, "--config", paths["cfg"], "--out", command]
             for command in ("classify", "sweep", "sequences")] + [["verify", "--out", "verify"]]
    code = ("import sys\nsys.modules['scipy'] = None\nimport memwave.cli\n"
            "assert memwave.kernels._gauss_jacobi.cache_info().currsize == 0\n"
            + "".join(f"assert memwave.cli.main({argv!r}) == 0, {argv[0]!r}\n" for argv in runs))
    _run_fresh(code, tmp_path)
    assert (tmp_path / "generic" / "verdict.json").exists()


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


@pytest.mark.parametrize("case, p, q, j_max", [
    ("case1", 2.0, 3.0, 263), ("case1", 2.0, 2.0, 340), ("case2", 2.0, 3.0, 396),
    ("case2", 2.0, 2.0, 511),
])
def test_sequences_past_float_range_exits_2_before_output(tmp_path, capsys, case, p, q, j_max):
    # the first j_max whose log coefficient takes the log of a product past
    # the float range, for each case and (p, q) in n = 3
    cfg = {"problem": {"n": 3, "p": p, "q": q}, "sequences": {"case": case, "j_max": j_max}}
    out = tmp_path / "seq"
    assert main(["sequences", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sequences.j_max: "), err
    assert "Traceback" not in err
    assert not out.exists()
    cfg["sequences"]["j_max"] = j_max - 1
    assert main(["sequences", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0


def test_verify_quadrature_rows_cover_every_family(tmp_path):
    out = tmp_path / "ver"
    assert main(["verify", "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "verify.csv").read_text().splitlines()]
    checked = {name.removeprefix("quadrature_") for name, passed, _ in rows
               if name.startswith("quadrature_") and passed == "true"}
    assert checked == {name.lower() for name in kernels.__all__
                       if name not in ("MemoryKernel", "DecayTag", "DecayClass")}


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


def test_truncated_snapshot_is_rejected_at_its_path(tmp_path):
    # three values short, the last field came back with 8 cells instead of 11
    path = tmp_path / "snap.bin"
    write_snapshot(path, 1, 0.1, 0.5, np.ones((2, 11)))
    path.write_bytes(path.read_bytes()[:-24])
    with pytest.raises(ConfigError, match=f"{path}: truncated"):
        read_snapshot(path)
    # cut inside the header, after the magic and two bytes of the version
    path.write_bytes(b"MWSN\x01\x00")
    with pytest.raises(ConfigError, match=f"{path}: truncated snapshot header"):
        read_snapshot(path)


def test_nonfinite_run_that_was_not_growing_exits_3(tmp_path, monkeypatch):
    # MINIMAL's gaussian splits in two, so the peak falls; a NaN in the
    # forcing of step 10 stops the run, which did not blow up but failed
    update = solver._update_memory

    def poisoned(state):
        update(state)
        if state.step == 10:
            state.memory[0, 0] = np.nan

    monkeypatch.setattr(solver, "_update_memory", poisoned)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(_write(tmp_path, MINIMAL)), "--out", str(out)]) == 3
    verdict = json.loads((out / "verdict.json").read_text())
    assert (verdict["trigger"], verdict["blew_up"]) == ("nonfinite", False)


def test_snapshot_written_by_simulate(tmp_path):
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["snapshot_times"] = [0.2]
    path = _write(tmp_path, cfg)
    out = tmp_path / "snap"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    snaps = list(out.glob("snapshot_*.bin"))
    assert [p.name for p in snaps] == ["snapshot_0.20000000000000001.bin"]
    n, dr, t, fields = read_snapshot(snaps[0])
    # the file is named for the requested time, the header holds the time
    # reached: step 11 of dt = 0.018
    assert n == 1 and t == pytest.approx(11 * 0.018, rel=1e-12) and len(fields) == 2


def test_two_snapshot_times_on_one_step_write_two_files(tmp_path):
    # 0.2 and 0.205 both round to step 11 of dt = 0.018; each requested time
    # gets its own file, holding the fields of that step
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["snapshot_times"] = [0.2, 0.205]
    out = tmp_path / "snap"
    assert main(["simulate", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
    snaps = sorted(out.glob("snapshot_*.bin"))
    assert [p.name for p in snaps] == ["snapshot_0.20000000000000001.bin",
                                       "snapshot_0.20499999999999999.bin"]
    assert snaps[0].read_bytes() == snaps[1].read_bytes()
    assert read_snapshot(snaps[0])[2] == pytest.approx(11 * 0.018, rel=1e-12)


def test_snapshot_at_t_max_written_by_simulate(tmp_path):
    # t_max = 0.4 is 22.2 steps of dt = 0.018: the run stops at step 22 and
    # a snapshot requested at t_max is taken there
    cfg = yaml.safe_load(yaml.safe_dump(MINIMAL))
    cfg["simulation"]["snapshot_times"] = [0.4]
    out = tmp_path / "snap"
    assert main(["simulate", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
    (snap,) = out.glob("snapshot_*.bin")
    _, _, t, _ = read_snapshot(snap)
    assert t == pytest.approx(22 * 0.018, rel=1e-12)
    assert t == json.loads((out / "verdict.json").read_text())["t_stop"]


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


def _power_law_table(t_max: float, rows: int) -> str:
    """A (t, t^-0.5) table on a geometric grid from t = 0.1, as CSV text."""
    t = np.geomspace(0.1, t_max, rows)
    return "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), (t**-0.5).tolist()))


def test_classify_short_custom_table_exits_2_before_output(tmp_path, capsys):
    # 5 samples cannot be classified (16 are needed): a path-tagged error, no directory
    cfg = _custom_table_config(tmp_path, _power_law_table(10.0, 5),
                               {"family": "exponential", "beta": 1.0})
    out = tmp_path / "o"
    assert main(["classify", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernels.g1.samples: need at least 16 samples to classify, got 5")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "classify"])
@pytest.mark.parametrize("row, column, text", [(2, 1, "nan"), (-1, 0, "inf")],
                         ids=["nan-value", "inf-time"])
def test_non_finite_custom_sample_exits_2_at_its_path(tmp_path, capsys, command, row, column,
                                                      text):
    # a NaN value ran to a numerical failure (exit 3) and classified as a
    # decay class; an inf time stopped classify with an SVD error
    rows = [row.split(",") for row in _power_law_table(100.0, 40).splitlines()]
    rows[row][column] = text
    cfg = _custom_table_config(tmp_path, "".join(",".join(row) + "\n" for row in rows),
                               {"family": "exponential", "beta": 1.0})
    out = tmp_path / "o"
    assert main([command, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernels.g1.samples: "), err
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("g2", [{"family": "riemann_liouville", "gamma": 0.5},
                                {"family": "exponential", "beta": 1.0}],
                         ids=["slow-slow", "slow-fast"])
def test_classify_fits_custom_table_once(tmp_path, monkeypatch, g2):
    cfg = _custom_table_config(tmp_path, _power_law_table(100.0, 40), g2)
    fits = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *a, **k: fits.append(a) or polyfit(*a, **k))
    out = tmp_path / "o"
    assert main(["classify", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 0
    assert len(fits) == 1


def test_verify_without_config_resolves_nothing(tmp_path):
    out = tmp_path / "ver"
    assert main(["verify", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {}
    assert "resolved_simulation" not in manifest


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
    ("simulate", {"simulation.t_max": 0.015}, "simulation.t_max"),  # below dt = 0.018
    ("simulate", {"simulation.maxnorm_threshold": 0.0}, "simulation.maxnorm_threshold"),
    # a whole history, n_steps by n_cells + 1 doubles, that NumPy cannot
    # index; each run stopped with a traceback, "Maximum allowed size
    # exceeded" from radii() or, the last, an OverflowError counting its steps
    ("simulate", {"initial.u0.radius": 1e300}, "simulation"),
    ("simulate", {"simulation.t_max": 1e300}, "simulation"),
    ("simulate", {"simulation.dr": 1e-300}, "simulation"),
    ("simulate", {"simulation.t_max": 1e300, "simulation.dr": 1e-300}, "simulation"),
    # a cfl * dr that underflows to dt = 0 stopped with a ZeroDivisionError
    ("simulate", {"simulation.cfl": 1.0e-320, "simulation.dr": 1.0e-5}, "simulation.cfl"),
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
    ("sweep", {"problem.gamma1": 0.5}, "problem.gamma2: give both fractional orders or neither"),
    ("sweep", {"problem.gamma2": 0.7}, "problem.gamma1: give both fractional orders or neither"),
], ids=["j_max_0", "p_range_reversed", "q_range_below_1", "gamma2_missing", "gamma1_missing"])
def test_range_error_exits_2_before_output(tmp_path, capsys, command, changes, message):
    config = _write(tmp_path, _with(_RUNNABLE, changes))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "[1, 2]\n", "problem: [\n"],
                         ids=["missing_file", "not_a_mapping", "bad_yaml"])
def test_unloadable_config_exits_2_at_its_path(tmp_path, capsys, text):
    config = tmp_path / "cfg.yaml"
    if text is not None:
        config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: "), err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [
    ("simulate", "simulation"), ("classify", "kernels"), ("sweep", "sweep"),
])
def test_missing_section_exits_2_at_its_path(tmp_path, capsys, command, section):
    config = _write(tmp_path, {"problem": MINIMAL["problem"]})
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {section}: missing, and {command} requires it\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("section", ["kernels", "initial.u0", "initial.u1"])
def test_simulation_without_its_inputs_exits_2_at_the_missing_path(tmp_path, capsys, command,
                                                                    section):
    # a simulation section needs the kernels and both u profiles, and every
    # command resolves it; the fault is the missing input's, not the section's
    cfg = _with(_RUNNABLE, {})
    *parents, key = section.split(".")
    del functools.reduce(dict.__getitem__, parents, cfg)[key]
    out = tmp_path / "out"
    assert main([command, "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {section}: missing, and simulation requires it\n"
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


def _readme_block(language: str) -> str:
    """The README's one fenced block in the given language."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fence = f"```{language}\n"
    assert readme.count(fence) == 1, language
    block = readme[readme.index(fence) + len(fence):]
    return block[:block.index("```")]


def test_readme_config_validates(tmp_path):
    raw = yaml.safe_load(_readme_block("yaml"))
    resolved, report = validate_config(raw, tmp_path)
    assert report.errors == [] and report.warnings == []
    assert set(resolved) >= {"params", "kernels", "profiles", "system", "sweep", "sequences"}


def test_readme_quick_start_runs():
    # an export the documented quick start relies on cannot go away unnoticed
    exec(compile(_readme_block("python"), "README.md", "exec"), {})
