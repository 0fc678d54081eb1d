"""Child process of the benchmark; each use is a fresh interpreter.

    python3 perfbench/probe.py setup CONFIG
        Import memwave.cli, then load and validate CONFIG.  Prints
        {"setup_s": ...}; exits 2 if the config does not validate.

    python3 perfbench/probe.py trace SPANS_JSON CLI_ARG...
        Import memwave.cli, hook every layer (tracing.HOOKS), run
        memwave.cli.main(CLI_ARG...) in-process and write the spans, counters
        and hook lists to SPANS_JSON.  Exits with main's status.

memwave must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def setup(config: Path) -> int:
    t0 = perf_counter()
    import memwave.cli as cli

    raw = cli.load_config(config)
    _, report = cli.validate_config(raw, config.parent)
    elapsed = perf_counter() - t0
    if report.errors:
        print("\n".join(report.errors), file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": elapsed}))
    return 0


def trace(spans_path: Path, argv: list[str]) -> int:
    t0 = perf_counter()
    import memwave.cli

    import_s = perf_counter() - t0
    import tracing

    tracer = tracing.Tracer()
    tracing.install_hooks(tracer)
    status = memwave.cli.main(argv)
    spans_path.write_text(json.dumps({
        "import_s": import_s,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "installed": sorted(tracer.installed),
        "missing": tracer.missing,
    }))
    return status


if __name__ == "__main__":
    mode, target, *rest = sys.argv[1:]
    sys.exit(setup(Path(target)) if mode == "setup" else trace(Path(target), rest))
