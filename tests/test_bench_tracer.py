"""`bench/tracer.py` still wraps names the program has: it runs the
four-stage pipeline under its span-recording wrappers. A wrapped function
that is renamed or moved makes the child fail here, rather than only in a
traced benchmark run, and a layer that stops being called through its
wrapped name, such as a rolling window inlined into its caller, fails the
span check."""

import json
import os
import subprocess
import sys
from pathlib import Path

from bimonetary.panel import write_csv
from tests.conftest import make_canonical_panel

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("core", "equilibrium", "colimit", "sensitivity")


def test_tracer_runs_the_pipeline_and_records_every_stage(tmp_path):
    panel = tmp_path / "panel.csv"
    write_csv(make_canonical_panel(400), panel)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"variables": ["M2", "Pi Exp", "Long Interest", "Embi+ARG"]}),
        encoding="utf-8",
    )
    scenarios = tmp_path / "scenarios.json"
    shock = {"variable": "M2", "kind": "multiplicative", "magnitude": 1.1}
    scenarios.write_text(
        json.dumps([{"name": "m2 up", "shocks": [shock]}]), encoding="utf-8"
    )
    spans = tmp_path / "spans.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(ROOT / "bench" / "tracer.py")]
    command += ["--spans", str(spans), "--workload", "guard", "--"]
    command += ["pipeline", "--input", str(panel), "--config", str(config)]
    command += ["--stages", ",".join(STAGES), "--scenarios", str(scenarios)]
    command += ["--out", str(tmp_path / "out")]
    child = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    names = {name for name, *_ in json.loads(spans.read_text())["spans"]}
    assert {f"cli.{stage}" for stage in STAGES} <= names
    # the read and the colimit's windows stay calls into `panel` through the
    # names the tracer wraps, so their layers are timed
    assert {"panel.load_csv", "panel.rolling_corr", "panel.rolling_mean"} <= names
