"""`bench/tracer.py` still wraps names the program has: it runs the
four-stage pipeline under its span-recording wrappers. A wrapped function
that is renamed or moved makes the child fail here, rather than only in a
traced benchmark run, and a layer that stops being called through its
wrapped name, such as a rolling window inlined into its caller, fails the
span check. The tracer's `cli.write.rows` counts ``len()`` of the rows given
to `cli._write_csv`, so each CSV write must pass one row per record."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from bimonetary import cli
from bimonetary.panel import write_csv
from tests.conftest import make_canonical_panel

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("core", "equilibrium", "colimit", "sensitivity")


def pipeline_args(tmp_path) -> list[str]:
    """The CLI arguments of a four-stage pipeline run on a small canonical
    panel, with the config and the one scenario it needs."""
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
    args = ["pipeline", "--input", str(panel), "--config", str(config)]
    args += ["--stages", ",".join(STAGES), "--scenarios", str(scenarios)]
    return args + ["--out", str(tmp_path / "out")]


def test_tracer_runs_the_pipeline_and_records_every_stage(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(ROOT / "bench" / "tracer.py")]
    command += ["--spans", str(spans), "--workload", "guard", "--"]
    command += pipeline_args(tmp_path)
    child = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    names = {name for name, *_ in json.loads(spans.read_text())["spans"]}
    assert {f"cli.{stage}" for stage in STAGES} <= names
    # the read and the colimit's windows stay calls into `panel` through the
    # names the tracer wraps, so their layers are timed
    assert {"panel.load_csv", "panel.rolling_corr", "panel.rolling_mean"} <= names


def test_each_csv_write_passes_one_row_per_record(tmp_path, monkeypatch):
    # the tracer's cli.write.rows adds up len() of _write_csv's rows
    counted = {}
    write = cli._write_csv

    def counting(path, header, rows):
        write(path, header, rows)
        counted[Path(path).name] = len(rows)

    monkeypatch.setattr(cli, "_write_csv", counting)
    assert cli.main(pipeline_args(tmp_path)) == 0
    written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert "scenario_m2_up.csv" in written
    assert sorted(counted) == written
    for name, rows in counted.items():
        with open(tmp_path / "out" / name, newline="", encoding="utf-8") as fh:
            assert rows == len(list(csv.reader(fh))) - 1 > 0, name
