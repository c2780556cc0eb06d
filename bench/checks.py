"""Artifact checks run on each invocation, outside the timed window.

An invocation passes when it exits 0, writes exactly the expected artifact
set with the expected row counts, its FEVD rows and colimit weights are
proper shares, and its equilibrium rate is the mean of the three targets
recomputed here with numpy. Byte-identity across invocations is checked by
the caller from the digests returned here.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import CORE_VARIABLES, Inputs

SHARE_TOL = 1e-9
EQ_REL_TOL = 1e-6

# cli defaults for the keys the generated config leaves unset
GRANGER_LAGS = 5
IRF_HORIZON = 10
FEVD_HORIZON = 10
FORECAST_STEPS = 10
SENSITIVITY_LAGS = 4
COLIMIT_VARIABLES = 8

CORE_FILES = (
    "stationarity.json",
    "johansen.json",
    "granger_matrix.csv",
    "var_summary.txt",
    "var_summary.json",
    "ljung_box.json",
    "irf.csv",
    "fevd.csv",
    "forecast.csv",
)
EQUILIBRIUM_FILES = ("equilibrium.csv", "equilibrium_report.json")
COLIMIT_FILES = (
    "colimit.csv",
    "colimit_weights.json",
    "colimit_granger.json",
    "colimit_forecast.csv",
)


@dataclass
class Report:
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    eq_max_rel_err: float | None = None
    artifact_bytes: int = 0


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def expected_files(inputs: Inputs) -> set[str]:
    stages = inputs.workload.stages
    files = {"run_manifest.json"}
    if "core" in stages:
        files.update(CORE_FILES)
    if "equilibrium" in stages:
        files.update(EQUILIBRIUM_FILES)
    if "colimit" in stages:
        files.update(COLIMIT_FILES)
    if "sensitivity" in stages:
        files.update(f"scenario_{n}.csv" for n in inputs.scenario_names)
    return files


def _expect_rows(report: Report, out: Path, name: str, count: int) -> list[list[str]]:
    rows = _rows(out / name)
    if len(rows) != count:
        report.problems.append(f"{name}: {len(rows)} rows, expected {count}")
    return rows


def _check_core(report: Report, out: Path) -> None:
    k = len(CORE_VARIABLES)
    _expect_rows(report, out, "granger_matrix.csv", k * (k - 1) * GRANGER_LAGS)
    _expect_rows(report, out, "irf.csv", (IRF_HORIZON + 1) * k * k)
    _expect_rows(report, out, "forecast.csv", FORECAST_STEPS)
    for name in ("stationarity.json", "ljung_box.json"):
        if sorted(_json(out / name)) != sorted(CORE_VARIABLES):
            report.problems.append(f"{name}: keys are not the configured variables")
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for response, horizon, _shock, share in _expect_rows(
        report, out, "fevd.csv", k * FEVD_HORIZON * k
    ):
        sums[response, horizon] += float(share)
    worst = max(abs(s - 1.0) for s in sums.values())
    if worst > SHARE_TOL:
        report.problems.append(f"fevd.csv: a row sums {worst:.3e} away from 1")


def _check_equilibrium(report: Report, out: Path, inputs: Inputs) -> None:
    c = inputs.columns
    rows = _expect_rows(report, out, "equilibrium.csv", inputs.workload.rows)
    targets = (
        c["Gdp_usa"] / c["Gdp_argentina"]
        + c["Embi+ARG"] * c["Historical Ars Usd"]
        + c["Long Term Usd Rate"]
    ) / 3.0
    if len(rows) != len(targets):
        report.eq_max_rel_err = float("inf")
        return
    e_star = np.array([float(r[1]) for r in rows])
    rel = np.abs(e_star - targets) / np.maximum(1.0, np.abs(targets))
    report.eq_max_rel_err = float(rel.max())
    if not report.eq_max_rel_err <= EQ_REL_TOL:
        report.problems.append(
            f"equilibrium.csv: relative error {report.eq_max_rel_err:.3e} above {EQ_REL_TOL:g}"
        )


def _check_colimit(report: Report, out: Path, inputs: Inputs) -> None:
    _expect_rows(report, out, "colimit.csv", inputs.workload.rows)
    _expect_rows(report, out, "colimit_forecast.csv", FORECAST_STEPS)
    weights = _json(out / "colimit_weights.json")
    values = list(weights.values())
    if len(values) != COLIMIT_VARIABLES or min(values) < 0.0:
        report.problems.append("colimit_weights.json: wrong count or a negative weight")
    if abs(sum(values) - 1.0) > SHARE_TOL:
        report.problems.append(f"colimit_weights.json: weights sum to {sum(values)!r}")


def _check_sensitivity(report: Report, out: Path, inputs: Inputs) -> None:
    for name in inputs.scenario_names:
        _expect_rows(
            report, out, f"scenario_{name}.csv", inputs.workload.rows - SENSITIVITY_LAGS
        )


def check(inputs: Inputs, out: Path, exit_code: int) -> Report:
    """Every problem found with one invocation's exit code and artifacts."""
    report = Report()
    if exit_code != 0:
        report.problems.append(f"exit code {exit_code}")
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    for name in sorted(present):
        data = (out / name).read_bytes()
        report.digests[name] = hashlib.sha256(data).hexdigest()
        report.artifact_bytes += len(data)
    expected = expected_files(inputs)
    if present != expected:
        missing = sorted(expected - present)
        extra = sorted(present - expected)
        report.problems.append(f"artifact set differs: missing {missing}, extra {extra}")
        return report
    stages = inputs.workload.stages
    try:
        if "core" in stages:
            _check_core(report, out)
        if "equilibrium" in stages:
            _check_equilibrium(report, out, inputs)
        if "colimit" in stages:
            _check_colimit(report, out, inputs)
        if "sensitivity" in stages:
            _check_sensitivity(report, out, inputs)
    except (ValueError, KeyError, IndexError) as error:
        report.problems.append(f"malformed artifact: {type(error).__name__}: {error}")
    return report
