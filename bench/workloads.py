"""Seeded inputs for the four benchmark workloads.

Each workload is a CSV panel, an optional config and an optional scenario
file, written into a work directory, plus the ``bimonetary`` command line
that consumes them. The same seed always gives byte-identical files. The
panel itself comes from the test suite's ``make_canonical_panel``, so the
benchmark and the tests agree on what a canonical panel looks like.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import make_canonical_panel  # noqa: E402

STRESS_ROWS = 20_000
DAILY_ROWS = 2_500

# Ten columns, so K <= 12 and the Johansen test runs. The default
# all-column core stage cannot run on the canonical panel: its `E` column is
# an exact affine combination of `Pi Exp`, `Usa Pi Exp`, `Short Interest`,
# `Short Term Usd Rate` and `Embi+ARG`, so a VAR on all 16 columns is
# collinear and `pipeline --stages core` exits 2 with RankDeficient
# (relative pivot about 2e-15). Such an exit counts as a failed invocation.
CORE_VARIABLES = (
    "M2",
    "Pi Exp",
    "Long Interest",
    "Short Interest",
    "Historical Ars Usd",
    "Argentina Net Lending Borrowing",
    "Gdp_argentina",
    "Gdp_usa",
    "Ipc Argentina",
    "Embi+ARG",
)

# `cli._stage_sensitivity`'s default model variables; shocks land on these
# so every scenario moves the fitted target.
SHOCKED_VARIABLES = (
    "Ipc Argentina",
    "M2",
    "Long Interest",
    "Short Interest",
    "Embi+ARG",
    "Historical Ars Usd",
)

MONTHLY_COLUMNS = ("Pi Exp", "Usa Pi Exp")
QUARTERLY_COLUMNS = ("Gdp_argentina", "Gdp_usa")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    stages: tuple[str, ...]     # pipeline stages whose artifacts are checked
    n_scenarios: int            # 0: no scenario file
    mixed_frequency: bool
    use_config: bool
    command: str                # "pipeline" or "scenario"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "core-stress",
            rows=STRESS_ROWS,
            stages=("core",),
            n_scenarios=0,
            mixed_frequency=False,
            use_config=True,
            command="pipeline",
        ),
        Workload(
            "limit-colimit-stress",
            rows=STRESS_ROWS,
            stages=("equilibrium", "colimit"),
            n_scenarios=0,
            mixed_frequency=False,
            use_config=False,
            command="pipeline",
        ),
        Workload(
            "daily-mixed",
            rows=DAILY_ROWS,
            stages=("core", "equilibrium", "colimit", "sensitivity"),
            n_scenarios=12,
            mixed_frequency=True,
            use_config=True,
            command="pipeline",
        ),
        Workload(
            "scenario-fanout",
            rows=STRESS_ROWS,
            stages=("sensitivity",),
            n_scenarios=24,
            mixed_frequency=False,
            use_config=False,
            command="scenario",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the exact values the program will see."""

    workload: Workload
    panel_path: Path
    config_path: Path | None
    scenarios_path: Path | None
    scenario_names: tuple[str, ...]
    columns: dict[str, np.ndarray]  # after interpolation, as `Panel.clean` does

    def cli_args(self, out: Path) -> list[str]:
        w = self.workload
        args = [w.command, "--input", str(self.panel_path), "--out", str(out)]
        if w.command == "pipeline":
            args += ["--stages", ",".join(w.stages)]
        if self.config_path is not None:
            args += ["--config", str(self.config_path)]
        if self.scenarios_path is not None:
            args += ["--scenarios", str(self.scenarios_path)]
        return args


def _mixed_frequency_mask(dates, name: str) -> np.ndarray:
    """True where the cell is kept: month starts for monthly survey columns,
    quarter starts for GDP, and always the first and last rows so
    `Panel.clean` can interpolate every gap."""
    if name in MONTHLY_COLUMNS:
        keep = np.array([d.day == 1 for d in dates])
    else:
        keep = np.array([d.day == 1 and d.month in (1, 4, 7, 10) for d in dates])
    keep[0] = keep[-1] = True
    return keep


def _write_panel(path: Path, dates, names, columns, masks) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", *names])
        for i, when in enumerate(dates):
            writer.writerow(
                [when.isoformat()]
                + [
                    repr(float(columns[n][i])) if masks.get(n) is None or masks[n][i] else ""
                    for n in names
                ]
            )


def _scenarios(rng: np.random.Generator, dates, count: int) -> list[dict]:
    """`count` single-shock scenarios, each on a window of 30 to 365 days."""
    specs = []
    for k in range(count):
        length = int(rng.integers(30, 366))
        start = int(rng.integers(0, len(dates) - length))
        variable = SHOCKED_VARIABLES[int(rng.integers(len(SHOCKED_VARIABLES)))]
        if rng.random() < 0.5:
            shock = {"kind": "multiplicative", "magnitude": float(rng.uniform(0.8, 1.25))}
        else:
            shock = {"kind": "additive", "magnitude": float(rng.uniform(-2.0, 2.0))}
        shock["variable"] = variable
        shock["window"] = [dates[start].isoformat(), dates[start + length - 1].isoformat()]
        specs.append({"name": f"shock_{k + 1:02d}", "shocks": [shock]})
    return specs


def generate(name: str, seed: int, work: Path) -> Inputs:
    """Write the inputs of workload `name` for `seed` into `work`."""
    w = WORKLOADS[name]
    panel = make_canonical_panel(w.rows, seed)
    dates = panel.dates
    names = panel.variables
    columns = {n: np.array(panel.column(n).values, dtype=float) for n in names}

    masks = {}
    if w.mixed_frequency:
        index = np.arange(w.rows)
        for n in MONTHLY_COLUMNS + QUARTERLY_COLUMNS:
            masks[n] = _mixed_frequency_mask(dates, n)
            columns[n] = np.interp(index, index[masks[n]], columns[n][masks[n]])

    panel_path = work / "panel.csv"
    _write_panel(panel_path, dates, names, columns, masks)

    config_path = None
    if w.use_config:
        config_path = work / "config.json"
        config_path.write_text(json.dumps({"variables": list(CORE_VARIABLES)}, indent=2))

    scenarios_path, scenario_names = None, ()
    if w.n_scenarios:
        specs = _scenarios(np.random.default_rng([seed, 1]), dates, w.n_scenarios)
        scenarios_path = work / "scenarios.json"
        scenarios_path.write_text(json.dumps(specs, indent=2))
        scenario_names = tuple(s["name"] for s in specs)

    return Inputs(w, panel_path, config_path, scenarios_path, scenario_names, columns)
