import json
from pathlib import Path

import numpy as np
import pytest

from bimonetary.category import (
    Affine,
    Diagram,
    EconObject,
    MorphismSpec,
    compose,
    diagram_to_json,
)
from bimonetary.cli import main
from bimonetary.panel import CANONICAL_VARIABLES, write_csv
from tests.conftest import SEED, daily_dates, make_canonical_panel


@pytest.fixture
def canonical_csv(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(make_canonical_panel(260), path)
    return path


def synthetic_csv(tmp_path, n_rows=300, k=3, name="small.csv"):
    from bimonetary.panel import Panel, Series

    rng = np.random.default_rng(SEED)
    columns = {
        f"v{i}": Series.of(np.cumsum(rng.standard_normal(n_rows)) * 0.1 + 5)
        for i in range(k)
    }
    path = tmp_path / name
    write_csv(Panel(daily_dates(n_rows), columns), path)
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestValidate:
    def test_valid_canonical_csv(self, canonical_csv, capsys):
        assert main(["validate", "--input", str(canonical_csv)]) == 0
        out = capsys.readouterr().out
        for name in CANONICAL_VARIABLES:
            assert f"column {name!r}: present" in out

    def test_missing_column_exits_one_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        header = ",".join(["Date"] + [c for c in CANONICAL_VARIABLES if c != "E"])
        path.write_text(header + "\n", encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert "'E': MISSING" in captured.out
        assert "E" in captured.err

    def test_duplicate_date_exits_one_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        rows = ["Date,x", "2018-01-01,1", "2018-01-01,2"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema": ["x"]}), encoding="utf-8")
        common = ["--input", str(path), "--config", str(config)]
        errors = []
        for argv in (
            ["validate", *common],
            ["equilibrium", *common, "--out", str(tmp_path / "out")],
        ):
            assert main(argv) == 1
            (line,) = capsys.readouterr().err.strip().splitlines()
            assert "2018-01-01" in line
            errors.append(json.loads(line)["error"])
        assert errors == ["DuplicateDate", "DuplicateDate"]

    def test_short_row_rejected_like_load_csv(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        rows = ["Date,x,y", "2018-01-01,1,2", "2018-01-02,3", "2018-01-03,4,5"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        errors = []
        for argv in (
            ["validate", "--input", str(path)],
            ["pipeline", "--input", str(path), "--out", str(tmp_path / "out")],
        ):
            assert main(argv) == 1
            (line,) = capsys.readouterr().err.strip().splitlines()
            doc = json.loads(line)
            errors.append((doc["error"], doc["message"]))
        assert errors[0] == errors[1] == (
            "UnparseableValue",
            "row 3, column 'y': cannot parse '<absent cell>'",
        )


@pytest.mark.parametrize(
    "stage, config, scenarios",
    [
        ("sensitivity", {}, [{"name": "no shocks"}]),
        ("core", {"variables": ["M2", "Ipc Argentina"], "max_lags": "ten"}, []),
        ("sensitivity", {"sensitivity": {"window": 5}}, []),
        ("colimit", {"colimit": {"variables": 5}}, []),
        ("equilibrium", {"equilibrium": 5}, []),
        ("core", {"schema": 5}, []),
    ],
    ids=[
        "scenario-without-shocks",
        "max-lags-not-integer",
        "sensitivity-window-not-list",
        "colimit-variables-not-list",
        "equilibrium-not-object",
        "schema-not-list",
    ],
)
def test_malformed_file_is_one_input_error_line(
    canonical_csv, tmp_path, capsys, stage, config, scenarios
):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")
    scenario_file = tmp_path / "scenarios.json"
    scenario_file.write_text(json.dumps(scenarios), encoding="utf-8")
    code = main(
        [
            "pipeline",
            "--input",
            str(canonical_csv),
            "--config",
            str(config_file),
            "--stages",
            stage,
            "--scenarios",
            str(scenario_file),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == "InputError"


class TestPipeline:
    def test_core_artifacts_on_synthetic_panel(self, tmp_path):
        csv_path = synthetic_csv(tmp_path)
        out = tmp_path / "artifacts"
        code = main(
            ["pipeline", "--input", str(csv_path), "--out", str(out)]
        )
        assert code == 0
        for artifact in (
            "stationarity.json",
            "johansen.json",
            "granger_matrix.csv",
            "var_summary.txt",
            "var_summary.json",
            "ljung_box.json",
            "fevd.csv",
            "irf.csv",
            "forecast.csv",
            "run_manifest.json",
        ):
            assert (out / artifact).exists(), artifact

    def test_equilibrium_stage_contract(self, canonical_csv, tmp_path):
        out = tmp_path / "eq"
        code = main(
            [
                "pipeline",
                "--input",
                str(canonical_csv),
                "--out",
                str(out),
                "--stages",
                "equilibrium",
            ]
        )
        assert code == 0
        header = (out / "equilibrium.csv").read_text().splitlines()[0]
        assert header == "Date,equilibrio_tipo_de_cambio,observed,gap,penalty"

    def test_determinism_byte_identical_runs(self, tmp_path):
        csv_path = synthetic_csv(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert (
                main(
                    [
                        "pipeline",
                        "--input",
                        str(csv_path),
                        "--out",
                        str(out),
                        "--seed",
                        "42",
                    ]
                )
                == 0
            )
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_failure_reports_stage_on_stderr(self, tmp_path, capsys):
        # constant column: VAR design is collinear -> numerical exit code
        from bimonetary.panel import Panel, Series

        rng = np.random.default_rng(SEED)
        path = tmp_path / "const.csv"
        write_csv(
            Panel(
                daily_dates(60),
                {
                    "a": Series.of(rng.standard_normal(60)),
                    "b": Series.of([3.0] * 60),
                },
            ),
            path,
        )
        out = tmp_path / "x"
        code = main(["pipeline", "--input", str(path), "--out", str(out)])
        assert code == 2
        line = capsys.readouterr().err.strip().splitlines()[-1]
        doc = json.loads(line)
        assert doc["stage"] == "core"
        assert doc["error"]


    def test_cholesky_order_reorders_variables(self, tmp_path):
        csv_path = synthetic_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"cholesky_order": ["v2", "v0", "v1"]}), encoding="utf-8"
        )
        out = tmp_path / "ordered"
        code = main(
            [
                "pipeline",
                "--input",
                str(csv_path),
                "--out",
                str(out),
                "--config",
                str(config),
            ]
        )
        assert code == 0
        doc = json.loads((out / "var_summary.json").read_text())
        assert doc["variables"] == ["v2", "v0", "v1"]


class TestScenarioCommand:
    def test_three_scenarios_three_csvs(self, canonical_csv, tmp_path):
        scenario_file = tmp_path / "scenarios.json"
        scenario_file.write_text(
            json.dumps(
                [
                    {
                        "name": "m2 up",
                        "shocks": [
                            {"variable": "M2", "kind": "multiplicative", "magnitude": 1.5}
                        ],
                    },
                    {
                        "name": "rate up",
                        "shocks": [
                            {"variable": "Long Interest", "kind": "additive", "magnitude": 5.0}
                        ],
                    },
                    {
                        "name": "combined",
                        "shocks": [
                            {"variable": "M2", "kind": "multiplicative", "magnitude": 1.5},
                            {"variable": "Long Interest", "kind": "additive", "magnitude": 5.0},
                        ],
                    },
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "scen"
        code = main(
            [
                "scenario",
                "--input",
                str(canonical_csv),
                "--scenarios",
                str(scenario_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        names = {p.name for p in out.glob("scenario_*.csv")}
        assert names == {
            "scenario_m2_up.csv",
            "scenario_rate_up.csv",
            "scenario_combined.csv",
        }

    def test_empty_scenario_list_warns(self, canonical_csv, tmp_path, capsys):
        scenario_file = tmp_path / "empty.json"
        scenario_file.write_text("[]", encoding="utf-8")
        out = tmp_path / "scen"
        code = main(
            [
                "scenario",
                "--input",
                str(canonical_csv),
                "--scenarios",
                str(scenario_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "no scenarios" in capsys.readouterr().err
        assert not list(out.glob("scenario_*.csv"))

    def test_bad_variable_name_exits_one(self, canonical_csv, tmp_path, capsys):
        scenario_file = tmp_path / "bad.json"
        scenario_file.write_text(
            json.dumps(
                [
                    {
                        "name": "bad",
                        "shocks": [
                            {"variable": "Nope", "kind": "additive", "magnitude": 1.0}
                        ],
                    }
                ]
            ),
            encoding="utf-8",
        )
        out = tmp_path / "scen"
        code = main(
            [
                "scenario",
                "--input",
                str(canonical_csv),
                "--scenarios",
                str(scenario_file),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "Nope" in capsys.readouterr().err


class TestOtherCommands:
    def test_colimit_outputs(self, canonical_csv, tmp_path):
        out = tmp_path / "col"
        code = main(["colimit", "--input", str(canonical_csv), "--out", str(out)])
        assert code == 0
        header = (out / "colimit.csv").read_text().splitlines()[0]
        assert header.startswith(
            "Date,pca_aggregate,weighted_aggregate,scaled,smoothed,E,"
        )
        weights = json.loads((out / "colimit_weights.json").read_text())
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_calibrate_then_simulate(self, canonical_csv, tmp_path):
        out_c = tmp_path / "cal"
        assert (
            main(["calibrate", "--input", str(canonical_csv), "--out", str(out_c)])
            == 0
        )
        doc = json.loads((out_c / "coefficients.json").read_text())
        assert set(doc["r_squared"]) == {
            "peso_demand",
            "dollar_demand",
            "inflation",
            "income",
        }

        out_s = tmp_path / "sim"
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps({"coefficients": str(out_c / "coefficients.json")}),
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "simulate",
                    "--input",
                    str(canonical_csv),
                    "--out",
                    str(out_s),
                    "--config",
                    str(config),
                ]
            )
            == 0
        )
        header = (out_s / "forecast_panel.csv").read_text().splitlines()[0]
        assert "model_L_ars" in header and "model_E" in header

    def test_functor_check_on_commuting_diagram(self, canonical_csv, tmp_path):
        m2 = EconObject("M2")
        target = EconObject("flow")
        f = MorphismSpec(Affine(2.0, 1.0), m2, target)
        g = MorphismSpec(Affine(1.0, 0.0), target, target)
        diagram = Diagram(
            (m2, target), (f, g), (((f, g), (compose(f, g),)),)
        )
        diagram_file = tmp_path / "diagram.json"
        diagram_file.write_text(json.dumps(diagram_to_json(diagram)))
        out = tmp_path / "fc"
        code = main(
            [
                "functor-check",
                "--input",
                str(canonical_csv),
                "--diagram",
                str(diagram_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "commutation.json").read_text())
        assert doc["passed"] is True

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(
            ["pipeline", "--input", str(tmp_path / "absent.csv"), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.strip()
