import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bimonetary.category import (
    Affine,
    Diagram,
    EconObject,
    Functor,
    MorphismSpec,
    Ratio,
    RiskDiscount,
    ScaleBySeries,
    apply_functor,
    compose,
)
from bimonetary.cli import SensitivitySection, _sha256, main
from bimonetary.panel import (
    CANONICAL_VARIABLES,
    Panel,
    Series,
    load_csv,
    text_rows,
    write_csv,
    write_rows,
)
from bimonetary.scenarios import Shock, run_sensitivity
from bimonetary.typed_json import dump, parse
from tests.conftest import SEED, daily_dates, functor_document, make_canonical_panel

SRC = Path(__file__).resolve().parent.parent / "src"


def whole_file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def canonical_csv(tmp_path):
    path = tmp_path / "panel.csv"
    write_csv(make_canonical_panel(260), path)
    return path


def synthetic_csv(tmp_path, n_rows=300, k=3, name="small.csv"):
    from bimonetary.panel import Panel, Series

    rng = np.random.default_rng(SEED)
    columns = {
        f"v{i}": Series(np.cumsum(rng.standard_normal(n_rows)) * 0.1 + 5)
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

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # spreadsheet tools save "CSV UTF-8" with a leading byte-order mark
        plain = tmp_path / "plain.csv"
        write_csv(make_canonical_panel(200), plain)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        panels = [load_csv(path) for path in (plain, marked)]
        assert panels[0].dates == panels[1].dates
        assert panels[0].variables == panels[1].variables
        for name in panels[0].variables:
            np.testing.assert_array_equal(
                panels[0].column(name).array, panels[1].column(name).array
            )
        reports = []
        for path in (plain, marked):
            assert main(["validate", "--input", str(path)]) == 0
            reports.append(capsys.readouterr().out.replace(str(path), "PATH"))
        assert reports[0] == reports[1]

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

    def test_repeated_header_name_exits_one_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("Date,M2,M2\n2018-01-01,1,2\n", encoding="utf-8")
        errors = []
        for argv in (
            ["validate", "--input", str(path)],
            ["pipeline", "--input", str(path), "--out", str(tmp_path / "out")],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.strip().splitlines()
            doc = json.loads(line)
            errors.append((doc["error"], doc["message"]))
        message = "column 'M2' appears more than once in the header"
        assert errors == [("DuplicateColumn", message)] * 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2018-01-02,3", "row 3, column 'y': cannot parse '<absent cell>'"),
            ("2018-01-02,3,abc", "row 3, column 'y': cannot parse 'abc'"),
            ("2018-01-02,nan,3", "row 3, column 'x': cannot parse 'nan'"),
            ("2018-01-02,3,inf", "row 3, column 'y': cannot parse 'inf'"),
        ],
        ids=["short-row", "abc", "nan", "inf"],
    )
    def test_short_row_rejected_like_load_csv(self, tmp_path, capsys, row, message):
        path = tmp_path / "short.csv"
        rows = ["Date,x,y", "2018-01-01,1,2", row, "2018-01-03,4,5"]
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
        assert errors[0] == errors[1] == ("UnparseableValue", message)

    @pytest.mark.parametrize(
        "n_rows, cell",
        [(300, '"' + "1" * 200_000 + '"'), (500, '"12')],
        ids=["cell-over-field-limit", "unterminated-quote"],
    )
    def test_record_the_csv_module_cannot_split_names_its_row(
        self, tmp_path, n_rows, cell
    ):
        # the csv module stops a field at 131,072 characters; an unterminated
        # quote runs to the end of the file, so any input over that size hits it
        plain = tmp_path / "plain.csv"
        write_csv(make_canonical_panel(n_rows), plain)
        lines = plain.read_text(encoding="utf-8").splitlines()
        cells = lines[50].split(",")
        cells[3] = cell
        lines[50] = ",".join(cells)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert path.stat().st_size > 131_072
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        for command, extra in (
            ("validate", []),
            ("pipeline", ["--out", str(tmp_path / "out")]),
        ):
            child = subprocess.run(
                [sys.executable, "-m", "bimonetary", command, "--input", str(path)]
                + extra,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert child.returncode == 1
            assert "Traceback" not in child.stderr
            (line,) = child.stderr.strip().splitlines()
            doc = json.loads(line)
            assert doc["error"] == "MalformedRecord"
            assert doc["message"].startswith("row 51: ")


@pytest.mark.parametrize(
    "command, stage, config, scenarios",
    [
        ("pipeline", "sensitivity", {}, [{"name": "no shocks"}]),
        ("pipeline", "core", {"variables": ["M2", "Ipc Argentina"], "max_lags": "ten"}, []),
        ("pipeline", "sensitivity", {"sensitivity": {"window": 5}}, []),
        ("pipeline", "colimit", {"colimit": {"variables": 5}}, []),
        ("pipeline", "equilibrium", {"equilibrium": 5}, []),
        ("pipeline", "core", {"schema": 5}, []),
        ("pipeline", "core", {"criterion": 5}, []),
        ("pipeline", "core", {"criterion": "xyz"}, []),
        ("pipeline", "colimit", {"colimit": {"standardize": "no"}}, []),
        ("pipeline", "equilibrium", {"equilibrium": {"embi_in_percent": "yes"}}, []),
        ("pipeline", "equilibrium", {"interpolate": "no"}, []),
        ("calibrate", None, {"include_intercepts": 1}, []),
        ("calibrate", None, {"proxies": {"bogus": "M2"}}, []),
        ("simulate", None, {"coefficients": 5}, []),
        ("pipeline", "core", {"max_lag": 3}, []),
        ("pipeline", "core", {"max_lags": -1}, []),
        ("pipeline", "core", {"granger_max_lag": 0}, []),
        ("pipeline", "core", {"johansen_k_ar_diff": -1}, []),
        ("pipeline", "core", {"ljung_box_lags": 0}, []),
        ("pipeline", "core", {"irf_horizon": -1}, []),
        ("pipeline", "core", {"fevd_horizon": 0}, []),
        ("pipeline", "core", {"forecast_steps": -1}, []),
        ("pipeline", "colimit", {"colimit": {"n_components": 0}}, []),
        ("pipeline", "core", {"schema": [*CANONICAL_VARIABLES, "M2"]}, []),
        ("pipeline", "core", {"variables": ["M2", "M2", "Pi Exp"]}, []),
        ("pipeline", "core", {"cholesky_order": ["M2", "Pi Exp", "M2"]}, []),
        (
            "pipeline",
            "colimit",
            {
                "colimit": {
                    "variables": ["Pi Exp", "Pi Exp", "Long Interest"],
                    "n_components": 3,
                }
            },
            [],
        ),
        (
            "pipeline",
            "sensitivity",
            {"sensitivity": {"model_variables": ["M2", "Ipc Argentina", "M2"]}},
            [],
        ),
        (
            "pipeline",
            "sensitivity",
            {},
            [
                {
                    "name": "bad kind",
                    "shocks": [{"variable": "M2", "kind": "bogus", "magnitude": 1.0}],
                }
            ],
        ),
    ],
    ids=[
        "scenario-without-shocks",
        "max-lags-not-integer",
        "sensitivity-window-not-list",
        "colimit-variables-not-list",
        "equilibrium-not-object",
        "schema-not-list",
        "criterion-not-string",
        "criterion-unknown",
        "standardize-not-bool",
        "embi-in-percent-not-bool",
        "interpolate-not-bool",
        "include-intercepts-not-bool",
        "proxies-unknown-key",
        "coefficients-not-string",
        "unknown-top-level-key",
        "max-lags-negative",
        "granger-max-lag-zero",
        "johansen-k-ar-diff-negative",
        "ljung-box-lags-zero",
        "irf-horizon-negative",
        "fevd-horizon-zero",
        "forecast-steps-negative",
        "n-components-zero",
        "schema-repeats-name",
        "variables-repeat-name",
        "cholesky-order-repeats-name",
        "colimit-variables-repeat-name",
        "model-variables-repeat-name",
        "shock-kind-unknown",
    ],
)
def test_malformed_file_is_one_input_error_line(
    canonical_csv, tmp_path, capsys, command, stage, config, scenarios
):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")
    scenario_file = tmp_path / "scenarios.json"
    scenario_file.write_text(json.dumps(scenarios), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--input", str(canonical_csv), "--config", str(config_file)]
    if command == "pipeline":
        argv += ["--stages", stage, "--scenarios", str(scenario_file)]
    code = main([*argv, "--out", str(out)])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == "InputError"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "stages, scenarios, names",
    [
        ("cor", None, "'cor'"),
        ("core,equilibrium,colimt", None, "'colimt'"),
        ("", None, "unknown stage ''"),
        (",core", None, "unknown stage ''"),
        ("core,sensitivity", None, "--scenarios"),
        ("core,sensitivity", [{"name": 5, "shocks": []}], "name"),
        ("core,equilibrium,colimit,sensitivity", [{"name": "no shocks"}], "shocks"),
    ],
    ids=[
        "unknown-stage",
        "unknown-later-stage",
        "empty-stage-list",
        "empty-stage-name",
        "sensitivity-without-scenarios",
        "scenario-name-not-string",
        "scenario-without-shocks",
    ],
)
def test_bad_invocation_fails_before_any_stage_writes(
    canonical_csv, tmp_path, capsys, stages, scenarios, names
):
    # a core stage that runs to the end on these three columns, so a check
    # made only when its stage is reached would come after nine artifacts
    config_file = tmp_path / "cfg.json"
    config_file.write_text(
        json.dumps({"variables": ["M2", "Ipc Argentina", "Pi Exp"]}), encoding="utf-8"
    )
    out = tmp_path / "out"
    argv = ["pipeline", "--input", str(canonical_csv), "--config", str(config_file)]
    argv += ["--stages", stages]
    if scenarios is not None:
        scenario_file = tmp_path / "scenarios.json"
        scenario_file.write_text(json.dumps(scenarios), encoding="utf-8")
        argv += ["--scenarios", str(scenario_file)]
    code = main([*argv, "--out", str(out)])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "InputError"
    assert names in doc["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("sensitivity", "max_lags", -1, "max_lags"),
        ("colimit", "corr_window", 0, "corr_window"),
        ("colimit", "smooth_window", 0, "smooth_window"),
        ("colimit", "corr_min_periods", 0, "corr_min_periods"),
        # above the default corr_window
        ("colimit", "corr_min_periods", 181, "corr_min_periods"),
        ("sensitivity", "window", ["2018-06-01", "2018-03-01"], "window"),
        ("sensitivity", "target", "E", "target"),
        # the default target is then outside the list
        ("sensitivity", "model_variables", [], "target"),
    ],
    ids=[
        "sensitivity-max-lags-negative",
        "corr-window-zero",
        "smooth-window-zero",
        "corr-min-periods-zero",
        "corr-min-periods-above-window",
        "sensitivity-window-reversed",
        "sensitivity-target-unknown",
        "sensitivity-model-variables-empty",
    ],
)
def test_config_range_is_checked_before_any_stage_writes(
    canonical_csv, tmp_path, capsys, section, key, value, named
):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    scenario_file = tmp_path / "scenarios.json"
    scenario_file.write_text(
        json.dumps([{"name": "s", "shocks": [_valid_shock()]}]), encoding="utf-8"
    )
    out = tmp_path / "out"
    code = main([
        "pipeline", "--input", str(canonical_csv), "--config", str(config_file),
        "--scenarios", str(scenario_file),
        "--stages", "equilibrium,colimit,sensitivity", "--out", str(out),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "InputError"
    assert doc["message"].startswith(f"config.{section}: {named} must")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("stamp", ["2023-01-01T23:59", "2023-01-01 00:00:00.5"])
def test_config_date_with_a_time_of_day_is_an_input_error(
    canonical_csv, tmp_path, capsys, stamp
):
    config_file = tmp_path / "cfg.json"
    config = {"sensitivity": {"window": [stamp, None]}}
    config_file.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "pipeline", "--input", str(canonical_csv), "--config", str(config_file),
        "--stages", "core", "--out", str(out),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    doc = json.loads(line)
    assert doc["error"] == "InputError"
    assert doc["message"].startswith("config.sensitivity.window[0] must")


def _valid_shock(**change):
    return {"variable": "M2", "kind": "additive", "magnitude": 1.0, **change}


def _edge(source="M2", target="flow", **kind):
    return {"source": source, "target": target, "kind": {"type": "affine", **kind}}


def _diagram(**change):
    nodes = [{"id": "M2"}, {"id": "flow"}]
    return {"nodes": nodes, "edges": [_edge(a=2.0, b=1.0)], **change}


def _functor(**change):
    object_map = {"M2": {"id": "M2"}, "flow": {"id": "flow"}}
    return {"name": "id", "object_map": object_map, **change}


@pytest.mark.parametrize(
    "kind, doc, where",
    [
        ("coefficients", {"alpha9": 1.0}, "coefficients.alpha9"),
        ("coefficients", {"alpha1": "x"}, "coefficients.alpha1"),
        ("coefficients", [1, 2], "coefficients"),
        ("scenarios", [{"name": 5, "shocks": [_valid_shock()]}], "scenarios[0].name"),
        (
            "scenarios",
            [
                {
                    "name": "w",
                    "shocks": [
                        _valid_shock(window=["2018-01-01", "2018-02-01", "2018-03-01"])
                    ],
                }
            ],
            "scenarios[0].shocks[0].window",
        ),
        (
            "scenarios",
            [
                {
                    "name": "w",
                    "shocks": [_valid_shock(window=["2018-06-01", "2018-03-01"])],
                }
            ],
            "scenarios[0].shocks[0]: window must not start after it ends",
        ),
        (
            "scenarios",
            [{"name": "m", "shocks": [_valid_shock(magnitude=True)]}],
            "scenarios[0].shocks[0].magnitude",
        ),
        ("diagram", [], "diagram"),
        ("diagram", {}, "diagram.nodes"),
        ("diagram", {"objects": 5}, "diagram.objects"),
        ("functor", {"object_map": 5}, "functor.object_map"),
        ("diagram", _diagram(equal_path=[]), "diagram.equal_path"),
        ("diagram", _diagram(edges=[_edge(a=True, b=0.0)]), "diagram.edges[0].kind.a"),
        (
            "diagram",
            _diagram(edges=[_edge(type="scale_by_series", variable=5)]),
            "diagram.edges[0].kind.variable",
        ),
        (
            "diagram",
            _diagram(edges=[_edge(type="chain", parts=[])]),
            "diagram.edges[0].kind",
        ),
        ("diagram", _diagram(edges=[_edge(type="pow")]), "diagram.edges[0].kind.type"),
        (
            "diagram",
            _diagram(edges=[_edge(target="zz", a=1, b=0)]),
            "diagram: edges[0]",
        ),
        (
            "functor",
            _functor(morphism_map=[{"to": _edge(a=2.0, b=1.0)}]),
            "functor.morphism_map[0].from",
        ),
        (
            "diagram",
            _diagram(
                equal_paths=[[[_edge(a=1, b=0), _edge(a=1, b=0)], [_edge(a=1, b=0)]]]
            ),
            "diagram: equal_paths[0][0][1] starts at 'M2'",
        ),
        (
            "diagram",
            _diagram(
                nodes=[{"id": "M2"}, {"id": "flow"}, {"id": "flow2"}],
                equal_paths=[[[_edge(a=1, b=0)], [_edge(target="flow2", a=1, b=0)]]],
            ),
            "diagram: equal_paths[0] pairs a path into 'flow' with one into 'flow2'",
        ),
    ],
    ids=[
        "coefficients-unknown-key",
        "coefficient-not-number",
        "coefficients-not-object",
        "scenario-name-not-string",
        "shock-window-three-elements",
        "shock-window-reversed",
        "shock-magnitude-bool",
        "diagram-list",
        "diagram-empty-object",
        "diagram-objects-not-list",
        "functor-object-map-not-object",
        "diagram-equal-paths-misspelt",
        "affine-coefficient-bool",
        "scale-variable-not-string",
        "chain-empty",
        "morphism-type-unknown",
        "edge-target-not-a-node",
        "functor-map-entry-without-from",
        "equal-path-links-broken",
        "equal-paths-endpoints-differ",
    ],
)
def test_malformed_input_file_is_one_input_error_line(
    canonical_csv, tmp_path, capsys, kind, doc, where
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"coefficients": str(path)}), encoding="utf-8")
    diagram_file = tmp_path / "diagram.json"
    diagram_file.write_text(json.dumps({"nodes": []}), encoding="utf-8")
    argv = {
        "coefficients": ["simulate", "--config", str(config_file)],
        "scenarios": ["scenario", "--scenarios", str(path)],
        "diagram": ["functor-check", "--diagram", str(path)],
        "functor": [
            "functor-check", "--diagram", str(diagram_file), "--functor", str(path)
        ],
    }[kind]
    out = tmp_path / "out"
    code = main([*argv, "--input", str(canonical_csv), "--out", str(out)])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "InputError"
    assert where in error["message"]
    assert not out.exists()  # every input file is read before the out dir is made


_INF = float("inf")
_HUGE = "1" + "0" * 400  # an integer literal past the float range


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("config", '{"max_lags": NaN}', "config.max_lags must be an integer: NaN"),
        (
            "scenarios",
            json.dumps([{"name": "s", "shocks": [_valid_shock(magnitude=_INF)]}]),
            "scenarios[0].shocks[0].magnitude must be a number: Infinity",
        ),
        (
            "scenarios",
            '[{"name": "s", "shocks": '
            '[{"variable": "M2", "kind": "additive", "magnitude": 1e400}]}]',
            "scenarios[0].shocks[0].magnitude must be a number: 1e400",
        ),
        (
            "scenarios",
            '[{"name": "s", "shocks": '
            f'[{{"variable": "M2", "kind": "additive", "magnitude": {_HUGE}}}]}}]',
            f"scenarios[0].shocks[0].magnitude must be a number: {_HUGE}",
        ),
        (
            "coefficients",
            '{"alpha1": -Infinity}',
            "coefficients.alpha1 must be a number: -Infinity",
        ),
        (
            "coefficients",
            f'{{"alpha1": {_HUGE}}}',
            f"coefficients.alpha1 must be a number: {_HUGE}",
        ),
        (
            "diagram",
            json.dumps(_diagram(edges=[_edge(a=int(_HUGE), b=1.0)])),
            f"diagram.edges[0].kind.a must be a number: {_HUGE}",
        ),
        ("config", "[" * 100_000, "{path}: nested deeper than the JSON reader goes"),
        (
            "diagram",
            json.dumps(_diagram(edges=[_edge(a=_INF, b=1.0)])),
            "diagram.edges[0].kind.a must be a number: Infinity",
        ),
        (
            "functor",
            json.dumps(
                _functor(
                    morphism_map=[
                        {"from": _edge(a=2.0, b=1.0), "to": _edge(a=-_INF, b=1.0)}
                    ]
                )
            ),
            "functor.morphism_map[0].to.kind.a must be a number: -Infinity",
        ),
    ],
    ids=[
        "config-nan", "shock-infinity", "shock-overflowing-literal",
        "shock-overflowing-integer", "coefficient-minus-infinity",
        "coefficient-overflowing-integer", "affine-overflowing-integer",
        "config-nested-too-deep", "affine-infinity", "functor-affine-infinity",
    ],
)
def test_non_finite_json_number_is_one_input_error_line(
    canonical_csv, tmp_path, capsys, kind, text, message
):
    """RFC 8259 has no NaN or infinite number, and a float field cannot hold
    an integer past the float range, nor Python's reader a file nested
    100,000 deep: each is an input error naming its key or file, raised
    before the out dir is made."""
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"coefficients": str(path)}), encoding="utf-8")
    diagram_file = tmp_path / "diagram.json"
    diagram_file.write_text(json.dumps({"nodes": []}), encoding="utf-8")
    argv = {
        "config": ["pipeline", "--config", str(path)],
        "coefficients": ["simulate", "--config", str(config_file)],
        "scenarios": ["scenario", "--scenarios", str(path)],
        "diagram": ["functor-check", "--diagram", str(path)],
        "functor": [
            "functor-check", "--diagram", str(diagram_file), "--functor", str(path)
        ],
    }[kind]
    out = tmp_path / "out"
    assert main([*argv, "--input", str(canonical_csv), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    error = json.loads(line)
    assert (error["error"], error["message"]) == ("InputError", message.format(path=path))
    assert not out.exists()


def core_stage_child(tmp_path, column: np.ndarray, panel=None) -> subprocess.CompletedProcess:
    """`pipeline --stages core`, in a child process, on ``panel`` (by
    default a canonical panel) whose first column is ``column``."""
    panel = make_canonical_panel(len(column)) if panel is None else panel
    path = tmp_path / "panel.csv"
    write_csv(panel.with_columns({panel.variables[0]: Series(column)}), path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "bimonetary", "pipeline", "--input", str(path),
         "--stages", "core", "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestPipeline:
    def test_overflowing_column_is_one_numerical_error_line(self, tmp_path):
        """Finite cells near the float maximum, which the reader accepts,
        overflow in the core stage: exit 2 with one line and no warning."""
        huge = np.array([1e308, -1e308] * 130) + np.arange(260)
        child = core_stage_child(tmp_path, huge)
        assert child.returncode == 2
        (line,) = child.stderr.strip().splitlines()
        doc = json.loads(line)
        assert (doc["error"], doc["stage"]) == ("NonFiniteFactor", "core")

    def test_overflowing_column_norm_is_one_numerical_error_line(self, tmp_path):
        """A walk scaled by 1e200 has finite differences and a finite R
        factor, but its column norms overflow: exit 2 with one line."""
        walk = np.cumsum(np.random.default_rng(SEED).standard_normal(260)) * 1e200
        child = core_stage_child(tmp_path, walk)
        assert child.returncode == 2
        (line,) = child.stderr.strip().splitlines()
        doc = json.loads(line)
        assert (doc["error"], doc["stage"]) == ("NonFiniteFactor", "core")

    def test_extreme_scale_summary_is_strict_json(self, tmp_path):
        """Random walks scaled by 1e17 have a finite log determinant, but the
        determinant and the FPE overflow: exit 0, nothing on stderr, and
        every JSON artifact holds null, not Infinity, where a value is not
        finite."""
        rng = np.random.default_rng(SEED)
        walks = np.cumsum(rng.standard_normal((400, 10)), axis=0) * 1e17
        panel = Panel(daily_dates(400), {f"v{i}": Series(w) for i, w in enumerate(walks.T)})
        child = core_stage_child(tmp_path, walks[:, 0], panel)
        assert (child.returncode, child.stderr) == (0, "")

        def reject(token):
            raise ValueError(f"non-finite JSON number {token}")

        for path in sorted((tmp_path / "out").glob("*.json")):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        summary = json.loads((tmp_path / "out" / "var_summary.json").read_text())
        assert summary["criteria"]["fpe"] is None
        assert summary["det_omega_mle"] is None
        text = (tmp_path / "out" / "var_summary.txt").read_text()
        assert "FPE:" in text and text.split("FPE:")[1].split()[0] == "nan"

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

    def test_names_with_a_comma_and_a_quote_read_back(self, tmp_path):
        from bimonetary.panel import Panel, Series

        rng = np.random.default_rng(SEED)
        names = ('spread, "EMBI"', "v1", "v2")
        columns = {
            name: Series(np.cumsum(rng.standard_normal(300)) * 0.1 + 5)
            for name in names
        }
        csv_path = tmp_path / "quoted.csv"
        write_csv(Panel(daily_dates(300), columns), csv_path)
        out = tmp_path / "core"
        argv = ["pipeline", "--stages", "core", "--input", str(csv_path)]
        assert main([*argv, "--out", str(out)]) == 0
        for artifact, name_columns in [
            ("granger_matrix.csv", ("cause", "effect")),
            ("irf.csv", ("impulse", "response")),
            ("fevd.csv", ("response", "shock")),
        ]:
            with open(out / artifact, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            for column in name_columns:
                assert {row[column] for row in rows} == set(names), artifact

    def test_determinism_byte_identical_runs(self, canonical_csv, tmp_path):
        csv_path = synthetic_csv(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"variables": ["M2", "Pi Exp", "Long Interest", "Embi+ARG"]}),
            encoding="utf-8",
        )
        scenarios = tmp_path / "scenarios.json"
        shocks = [
            {"variable": "M2", "kind": "multiplicative", "magnitude": 1.5},
            {"variable": "Long Interest", "kind": "additive", "magnitude": 5.0},
        ]
        scenarios.write_text(
            json.dumps(
                [
                    {"name": "m2 up", "shocks": shocks[:1]},
                    {"name": "both", "shocks": shocks},
                ]
            ),
            encoding="utf-8",
        )
        runs = {
            "core": ["--input", str(csv_path)],
            "all": [
                "--input",
                str(canonical_csv),
                "--config",
                str(config),
                "--stages",
                "core,equilibrium,colimit,sensitivity",
                "--scenarios",
                str(scenarios),
            ],
        }
        for name, args in runs.items():
            out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
            for out in (out_a, out_b):
                command = ["pipeline", *args, "--out", str(out), "--seed", "42"]
                assert main(command) == 0
            assert tree_bytes(out_a) == tree_bytes(out_b)
        written = set(tree_bytes(tmp_path / "all-a"))
        assert {"equilibrium.csv", "colimit.csv", "scenario_both.csv"} <= written

    def test_failure_reports_stage_on_stderr(self, tmp_path, capsys):
        # constant column: VAR design is collinear -> numerical exit code
        from bimonetary.panel import Panel, Series

        rng = np.random.default_rng(SEED)
        path = tmp_path / "const.csv"
        write_csv(
            Panel(
                daily_dates(60),
                {
                    "a": Series(rng.standard_normal(60)),
                    "b": Series([3.0] * 60),
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


    def test_a_failed_stage_leaves_no_manifest(self, tmp_path, capsys):
        """The default config (all 16 columns) on 2,500 canonical rows fails
        the core stage's VAR fit after its first three files: exit 2, one
        JSON error line, and no run_manifest.json, which only a complete
        run writes."""
        path = tmp_path / "panel.csv"
        write_csv(make_canonical_panel(2500), path)
        out = tmp_path / "partial"
        assert main(["pipeline", "--input", str(path), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert (error["error"], error["stage"]) == ("RankDeficient", "core")
        assert error["message"].startswith("relative pivot")
        written = {p.name for p in out.iterdir()}
        assert written == {"stationarity.json", "johansen.json", "granger_matrix.csv"}

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


def _scenario_file(tmp_path, names):
    path = tmp_path / "scenarios.json"
    shock = {"variable": "M2", "kind": "multiplicative", "magnitude": 1.5}
    doc = [{"name": name, "shocks": [shock]} for name in names]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


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

    def test_one_process_writes_every_scenario_file(self, tmp_path, monkeypatch):
        # 24 scenarios on 9,000 rows, 432,000 float cells, with two CPUs free:
        # the command still starts no process and no thread
        csv_path = tmp_path / "panel.csv"
        write_csv(make_canonical_panel(9000), csv_path)
        magnitudes = {f"m2 x{i}": 1 + i / 8 for i in range(24)}
        shock = {"variable": "M2", "kind": "multiplicative"}
        doc = [
            {"name": name, "shocks": [{**shock, "magnitude": m}]}
            for name, m in magnitudes.items()
        ]
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text(json.dumps(doc), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("the scenario command started a process or a thread")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        out = tmp_path / "scen"
        argv = ["scenario", "--input", str(csv_path)]
        argv += ["--scenarios", str(scenarios), "--out", str(out)]
        assert main(argv) == 0
        section = SensitivitySection()
        comparisons = run_sensitivity(
            load_csv(csv_path).clean(),
            section.target,
            [(name, [Shock(**shock, magnitude=m)]) for name, m in magnitudes.items()],
            section.model_variables,
            section.max_lags,
        )
        baseline = comparisons[0].baseline.array
        shared = text_rows(range(len(baseline)), baseline)
        header = ["index", "baseline", "shocked", "difference"]
        for c in comparisons:
            expected = tmp_path / "expected.csv"
            rows = text_rows(shared, c.shocked.array, c.difference.array)
            write_rows(expected, header, rows)
            file = out / f"scenario_{c.name.replace(' ', '_')}.csv"
            assert file.read_bytes() == expected.read_bytes()

    def test_scenario_names_sharing_a_file_are_an_input_error(
        self, canonical_csv, tmp_path, capsys
    ):
        scenarios = _scenario_file(tmp_path, ["a b", "a_b"])
        out = tmp_path / "scen"
        argv = ["scenario", "--input", str(canonical_csv)]
        argv += ["--scenarios", str(scenarios), "--out", str(out)]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        doc = json.loads(line)
        assert (doc["error"], doc["stage"]) == ("InputError", "scenario")
        assert "'a b'" in doc["message"] and "'a_b'" in doc["message"]
        assert "scenario_a_b.csv" in doc["message"]
        assert not out.exists()

    @pytest.mark.parametrize("blocked", [0, 1], ids=["first", "middle"])
    def test_scenario_file_that_is_a_directory_exits_one(
        self, canonical_csv, tmp_path, capsys, blocked
    ):
        scenarios = _scenario_file(tmp_path, ["m2 up", "rate up", "both"])
        files = ["scenario_m2_up.csv", "scenario_rate_up.csv", "scenario_both.csv"]
        out = tmp_path / "scen"
        (out / files[blocked]).mkdir(parents=True)
        argv = ["scenario", "--input", str(canonical_csv)]
        argv += ["--scenarios", str(scenarios), "--out", str(out)]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        doc = json.loads(line)
        assert (doc["error"], doc["stage"]) == ("IsADirectoryError", "sensitivity")
        assert files[blocked] in doc["message"]
        # the files before the blocked one are written, none after it
        written = [(out / name).is_file() for name in files]
        assert written == [i < blocked for i in range(len(files))]

    def test_overflowing_shock_is_one_error_line(self, canonical_csv, tmp_path):
        """A finite magnitude whose product overflows reaches the refit as an
        infinite value: exit 1 in the sensitivity stage, with no warning."""
        shock = {
            "variable": "Historical Ars Usd", "kind": "multiplicative", "magnitude": 1e308
        }
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text(json.dumps([{"name": "huge", "shocks": [shock]}]))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [sys.executable, "-m", "bimonetary", "scenario", "--input", str(canonical_csv),
             "--scenarios", str(scenarios), "--out", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 1
        (line,) = child.stderr.strip().splitlines()
        doc = json.loads(line)
        assert (doc["error"], doc["stage"]) == ("ValueError", "sensitivity")
        assert "infinite value" in doc["message"]


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

    def test_overflowing_model_value_is_one_numerical_error_line(
        self, canonical_csv, tmp_path, capsys
    ):
        """A finite coefficient whose product with its proxy overflows: exit
        2 with one line naming the first such date and column, no numpy
        warning and no forecast_panel.csv."""
        coefficients = tmp_path / "coefficients.json"
        coefficients.write_text(json.dumps({"alpha1": 1e300, "beta1": 1.0}))
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"coefficients": str(coefficients)}))
        out = tmp_path / "sim"
        argv = ["simulate", "--input", str(canonical_csv), "--config", str(config)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        first = load_csv(canonical_csv).dates[0]
        assert error == {
            "error": "NonFiniteValue",
            "stage": "simulate",
            "message": f"non-finite value at {first} while evaluating model_L_ars",
        }
        assert not (out / "forecast_panel.csv").exists()

    def test_functor_check_on_commuting_diagram(self, canonical_csv, tmp_path):
        m2 = EconObject("M2")
        target = EconObject("flow")
        f = MorphismSpec(Affine(2.0, 1.0), "M2", "flow")
        g = MorphismSpec(Affine(1.0, 0.0), "flow", "flow")
        diagram = Diagram(
            (m2, target), (f, g), (((f, g), (compose(f, g),)),)
        )
        diagram_file = tmp_path / "diagram.json"
        diagram_file.write_text(json.dumps(dump(Diagram, diagram)))
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

    def test_image_diagram_reads_back_as_the_same_diagram(
        self, canonical_csv, tmp_path
    ):
        # every morphism kind, a chain among them; the functor maps each
        # object and morphism to itself, so its image diagram is the diagram
        nodes = tuple(EconObject(n) for n in ("M2", "flow", "flow2"))
        scale = MorphismSpec(Affine(2.0, 1.0), "M2", "flow")
        by_rate = MorphismSpec(ScaleBySeries("E"), "flow", "flow2")
        ratio = MorphismSpec(Ratio("M2", "E"), "M2", "flow2")
        discount = MorphismSpec(RiskDiscount("Embi+ARG"), "flow2", "flow2")
        chain = compose(scale, by_rate)
        edges = (scale, by_rate, ratio, discount, chain)
        diagram = Diagram(
            nodes, edges, (((scale, by_rate), (chain,)), ((ratio,), (ratio, discount)))
        )
        functor = Functor(
            "same",
            {n.id: EconObject(n.id, f"image of {n.id}") for n in nodes},
            {m: m for m in edges},
        )
        diagram_file, functor_file = tmp_path / "diagram.json", tmp_path / "f.json"
        diagram_file.write_text(json.dumps(dump(Diagram, diagram)), encoding="utf-8")
        functor_file.write_text(json.dumps(functor_document(functor)), encoding="utf-8")
        runs, codes = [tmp_path / "first", tmp_path / "again"], []
        for source, out in zip((diagram_file, runs[0] / "image_diagram.json"), runs):
            argv = ["functor-check", "--input", str(canonical_csv), "--out", str(out)]
            argv += ["--diagram", str(source), "--functor", str(functor_file)]
            codes.append(main(argv))
        assert codes[0] == codes[1]
        image = json.loads((runs[0] / "image_diagram.json").read_text(encoding="utf-8"))
        assert parse(Diagram, image, "diagram") == apply_functor(functor, diagram)
        assert apply_functor(functor, diagram) == diagram
        assert image["nodes"][0] == {"id": "M2", "description": "image of M2"}
        for name in ("image_diagram.json", "commutation.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_functor_check_rejects_bad_tolerance(
        self, canonical_csv, tmp_path, capsys, tol
    ):
        diagram_file = tmp_path / "diagram.json"
        diagram_file.write_text(json.dumps(_diagram()), encoding="utf-8")
        out = tmp_path / "fc"
        argv = ["functor-check", "--input", str(canonical_csv)]
        argv += ["--diagram", str(diagram_file), "--tol", tol, "--out", str(out)]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "InputError"
        assert "--tol" in error["message"]
        assert not out.exists()

    def test_overflowing_morphism_is_one_numerical_error_line(
        self, tmp_path, capsys
    ):
        # two steps that each scale M2 by 1e200 overflow on every date
        csv_path = tmp_path / "panel.csv"
        write_csv(make_canonical_panel(60), csv_path)
        nodes = [{"id": name} for name in ("M2", "flow", "flow2")]
        f, g = _edge(a=1e200, b=0.0), _edge("flow", "flow2", a=1e200, b=0.0)
        diagram = _diagram(nodes=nodes, edges=[f, g], equal_paths=[[[f, g], [f, g]]])
        diagram_file = tmp_path / "diagram.json"
        diagram_file.write_text(json.dumps(diagram), encoding="utf-8")
        out = tmp_path / "fc"
        argv = ["functor-check", "--input", str(csv_path), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--diagram", str(diagram_file)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert (error["error"], error["stage"]) == ("NonFiniteValue", "functor-check")
        assert "2018-01-01" in error["message"]
        assert not (out / "commutation.json").exists()

    def test_value_against_a_missing_value_fails_with_a_null_deviation(
        self, tmp_path
    ):
        # without interpolation M2's gap stays; 0 * M2 + 1 is missing there,
        # E / E is not
        panel = make_canonical_panel(60)
        m2 = panel.column("M2").array.copy()
        m2[30] = np.nan
        csv_path, config = tmp_path / "panel.csv", tmp_path / "config.json"
        write_csv(panel.with_columns({"M2": Series(m2)}), csv_path)
        config.write_text(json.dumps({"interpolate": False}), encoding="utf-8")
        ratio = {"source": "M2", "target": "flow"}
        ratio["kind"] = {"type": "ratio", "numerator": "E", "denominator": "E"}
        diagram = _diagram(equal_paths=[[[_edge(a=0.0, b=1.0)], [ratio]]])
        diagram_file = tmp_path / "diagram.json"
        diagram_file.write_text(json.dumps(diagram), encoding="utf-8")
        out = tmp_path / "fc"
        argv = ["functor-check", "--input", str(csv_path), "--out", str(out)]
        argv += ["--config", str(config), "--diagram", str(diagram_file)]
        assert main(argv) == 1

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        text = (out / "commutation.json").read_text(encoding="utf-8")
        doc = json.loads(text, parse_constant=reject)
        assert doc["passed"] is False
        assert doc["checks"][0]["deviation"] is None
        assert doc["checks"][0]["passed"] is False

    def test_overflowing_deviation_is_one_numerical_error_line(
        self, tmp_path, capsys
    ):
        # M2 and -M2 are finite, their difference on 2018-01-06 is not
        panel = make_canonical_panel(60)
        m2 = panel.column("M2").array.copy()
        m2[5] = 1e308
        csv_path = tmp_path / "panel.csv"
        write_csv(panel.with_columns({"M2": Series(m2)}), csv_path)
        paths = [[_edge(a=1.0, b=0.0)], [_edge(a=-1.0, b=0.0)]]
        diagram = _diagram(equal_paths=[paths])
        diagram_file = tmp_path / "diagram.json"
        diagram_file.write_text(json.dumps(diagram), encoding="utf-8")
        out = tmp_path / "fc"
        argv = ["functor-check", "--input", str(csv_path), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--diagram", str(diagram_file)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert (error["error"], error["stage"]) == ("NonFiniteValue", "functor-check")
        assert "2018-01-06" in error["message"]
        assert "equal_paths[0]" in error["message"]
        assert not (out / "commutation.json").exists()

    def test_constant_colimit_variable_is_named(self, tmp_path, capsys):
        panel = make_canonical_panel(260)
        csv_path = tmp_path / "panel.csv"
        write_csv(panel.with_columns({"M2": Series(np.full(260, 5.0))}), csv_path)
        argv = ["colimit", "--input", str(csv_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert (error["error"], error["stage"]) == ("ConstantColumn", "colimit")
        assert error["message"] == "column 'M2' is constant"

    @pytest.mark.parametrize("tol, code", [("0.5", 0), ("1e-7", 1)])
    def test_functor_check_tolerance_reaches_the_functor_laws(
        self, canonical_csv, tmp_path, tol, code
    ):
        # F(id_M2) is x + 1e-6, so the identity law deviates by 1e-6
        diagram_file, functor_file = tmp_path / "diagram.json", tmp_path / "f.json"
        diagram_file.write_text(json.dumps(_diagram()), encoding="utf-8")
        shifted = {
            "from": _edge("M2", "M2", a=1.0, b=0.0),
            "to": _edge("M2", "M2", a=1.0, b=1e-6),
        }
        edge = {"from": _edge(a=2.0, b=1.0), "to": _edge(a=2.0, b=1.0)}
        functor_file.write_text(
            json.dumps(_functor(morphism_map=[shifted, edge])), encoding="utf-8"
        )
        out = tmp_path / "fc"
        argv = ["functor-check", "--input", str(canonical_csv), "--out", str(out)]
        argv += ["--diagram", str(diagram_file), "--functor", str(functor_file)]
        assert main([*argv, "--tol", tol]) == code
        laws = json.loads((out / "commutation.json").read_text())["functor_laws"]
        assert laws["passed"] is (code == 0)
        assert {c["tolerance"] for c in laws["checks"]} == {float(tol)}
        (identity,) = [c for c in laws["checks"] if c["subject"] == "M2"]
        assert identity["deviation"] == pytest.approx(1e-6)

    def test_functor_without_an_image_for_a_diagram_edge_is_an_input_error(
        self, canonical_csv, tmp_path, capsys
    ):
        nodes = [{"id": name} for name in ("M2", "flow", "flow2")]
        edge, hop = _edge(a=2.0, b=1.0), _edge("flow", "flow2", a=1.0, b=0.0)
        direct = _edge("M2", "flow2", a=2.0, b=1.0)    # no image for this one
        diagram = _diagram(nodes=nodes, equal_paths=[[[edge, hop], [direct]]])
        object_map = {node["id"]: node for node in nodes}
        entries = [{"from": m, "to": m} for m in (edge, hop)]
        functor = _functor(object_map=object_map, morphism_map=entries)
        diagram_file, functor_file = tmp_path / "diagram.json", tmp_path / "f.json"
        diagram_file.write_text(json.dumps(diagram), encoding="utf-8")
        functor_file.write_text(json.dumps(functor), encoding="utf-8")
        out = tmp_path / "fc"
        argv = ["functor-check", "--input", str(canonical_csv), "--out", str(out)]
        argv += ["--diagram", str(diagram_file), "--functor", str(functor_file)]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "InputError"
        assert "diagram.equal_paths[0][1][0]" in error["message"]
        assert not out.exists()

    def test_single_stage_commands_match_pipeline(self, canonical_csv, tmp_path):
        scenario_file = tmp_path / "scenarios.json"
        scenario_file.write_text(
            json.dumps([{"name": "m2 up", "shocks": [_valid_shock()]}]),
            encoding="utf-8",
        )
        for command, stage in [
            ("scenario", "sensitivity"),
            ("equilibrium", "equilibrium"),
            ("colimit", "colimit"),
        ]:
            common = ["--input", str(canonical_csv)]
            if stage == "sensitivity":
                common += ["--scenarios", str(scenario_file)]
            trees = []
            for argv in ([command], ["pipeline", "--stages", stage]):
                out = tmp_path / f"{argv[0]}-{stage}"
                assert main([*argv, *common, "--out", str(out)]) == 0
                manifest = json.loads((out / "run_manifest.json").read_text())
                assert manifest["command"] == argv[0]
                assert manifest["input_sha256"] == whole_file_digest(canonical_csv)
                (out / "run_manifest.json").unlink()
                trees.append(tree_bytes(out))
            assert trees[0] and trees[0] == trees[1]

    @pytest.mark.parametrize(
        "command",
        [
            "pipeline",
            "scenario",
            "equilibrium",
            "colimit",
            "calibrate",
            "simulate",
            "functor-check",
        ],
    )
    def test_missing_csv_fails_at_load_in_every_command(
        self, tmp_path, capsys, command
    ):
        scenarios, diagram = tmp_path / "scenarios.json", tmp_path / "diagram.json"
        scenarios.write_text("[]", encoding="utf-8")
        diagram.write_text(json.dumps(_diagram()), encoding="utf-8")
        extra = {
            "scenario": ["--scenarios", str(scenarios)],
            "functor-check": ["--diagram", str(diagram)],
        }
        argv = [command, "--input", str(tmp_path / "absent.csv")]
        argv += [*extra.get(command, []), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line)["stage"] == "load"

    def test_out_that_is_a_file_exits_one(self, canonical_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory", encoding="utf-8")
        argv = ["equilibrium", "--input", str(canonical_csv), "--out", str(out)]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        doc = json.loads(line)
        assert (doc["error"], doc["stage"]) == ("FileExistsError", "out")
        assert out.read_text(encoding="utf-8") == "not a directory"

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(
            ["pipeline", "--input", str(tmp_path / "absent.csv"), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.strip()


def test_input_digest_is_the_whole_file_digest_when_read_in_chunks(tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(np.random.default_rng(SEED).bytes((5 << 19) + 7))
    assert _sha256(path) == whole_file_digest(path)


# -- mutated input files --------------------------------------------------------

FUZZ_CONFIG = {
    "criterion": "aic",
    "interpolate": True,
    "equilibrium": {"embi_in_percent": False},
    "colimit": {"corr_window": 20, "smooth_window": 5, "standardize": True},
    "sensitivity": {"max_lags": 1, "window": [None, "2018-03-01"]},
}
FUZZ_SCENARIOS = [
    {
        "name": "m2 up",
        "shocks": [
            {
                "variable": "M2",
                "kind": "multiplicative",
                "magnitude": 1.1,
                "window": ["2018-01-10", "2018-02-10"],
            }
        ],
    }
]
JUNK_VALUES = [None, True, 0, -1, 2.5, "x", "2018-01-01", [], {}, ["M2"]]
JUNK_CELLS = ["", " ", "abc", "nan", "inf", "1e999", "2018-13-45", "1,5", "2018-01-02"]


@pytest.fixture(scope="module")
def fuzz_csv_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "panel.csv"
    write_csv(make_canonical_panel(60), path)
    return path.read_text(encoding="utf-8").splitlines()


def _json_paths(doc, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, (*prefix, key))


def _mutate_json(doc, draw):
    path = draw(st.sampled_from(list(_json_paths(doc))))
    junk = draw(st.sampled_from(JUNK_VALUES))
    if not path:
        return junk
    doc = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], doc)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return doc


def _mutate_csv(lines, draw):
    lines = list(lines)
    row = draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    if draw(st.booleans()):
        cells = cells[: draw(st.integers(0, len(cells) - 1))]
    else:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(JUNK_CELLS))
    lines[row] = ",".join(cells)
    return lines


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_at_most_one_json_line(fuzz_csv_lines, data):
    """Whatever is dropped, retyped or corrupted in the CSV, config or
    scenario file, the CLI exits 0, 1 or 2, and a failure is exactly one JSON
    line on stderr (an escaping exception fails the test)."""
    draw = data.draw
    command = draw(st.sampled_from(["validate", "equilibrium", "colimit", "scenario"]))
    target = draw(st.sampled_from(["csv", "config", "scenarios"]))
    lines, config, scenarios = fuzz_csv_lines, FUZZ_CONFIG, FUZZ_SCENARIOS
    if target == "csv":
        lines = _mutate_csv(lines, draw)
    elif target == "config":
        config = _mutate_json(config, draw)
    else:
        scenarios = _mutate_json(scenarios, draw)
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        (root / "panel.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (root / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        (root / "scen.json").write_text(json.dumps(scenarios), encoding="utf-8")
        argv = [command, "--input", str(root / "panel.csv")]
        argv += ["--config", str(root / "cfg.json")]
        if command != "validate":
            argv += ["--out", str(root / "out")]
        if command == "scenario":
            argv += ["--scenarios", str(root / "scen.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        (line,) = err.getvalue().strip().splitlines()
        assert set(json.loads(line)) == {"error", "stage", "message"}


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
    ids=["unset", "set-by-the-caller"],
)
def test_cli_import_defaults_blas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=str(SRC))
    code = "import os, bimonetary.cli; print(*map(os.environ.get, %r))"
    done = subprocess.run(
        [sys.executable, "-c", code % (BLAS_THREAD_VARIABLES,)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == expected
