"""Command-line front end: run the pipeline, emit plot-ready CSV/JSON.

Charts are never rendered; every figure-worthy result is written as a tidy
CSV with a documented column contract so any plotting tool can reproduce
it. Identical input, config and seed produce byte-identical artifact
directories; nothing time- or locale-dependent is written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, category, colimit, econometrics as econ, equilibrium
from . import scenarios as scen
from . import structural
from .errors import BimonetaryError, DuplicateDate, InputError, MissingColumn
from .errors import NumericalError, UnparseableValue
from .panel import (
    CANONICAL_VARIABLES,
    DATE_COLUMN,
    Panel,
    format_cell,
    load_csv,
    parse_panel_date,
    write_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


#: Failures reported as one JSON line on stderr instead of a traceback;
#: ValueError covers np.linalg.LinAlgError and json.JSONDecodeError.
HANDLED_ERRORS = (BimonetaryError, FileNotFoundError, ValueError)


def _fail(stage: str, error: Exception) -> int:
    """Print the error as one JSON line on stderr; return its exit code."""
    numerical = isinstance(error, (NumericalError, np.linalg.LinAlgError))
    line = json.dumps(
        {"error": type(error).__name__, "stage": stage, "message": str(error)},
        sort_keys=True,
    )
    print(line, file=sys.stderr)
    return EXIT_NUMERICAL if numerical else EXIT_INPUT


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    format_cell(cell) if isinstance(cell, float) else cell
                    for cell in row
                ]
            )


#: Config sections that must be JSON objects.
OBJECT_SECTIONS = ("colimit", "sensitivity", "equilibrium", "proxies")

#: Integer-valued config keys by section; ``None`` is the top level.
INTEGER_KEYS = {
    None: ("johansen_k_ar_diff", "granger_max_lag", "max_lags", "ljung_box_lags",
           "irf_horizon", "fevd_horizon", "forecast_steps"),
    "colimit": ("n_components", "corr_window", "corr_min_periods", "smooth_window"),
    "sensitivity": ("max_lags",),
}

#: Config keys holding lists of column names, by section.
NAME_LIST_KEYS = {
    None: ("schema", "variables", "cholesky_order"),
    "colimit": ("variables",),
    "sensitivity": ("model_variables",),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    for section in OBJECT_SECTIONS:
        if not isinstance(doc.get(section, {}), dict):
            raise InputError(f"config section {section!r} must be a JSON object")
    for section, keys in INTEGER_KEYS.items():
        table = doc if section is None else doc.get(section, {})
        for key in keys:
            if key in table and type(table[key]) is not int:  # JSON true is a bool
                raise InputError(f"config key {key!r} must be an integer: {table[key]!r}")
    for section, keys in NAME_LIST_KEYS.items():
        table = doc if section is None else doc.get(section, {})
        for key in keys:
            value = table.get(key, [])
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise InputError(f"config key {key!r} must be a list of strings: {value!r}")
    window = doc.get("sensitivity", {}).get("window", [None, None])
    if not (
        isinstance(window, list)
        and len(window) == 2
        and all(end is None or isinstance(end, str) for end in window)
    ):
        raise InputError(
            "config key 'window' must be a two-element list of dates or nulls: "
            f"{window!r}"
        )
    return doc


def _load_panel(args, config: dict) -> Panel:
    schema = config.get("schema")
    panel = load_csv(args.input, schema)
    if config.get("interpolate", True):
        panel = panel.clean()
    return panel


def _write_manifest(out: Path, args, config: dict, command: str) -> None:
    digest = hashlib.sha256(Path(args.input).read_bytes()).hexdigest()
    _write_json(
        out / "run_manifest.json",
        {
            "command": command,
            "input": Path(args.input).name,
            "input_sha256": digest,
            "seed": args.seed,
            "config": config,
            "versions": {
                "bimonetary": __version__,
                "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3])),
            },
        },
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- validate -----------------------------------------------------------------


def cmd_validate(args) -> int:
    config = _load_config(args.config)
    schema = config.get("schema", list(CANONICAL_VARIABLES))
    path = Path(args.input)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or DATE_COLUMN not in header:
            raise MissingColumn(DATE_COLUMN)
        missing_columns = [name for name in schema if name not in header]
        for name in header:
            if name == DATE_COLUMN:
                continue
            status = "present" if name in schema else "extra"
            print(f"column {name!r}: {status}")
        for name in missing_columns:
            print(f"column {name!r}: MISSING")

        date_idx = header.index(DATE_COLUMN)
        idx = {name: header.index(name) for name in schema if name in header}
        # a row must hold every cell load_csv reads: the schema when one is
        # configured, else every header column
        loaded = schema if "schema" in config else header
        last_loaded = max(date_idx, *(header.index(n) for n in loaded if n in header))
        seen: set = set()
        ordered = True
        previous = None
        missing_counts = {name: 0 for name in idx}
        n_rows = 0
        for row_no, record in enumerate(reader, start=2):
            if not record or all(cell.strip() == "" for cell in record):
                continue
            n_rows += 1
            if len(record) <= last_loaded:
                raise UnparseableValue(row_no, header[len(record)], "<absent cell>")
            when = parse_panel_date(record[date_idx], row_no)
            if when in seen:
                print(f"duplicate date: {when.isoformat()}")
                raise DuplicateDate(when)
            seen.add(when)
            if previous is not None and when < previous:
                ordered = False
            previous = when
            for name, j in idx.items():
                if record[j].strip() == "":
                    missing_counts[name] += 1

    for name, count in missing_counts.items():
        print(f"column {name!r}: {count} missing values")
    print(f"rows: {n_rows}")
    print(f"date order: {'ascending' if ordered else 'UNSORTED (will be sorted on load)'}")
    if missing_columns:
        raise MissingColumn(missing_columns[0])
    return EXIT_OK


# -- pipeline stages ------------------------------------------------------------


def _stage_core(panel: Panel, out: Path, config: dict) -> None:
    variables = config.get("variables") or list(panel.variables)
    order = config.get("cholesky_order")
    if order:
        variables = list(order)
    working = panel.select(variables)

    transformed, report = econ.stationarity_pipeline(working)
    _write_json(
        out / "stationarity.json",
        {
            d.variable: {
                "t_stat": d.result.t_stat,
                "lags_used": d.result.lags_used,
                "p_value": d.result.approx_pvalue,
                "decision": d.result.decision_5pct,
                "differenced": d.differenced,
            }
            for d in report.decisions
        },
    )

    matrix = transformed.to_matrix()
    K = matrix.shape[1]
    if 2 <= K <= 12:
        joh = econ.johansen_trace(matrix, config.get("johansen_k_ar_diff", 1))
        _write_json(
            out / "johansen.json",
            {
                "eigenvalues": joh.eigenvalues.tolist(),
                "trace_statistics": joh.trace_stats.tolist(),
                "critical_values_5pct": joh.critical_values_5pct.tolist(),
                "reject_5pct": joh.reject_5pct.tolist(),
                "rank": joh.rank,
                "T_effective": joh.T_effective,
            },
        )
    else:
        _write_json(
            out / "johansen.json",
            {"skipped": f"K={K} outside the tabulated range 2..12"},
        )

    granger_lag = config.get("granger_max_lag", 5)
    rows = []
    for cause in transformed.variables:
        for effect in transformed.variables:
            if cause == effect:
                continue
            result = econ.granger(
                transformed.column(cause).array,
                transformed.column(effect).array,
                granger_lag,
            )
            for entry in result.per_lag:
                rows.append(
                    [cause, effect, entry.lag, entry.f_stat, entry.p_value]
                )
    _write_csv(
        out / "granger_matrix.csv",
        ["cause", "effect", "lag", "f_stat", "p_value"],
        rows,
    )

    T = matrix.shape[0]
    cap = max(1, (T - 2) // (K + 1))
    max_lags = min(config.get("max_lags", 10), cap)
    model = econ.fit_var(
        matrix, max_lags, config.get("criterion", "aic"), transformed.variables
    )
    (out / "var_summary.txt").write_text(
        econ.var_summary_text(model), encoding="utf-8"
    )
    _write_json(out / "var_summary.json", econ.var_summary_json(model))

    lb_lags = config.get("ljung_box_lags", 10)
    lb = {}
    for j, name in enumerate(model.variable_order):
        result = econ.ljung_box(model.residuals[:, j], lb_lags)
        lb[name] = {"q_stat": result.q_stat, "p_value": result.p_value}
    _write_json(out / "ljung_box.json", lb)

    horizon = config.get("irf_horizon", 10)
    responses = econ.irf(model, horizon)
    irf_rows = []
    for h in range(horizon + 1):
        for i, response in enumerate(model.variable_order):
            for j, impulse in enumerate(model.variable_order):
                irf_rows.append(
                    [
                        h,
                        impulse,
                        response,
                        float(responses.psi[h][i, j]),
                        float(responses.theta[h][i, j])
                        if responses.theta is not None
                        else "",
                    ]
                )
    _write_csv(
        out / "irf.csv",
        ["horizon", "impulse", "response", "psi", "theta"],
        irf_rows,
    )

    fevd_h = config.get("fevd_horizon", 10)
    decomposition = econ.fevd(model, fevd_h)
    fevd_rows = []
    for i, response in enumerate(model.variable_order):
        for h in range(fevd_h):
            for j, shock in enumerate(model.variable_order):
                fevd_rows.append(
                    [response, h, shock, float(decomposition.shares[i, h, j])]
                )
    _write_csv(
        out / "fevd.csv", ["response", "horizon", "shock", "share"], fevd_rows
    )

    steps = config.get("forecast_steps", 10)
    prediction = econ.forecast(model, matrix[-max(model.p, 1) :], steps)
    _write_csv(
        out / "forecast.csv",
        ["step", *model.variable_order],
        [[s + 1, *map(float, prediction[s])] for s in range(steps)],
    )


def _stage_equilibrium(panel: Panel, out: Path, config: dict) -> None:
    section = config.get("equilibrium", {})
    result = equilibrium.solve_panel(
        panel, embi_in_percent=section.get("embi_in_percent", False)
    )
    _write_csv(
        out / "equilibrium.csv",
        [DATE_COLUMN, "equilibrio_tipo_de_cambio", "observed", "gap", "penalty"],
        [
            [d.isoformat(), e, o, g, p]
            for d, e, o, g, p in zip(
                result.dates,
                result.e_star,
                result.observed,
                result.gap,
                result.penalty_at_min,
            )
        ],
    )
    report = equilibrium.gap_report(result)
    _write_json(
        out / "equilibrium_report.json",
        {
            "mean_gap": report.mean_gap,
            "max_abs_gap": report.max_abs_gap,
            "sign_runs": report.sign_runs,
            "skipped_dates": [d.isoformat() for d in result.skipped_dates],
        },
    )


def _colimit_config(config: dict) -> colimit.ColimitConfig:
    section = config.get("colimit", {})
    kwargs = {}
    if "variables" in section:
        kwargs["variables"] = tuple(section["variables"])
    for key in (
        "n_components",
        "corr_window",
        "corr_min_periods",
        "smooth_window",
        "standardize",
        "reference",
    ):
        if key in section:
            kwargs[key] = section[key]
    return colimit.ColimitConfig(**kwargs)


def _stage_colimit(panel: Panel, out: Path, config: dict) -> None:
    cfg = _colimit_config(config)
    indicator = colimit.build_indicator(panel, cfg)
    columns = [
        indicator.pca_aggregate,
        indicator.weighted_aggregate,
        indicator.scaled,
        indicator.smoothed,
        panel.column(cfg.reference),
        panel.column(colimit.EXTERNAL_FACTOR),
    ]
    _write_csv(
        out / "colimit.csv",
        [
            DATE_COLUMN,
            "pca_aggregate",
            "weighted_aggregate",
            "scaled",
            "smoothed",
            cfg.reference,
            colimit.EXTERNAL_FACTOR,
        ],
        [
            [when.isoformat(), *cells]
            for when, *cells in zip(panel.dates, *(s.array.tolist() for s in columns))
        ],
    )
    _write_json(out / "colimit_weights.json", indicator.dynamic_weights)
    causality, prediction = colimit.validate_and_forecast(panel, indicator)
    _write_json(
        out / "colimit_granger.json",
        {
            str(entry.lag): {"f_stat": entry.f_stat, "p_value": entry.p_value}
            for entry in causality.per_lag
        },
    )
    _write_csv(
        out / "colimit_forecast.csv",
        ["step", "indicator", cfg.reference, colimit.EXTERNAL_FACTOR],
        [[s + 1, *map(float, prediction[s])] for s in range(prediction.shape[0])],
    )


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _stage_sensitivity(panel: Panel, out: Path, config: dict, scenario_path) -> None:
    section = config.get("sensitivity", {})
    specs = scen.load_scenarios(scenario_path)
    if not specs:
        print("warning: scenario file lists no scenarios", file=sys.stderr)
        return
    model_vars = scen.CategorySpec(
        "model",
        tuple(
            section.get(
                "model_variables",
                [
                    "Ipc Argentina",
                    "M2",
                    "Long Interest",
                    "Short Interest",
                    "Embi+ARG",
                    "Historical Ars Usd",
                ],
            )
        ),
    )
    target = section.get("target", "Ipc Argentina")
    window = (None, None)
    if "window" in section:
        start, end = section["window"]
        window = (
            None if start is None else parse_panel_date(start, 0),
            None if end is None else parse_panel_date(end, 0),
        )
    comparisons = scen.run_sensitivity(
        panel,
        target,
        [(s.name, list(s.shocks)) for s in specs],
        model_vars,
        section.get("max_lags", 4),
        window,
    )
    for comparison in comparisons:
        rows = [
            [i, b, s, d]
            for i, (b, s, d) in enumerate(
                zip(
                    comparison.baseline.array.tolist(),
                    comparison.shocked.array.tolist(),
                    comparison.difference.array.tolist(),
                )
            )
        ]
        _write_csv(
            out / f"scenario_{_safe_name(comparison.name)}.csv",
            ["index", "baseline", "shocked", "difference"],
            rows,
        )


def cmd_pipeline(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    stage = "load"
    try:
        panel = _load_panel(args, config)
        stages = (args.stages or "core").split(",")
        if "core" in stages:
            stage = "core"
            _stage_core(panel, out, config)
        if "equilibrium" in stages:
            stage = "equilibrium"
            _stage_equilibrium(panel, out, config)
        if "colimit" in stages:
            stage = "colimit"
            _stage_colimit(panel, out, config)
        if "sensitivity" in stages:
            stage = "sensitivity"
            if not args.scenarios:
                raise InputError("--scenarios is required for the sensitivity stage")
            _stage_sensitivity(panel, out, config, args.scenarios)
        stage = "manifest"
        _write_manifest(out, args, config, "pipeline")
    except HANDLED_ERRORS as error:
        return _fail(stage, error)
    return EXIT_OK


def cmd_scenario(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    _stage_sensitivity(panel, out, config, args.scenarios)
    _write_manifest(out, args, config, "scenario")
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    _stage_equilibrium(panel, out, config)
    _write_manifest(out, args, config, "equilibrium")
    return EXIT_OK


def cmd_colimit(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    _stage_colimit(panel, out, config)
    _write_manifest(out, args, config, "colimit")
    return EXIT_OK


def _proxies(config: dict) -> structural.ProxyMap:
    overrides = config.get("proxies", {})
    return structural.with_proxy_overrides(structural.DEFAULT_PROXIES, overrides)


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    result = structural.calibrate(
        panel, _proxies(config), config.get("include_intercepts", True)
    )
    _write_json(
        out / "coefficients.json",
        {
            "coefficients": asdict(result.coefficients),
            "r_squared": result.r_squared,
        },
    )
    _write_manifest(out, args, config, "calibrate")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    if "coefficients" in config:
        with open(config["coefficients"], encoding="utf-8") as fh:
            doc = json.load(fh)
        coefficients = structural.StructuralCoefficients(
            **doc.get("coefficients", doc)
        )
    else:
        coefficients = structural.calibrate(
            panel, _proxies(config), config.get("include_intercepts", True)
        ).coefficients
    forecast_panel = structural.simulate(panel, coefficients, _proxies(config))
    write_csv(forecast_panel, out / "forecast_panel.csv")
    _write_manifest(out, args, config, "simulate")
    return EXIT_OK


def cmd_functor_check(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    diagram = category.load_diagram(args.diagram)
    report = category.check_commutes(panel=panel, d=diagram, tol=args.tol)
    payload = {
        "passed": report.passed,
        "checks": [
            {
                "pair": c.index,
                "deviation": c.deviation,
                "tolerance": c.tolerance,
                "passed": c.passed,
            }
            for c in report.checks
        ],
    }
    all_passed = report.passed
    if args.functor:
        functor = category.load_functor(args.functor)
        image = category.apply_functor(functor, diagram)
        _write_json(out / "image_diagram.json", category.diagram_to_json(image))
        laws = category.check_functor_laws(functor, list(diagram.edges), panel)
        payload["functor_laws"] = {
            "passed": laws.passed,
            "checks": [
                {
                    "law": c.law,
                    "subject": c.subject,
                    "deviation": c.deviation,
                    "passed": c.passed,
                }
                for c in laws.checks
            ],
        }
        all_passed = all_passed and laws.passed
    _write_json(out / "commutation.json", payload)
    _write_manifest(out, args, config, "functor-check")
    return EXIT_OK if all_passed else EXIT_INPUT


# -- entry point ----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, need_out: bool = True) -> None:
    parser.add_argument("--input", required=True, help="input CSV file")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0, help="64-bit run seed")
    if need_out:
        parser.add_argument("--out", required=True, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimonetary",
        description="Categorical macroeconometric toolkit for a bimonetary economy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a CSV against the schema")
    _add_common(p, need_out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pipeline", help="run the full analysis pipeline")
    _add_common(p)
    p.add_argument(
        "--stages",
        help="comma-separated: core,equilibrium,colimit,sensitivity (default core)",
    )
    p.add_argument("--scenarios", help="scenario JSON for the sensitivity stage")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scenario", help="baseline-vs-shock comparisons")
    _add_common(p)
    p.add_argument("--scenarios", required=True, help="scenario JSON file")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("equilibrium", help="per-date equilibrium exchange rate")
    _add_common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("colimit", help="aggregate devaluation-expectation index")
    _add_common(p)
    p.set_defaults(func=cmd_colimit)

    p = sub.add_parser("calibrate", help="fit the model coefficients")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="model-implied forecast panel")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("functor-check", help="commutativity and functor laws")
    _add_common(p)
    p.add_argument("--diagram", required=True, help="diagram JSON file")
    p.add_argument("--functor", help="functor JSON file")
    p.add_argument("--tol", type=float, default=None, help="absolute tolerance")
    p.set_defaults(func=cmd_functor_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HANDLED_ERRORS as error:
        return _fail(args.command, error)


if __name__ == "__main__":
    sys.exit(main())
