"""Command-line front end: run the pipeline, emit plot-ready CSV/JSON.

Charts are never rendered; every figure-worthy result is written as a tidy
CSV with a documented column contract so any plotting tool can reproduce
it. Identical input, config and seed produce byte-identical artifact
directories; nothing time- or locale-dependent is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from datetime import date as Date
from pathlib import Path

import numpy as np

from . import __version__, category, colimit, econometrics as econ, equilibrium
from . import scenarios as scen
from . import structural
from .colimit import ColimitConfig
from .errors import BimonetaryError, InputError, MissingColumn, NumericalError
from .panel import (
    CANONICAL_VARIABLES,
    DATE_COLUMN,
    Panel,
    load_csv,
    quote,
    scan_csv,
    text_rows,
    write_csv,
)
from .panel import write_rows as _write_csv
from .structural import ProxyMap, StructuralCoefficients
from .typed_json import parse, read_json, reject_repeats

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


@dataclass(frozen=True)
class EquilibriumSection:
    embi_in_percent: bool = False


@dataclass(frozen=True)
class SensitivitySection:
    target: str = "Ipc Argentina"
    model_variables: tuple[str, ...] = (
        "Ipc Argentina",
        "M2",
        "Long Interest",
        "Short Interest",
        "Embi+ARG",
        "Historical Ars Usd",
    )
    max_lags: int = 4
    window: tuple[Date | None, Date | None] = (None, None)

    def __post_init__(self) -> None:
        reject_repeats("model_variables", self.model_variables)


#: Smallest accepted value of each integer config key.
_CONFIG_MINIMA = {
    "max_lags": 0,
    "granger_max_lag": 1,
    "johansen_k_ar_diff": 0,
    "ljung_box_lags": 1,
    "irf_horizon": 0,
    "fevd_horizon": 1,
    "forecast_steps": 0,
}


@dataclass(frozen=True)
class Config:
    """The config file. Every key is optional and defaults to its field's
    default; the README documents each key."""

    schema: tuple[str, ...] | None = None      # None: every column in the file
    variables: tuple[str, ...] = ()            # empty: every loaded column
    cholesky_order: tuple[str, ...] = ()       # empty: the variables' order
    max_lags: int = 10
    criterion: str = "aic"
    granger_max_lag: int = 5
    johansen_k_ar_diff: int = 1
    ljung_box_lags: int = 10
    irf_horizon: int = 10
    fevd_horizon: int = 10
    forecast_steps: int = 10
    interpolate: bool = True
    include_intercepts: bool = True
    proxies: ProxyMap = ProxyMap()
    coefficients: str | None = None            # simulate: a calibrate output
    equilibrium: EquilibriumSection = EquilibriumSection()
    colimit: ColimitConfig = ColimitConfig()
    sensitivity: SensitivitySection = SensitivitySection()

    def __post_init__(self) -> None:
        for key in ("schema", "variables", "cholesky_order"):
            reject_repeats(key, getattr(self, key) or ())
        if self.criterion.lower() not in econ.CRITERIA:
            raise ValueError(
                f"criterion must be one of {'|'.join(econ.CRITERIA)}: "
                f"{self.criterion!r}"
            )
        for name, least in _CONFIG_MINIMA.items():
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be at least {least}: {getattr(self, name)}"
                )


def _load_config(path: str | None) -> tuple[dict, Config]:
    """The raw document, echoed into the manifest, and its typed reading."""
    doc = {} if path is None else read_json(path)
    return doc, parse(Config, doc, "config")


def _load_panel(args, config: Config) -> Panel:
    panel = load_csv(args.input, config.schema)
    return panel.clean() if config.interpolate else panel


def _write_manifest(out: Path, args, doc: dict, command: str) -> None:
    digest = hashlib.sha256(Path(args.input).read_bytes()).hexdigest()
    _write_json(
        out / "run_manifest.json",
        {
            "command": command,
            "input": Path(args.input).name,
            "input_sha256": digest,
            "seed": args.seed,
            "config": doc,
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
    _, config = _load_config(args.config)
    scan = scan_csv(args.input, config.schema)
    schema = CANONICAL_VARIABLES if config.schema is None else config.schema
    for name in scan.header:
        if name != DATE_COLUMN:
            print(f"column {name!r}: {'present' if name in schema else 'extra'}")
    missing_columns = [name for name in schema if name not in scan.header]
    for name in missing_columns:
        print(f"column {name!r}: MISSING")
    for name in schema:
        if name in scan.columns:
            count = int(np.isnan(scan.matrix[:, scan.columns.index(name)]).sum())
            print(f"column {name!r}: {count} missing values")
    print(f"rows: {len(scan.dates)}")
    ordered = all(a < b for a, b in zip(scan.dates, scan.dates[1:]))
    print(f"date order: {'ascending' if ordered else 'UNSORTED (will be sorted on load)'}")
    if missing_columns:
        raise MissingColumn(missing_columns[0])
    return EXIT_OK


# -- pipeline stages ------------------------------------------------------------


def _stage_core(panel: Panel, out: Path, config: Config) -> None:
    variables = config.cholesky_order or config.variables or panel.variables
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
        joh = econ.johansen_trace(matrix, config.johansen_k_ar_diff)
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

    names = np.array([quote(name) for name in transformed.variables], dtype=object)
    tests = [
        (names[cause], names[effect], entry.lag, entry.f_stat, entry.p_value)
        for (cause, effect), result in econ.granger_matrix(
            matrix, config.granger_max_lag
        ).items()
        for entry in result.per_lag
    ]
    causes, effects, lags, f_stats, p_values = zip(*tests) if tests else [()] * 5
    _write_csv(
        out / "granger_matrix.csv",
        ["cause", "effect", "lag", "f_stat", "p_value"],
        text_rows(causes, effects, lags, np.array(f_stats), np.array(p_values)),
    )

    T = matrix.shape[0]
    cap = max(1, (T - 2) // (K + 1))
    max_lags = min(config.max_lags, cap)
    model = econ.fit_var(matrix, max_lags, config.criterion, transformed.variables)
    (out / "var_summary.txt").write_text(
        econ.var_summary_text(model), encoding="utf-8"
    )
    _write_json(out / "var_summary.json", econ.var_summary_json(model))

    lb = {}
    for j, name in enumerate(model.variable_order):
        result = econ.ljung_box(model.residuals[:, j], config.ljung_box_lags)
        lb[name] = {"q_stat": result.q_stat, "p_value": result.p_value}
    _write_json(out / "ljung_box.json", lb)

    # one row per cell of the response arrays, in their C order
    responses = econ.irf(model, config.irf_horizon)
    psi, theta = np.stack(responses.psi), np.stack(responses.theta)
    h, response, impulse = np.indices(psi.shape).reshape(3, -1)
    _write_csv(
        out / "irf.csv",
        ["horizon", "impulse", "response", "psi", "theta"],
        text_rows(h, names[impulse], names[response], psi.ravel(), theta.ravel()),
    )

    shares = econ.fevd(model, config.fevd_horizon).shares
    response, h, shock = np.indices(shares.shape).reshape(3, -1)
    _write_csv(
        out / "fevd.csv",
        ["response", "horizon", "shock", "share"],
        text_rows(names[response], h, names[shock], shares.ravel()),
    )

    steps = config.forecast_steps
    prediction = econ.forecast(model, matrix[-max(model.p, 1) :], steps)
    _write_csv(
        out / "forecast.csv",
        ["step", *model.variable_order],
        text_rows(range(1, steps + 1), *prediction.T),
    )


def _stage_equilibrium(panel: Panel, out: Path, config: Config) -> None:
    result = equilibrium.solve_panel(
        panel, embi_in_percent=config.equilibrium.embi_in_percent
    )
    _write_csv(
        out / "equilibrium.csv",
        [DATE_COLUMN, "equilibrio_tipo_de_cambio", "observed", "gap", "penalty"],
        text_rows(
            result.dates,
            result.e_star,
            result.observed,
            result.gap,
            result.penalty_at_min,
        ),
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


def _stage_colimit(panel: Panel, out: Path, config: Config) -> None:
    cfg = config.colimit
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
        text_rows(panel.dates, *(s.array for s in columns)),
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
        text_rows(range(1, len(prediction) + 1), *prediction.T),
    )


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _stage_sensitivity(panel: Panel, out: Path, config: Config, specs) -> None:
    section = config.sensitivity
    if not specs:
        print("warning: scenario file lists no scenarios", file=sys.stderr)
        return
    comparisons = scen.run_sensitivity(
        panel,
        section.target,
        [(s.name, list(s.shocks)) for s in specs],
        scen.CategorySpec("model", section.model_variables),
        section.max_lags,
        section.window,
    )
    # every comparison holds the one baseline Series, so the index and
    # baseline cells are formatted once for all scenario files
    baseline = comparisons[0].baseline.array
    shared = text_rows(range(len(baseline)), baseline)
    for comparison in comparisons:
        _write_csv(
            out / f"scenario_{_safe_name(comparison.name)}.csv",
            ["index", "baseline", "shocked", "difference"],
            text_rows(shared, comparison.shocked.array, comparison.difference.array),
        )


#: The pipeline's stages, in the order they run.
STAGES = ("core", "equilibrium", "colimit", "sensitivity")


def cmd_pipeline(args) -> int:
    doc, config = _load_config(args.config)
    # the whole invocation is checked before the first stage writes
    stages = (args.stages or "core").split(",")
    for name in stages:
        if name not in STAGES:
            raise InputError(f"unknown stage {name!r} (stages: {','.join(STAGES)})")
    if "sensitivity" in stages and not args.scenarios:
        raise InputError("--scenarios is required for the sensitivity stage")
    specs = scen.load_scenarios(args.scenarios) if "sensitivity" in stages else ()
    out = _out_dir(args)
    stage = "load"
    try:
        panel = _load_panel(args, config)
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
            _stage_sensitivity(panel, out, config, specs)
        stage = "manifest"
        _write_manifest(out, args, doc, "pipeline")
    except HANDLED_ERRORS as error:
        return _fail(stage, error)
    return EXIT_OK


def cmd_scenario(args) -> int:
    doc, config = _load_config(args.config)
    specs = scen.load_scenarios(args.scenarios)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    _stage_sensitivity(panel, out, config, specs)
    _write_manifest(out, args, doc, "scenario")
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    doc, config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    _stage_equilibrium(panel, out, config)
    _write_manifest(out, args, doc, "equilibrium")
    return EXIT_OK


def cmd_colimit(args) -> int:
    doc, config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    _stage_colimit(panel, out, config)
    _write_manifest(out, args, doc, "colimit")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    doc, config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    result = structural.calibrate(panel, config.proxies, config.include_intercepts)
    _write_json(
        out / "coefficients.json",
        {
            "coefficients": asdict(result.coefficients),
            "r_squared": result.r_squared,
        },
    )
    _write_manifest(out, args, doc, "calibrate")
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc, config = _load_config(args.config)
    out = _out_dir(args)
    panel = _load_panel(args, config)
    if config.coefficients is None:
        coefficients = structural.calibrate(
            panel, config.proxies, config.include_intercepts
        ).coefficients
    else:
        coefficient_doc = read_json(config.coefficients)
        # a calibrate output nests the coefficients beside their R²
        if isinstance(coefficient_doc, dict) and "coefficients" in coefficient_doc:
            coefficient_doc = coefficient_doc["coefficients"]
        coefficients = parse(StructuralCoefficients, coefficient_doc, "coefficients")
    forecast_panel = structural.simulate(panel, coefficients, config.proxies)
    write_csv(forecast_panel, out / "forecast_panel.csv")
    _write_manifest(out, args, doc, "simulate")
    return EXIT_OK


def cmd_functor_check(args) -> int:
    doc, config = _load_config(args.config)
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
    _write_manifest(out, args, doc, "functor-check")
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
