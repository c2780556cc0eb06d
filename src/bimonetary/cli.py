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
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import date as Date
from pathlib import Path

# one BLAS thread unless the caller set a count: a pool costs CPU, saves no time
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__, colimit, econometrics as econ, equilibrium
from . import scenarios as scen
from . import structural
from .colimit import ColimitConfig
from .errors import BimonetaryError, InputError, MissingColumn, NumericalError
from .panel import (
    CANONICAL_VARIABLES,
    DATE_COLUMN,
    Panel,
    load_csv,
    scan_csv,
    text_rows,
    write_csv,
)
from .panel import write_rows as _write_csv
from .structural import ProxyMap, StructuralCoefficients
from .typed_json import dump, parse, read_json, reject_repeats, reject_reversed

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


#: Failures reported as one JSON line on stderr instead of a traceback;
#: ValueError covers np.linalg.LinAlgError and json.JSONDecodeError, and
#: OSError a file that cannot be read or written.
HANDLED_ERRORS = (BimonetaryError, OSError, ValueError)


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
        if self.target not in self.model_variables:
            raise ValueError(f"target must be one of model_variables: {self.target!r}")
        reject_reversed("window", self.window)
        if self.max_lags < 0:
            raise ValueError(f"max_lags must be at least 0: {self.max_lags}")


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


def _sha256(path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks rather than held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: Path, args, doc: dict) -> None:
    digest = _sha256(args.input)
    _write_json(
        out / "run_manifest.json",
        {
            "command": args.command,
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
    matrix, adf = econ.stationarity_pipeline(panel.to_matrix(variables), variables)
    _write_json(
        out / "stationarity.json",
        {
            name: {
                "t_stat": t.t_stat,
                "lags_used": t.lags_used,
                "p_value": t.approx_pvalue,
                "decision": t.decision_5pct,
                "differenced": not t.is_stationary,
            }
            for name, t in adf.items()
        },
    )

    K, dims = matrix.shape[1], econ.JOHANSEN_DIMENSIONS
    if K in dims:
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
            {"skipped": f"K={K} outside the tabulated range {dims[0]}..{dims[-1]}"},
        )

    names = np.array(variables, dtype=object)
    f_stat, p_value = econ.granger_matrix(matrix, config.granger_max_lag)
    # one row per tested cell, cause-major: the diagonal holds no test
    cells = np.indices(f_stat.shape).reshape(3, -1)
    cause, effect, lag = cell = tuple(cells[:, cells[0] != cells[1]])
    _write_csv(
        out / "granger_matrix.csv",
        ["cause", "effect", "lag", "f_stat", "p_value"],
        text_rows(names[cause], names[effect], lag + 1, f_stat[cell], p_value[cell]),
    )

    T = matrix.shape[0]
    cap = max(1, (T - 2) // (K + 1))
    max_lags = min(config.max_lags, cap)
    model = econ.fit_var(matrix, max_lags, config.criterion, variables)
    summary = econ.var_summary_json(model)
    (out / "var_summary.txt").write_text(
        econ.var_summary_text(summary), encoding="utf-8"
    )
    _write_json(out / "var_summary.json", summary)

    lb = {}
    for j, name in enumerate(model.variable_order):
        result = econ.ljung_box(model.residuals[:, j], config.ljung_box_lags)
        lb[name] = {"q_stat": result.q_stat, "p_value": result.p_value}
    _write_json(out / "ljung_box.json", lb)

    # one row per cell of the response arrays, in their C order
    psi, theta = econ.irf(model, config.irf_horizon)
    h, response, impulse = np.indices(psi.shape).reshape(3, -1)
    _write_csv(
        out / "irf.csv",
        ["horizon", "impulse", "response", "psi", "theta"],
        text_rows(h, names[impulse], names[response], psi.ravel(), theta.ravel()),
    )

    shares = econ.fevd(model, config.fevd_horizon)
    response, h, shock = np.indices(shares.shape).reshape(3, -1)
    _write_csv(
        out / "fevd.csv",
        ["response", "horizon", "shock", "share"],
        text_rows(names[response], h, names[shock], shares.ravel()),
    )

    steps = config.forecast_steps
    prediction = econ.forecast(model, matrix, steps)
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
    (f_stat, p_value), prediction = colimit.validate_and_forecast(
        panel, indicator, cfg.reference
    )
    _write_json(
        out / "colimit_granger.json",
        {
            str(lag): {"f_stat": float(f), "p_value": float(p)}
            for lag, (f, p) in enumerate(zip(f_stat, p_value), 1)
        },
    )
    _write_csv(
        out / "colimit_forecast.csv",
        ["step", "indicator", cfg.reference, colimit.EXTERNAL_FACTOR],
        text_rows(range(1, len(prediction) + 1), *prediction.T),
    )


def _scenario_file(name: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
    return f"scenario_{safe}.csv"


def _stage_sensitivity(panel: Panel, out: Path, config: Config, specs) -> None:
    section = config.sensitivity
    if not specs:
        print("warning: scenario file lists no scenarios", file=sys.stderr)
        return
    comparisons = scen.run_sensitivity(
        panel,
        section.target,
        [(s.name, list(s.shocks)) for s in specs],
        section.model_variables,
        section.max_lags,
        section.window,
    )
    # every comparison holds the one baseline Series, so the index and
    # baseline cells are formatted once for all scenario files
    baseline = comparisons[0].baseline.array
    shared = text_rows(range(len(baseline)), baseline)
    header = ["index", "baseline", "shocked", "difference"]
    # one process writes the files in scenario order; _write_csv is looked up
    # at call time, so a wrapper set on the module sees every file
    for c in comparisons:
        rows = text_rows(shared, c.shocked.array, c.difference.array)
        _write_csv(out / _scenario_file(c.name), header, rows)


def _stage_calibrate(panel: Panel, out: Path, config: Config) -> None:
    result = structural.calibrate(panel, config.proxies, config.include_intercepts)
    _write_json(
        out / "coefficients.json",
        {
            "coefficients": asdict(result.coefficients),
            "r_squared": result.r_squared,
        },
    )


def _stage_simulate(panel: Panel, out: Path, config: Config, coefficients) -> None:
    if coefficients is None:
        coefficients = structural.calibrate(
            panel, config.proxies, config.include_intercepts
        ).coefficients
    forecast_panel = structural.simulate(panel, coefficients, config.proxies)
    write_csv(forecast_panel, out / "forecast_panel.csv")


def _stage_functor_check(
    panel: Panel, out: Path, config: Config, diagram, functor, image, tol: float | None
) -> int:
    """Exits 1 when a check fails, after writing its report. ``image`` is
    the functor's image of the diagram (None without a functor), and ``tol``
    applies to every check, None meaning ``1e-9 * max(1, |values|)``."""
    from . import category  # only this command reads it

    report = category.check_commutes(panel=panel, d=diagram, tol=tol)
    payload = {"passed": report.passed, "checks": [asdict(c) for c in report.checks]}
    all_passed = report.passed
    if functor is not None:
        _write_json(out / "image_diagram.json", dump(category.Diagram, image))
        laws = category.check_functor_laws(functor, list(diagram.edges), panel, tol)
        payload["functor_laws"] = {
            "passed": laws.passed,
            "checks": [asdict(c) for c in laws.checks],
        }
        all_passed = all_passed and laws.passed
    _write_json(out / "commutation.json", payload)
    return EXIT_OK if all_passed else EXIT_INPUT


#: The stages `pipeline --stages` chooses from, in the order they run.
STAGES = ("core", "equilibrium", "colimit", "sensitivity")


def _load_coefficients(config: Config) -> StructuralCoefficients | None:
    if config.coefficients is None:
        return None
    doc = read_json(config.coefficients)
    # a calibrate output nests the coefficients beside their R²
    if isinstance(doc, dict) and "coefficients" in doc:
        doc = doc["coefficients"]
    return parse(StructuralCoefficients, doc, "coefficients")


def _plan(args, config: Config) -> dict[str, tuple]:
    """The stages the command runs, in order, each with its arguments after
    (panel, out, config) read from the input files it uses. `pipeline` runs
    the --stages it names in the order of STAGES. Everything is checked
    here, before anything is written."""
    _, stages, _ = COMMANDS[args.command]
    if stages is None:
        chosen = ("core" if args.stages is None else args.stages).split(",")
        for name in chosen:
            if name not in STAGES:
                raise InputError(f"unknown stage {name!r} (stages: {','.join(STAGES)})")
        stages = [name for name in STAGES if name in chosen]
    inputs = dict.fromkeys(stages, ())
    if "sensitivity" in inputs:
        if not args.scenarios:
            raise InputError("--scenarios is required for the sensitivity stage")
        specs = scen.load_scenarios(args.scenarios)
        owners: dict[str, str] = {}  # scenario file -> scenario name
        for spec in specs:
            file = _scenario_file(spec.name)
            if file in owners:
                raise InputError(
                    f"scenarios {owners[file]!r} and {spec.name!r} would both "
                    f"write {file}"
                )
            owners[file] = spec.name
        inputs["sensitivity"] = (specs,)
    if "simulate" in inputs:
        inputs["simulate"] = (_load_coefficients(config),)
    if "functor-check" in inputs:
        if args.tol is not None and not 0.0 <= args.tol < math.inf:
            raise InputError(f"--tol must be a finite number >= 0: {args.tol}")
        from . import category  # only this command reads it

        diagram = parse(category.Diagram, read_json(args.diagram), "diagram")
        functor = image = None
        if args.functor:
            functor = category.functor_from_json(read_json(args.functor))
            try:
                image = category.apply_functor(functor, diagram)
            except InputError as error:  # an item of the diagram has no image
                raise InputError(f"diagram.{error}") from None
        inputs["functor-check"] = (diagram, functor, image, args.tol)
    return inputs


def run_stages(args) -> int:
    """Every command but `validate`: check the config, the stage list and
    the stages' input files, then make the out dir, load the panel, run the
    stages and write the manifest. A failure in those four steps is
    reported under the step it happened in: ``out``, ``load``, the stage,
    or ``manifest``; before, `main` reports it under the command's name."""
    doc, config = _load_config(args.config)
    plan = _plan(args, config)
    out = Path(args.out)
    code = EXIT_OK
    stage = "out"
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = "load"
        panel = load_csv(args.input, config.schema)
        panel = panel.clean() if config.interpolate else panel
        for stage, inputs in plan.items():
            # looked up at call time, so a wrapper set on the module is used
            run = globals()["_stage_" + stage.replace("-", "_")]
            code = run(panel, out, config, *inputs) or code
        stage = "manifest"
        _write_manifest(out, args, doc)
    except HANDLED_ERRORS as error:
        return _fail(stage, error)
    return code


# -- entry point ----------------------------------------------------------------


#: Every command but `validate`: its help, its fixed stages (None: chosen
#: with --stages) and the arguments it adds to --input/--config/--seed/--out.
COMMANDS = {
    "pipeline": (
        "run the full analysis pipeline",
        None,
        {
            "--stages": {
                "help": "comma-separated: core,equilibrium,colimit,sensitivity "
                "(default core)"
            },
            "--scenarios": {"help": "scenario JSON for the sensitivity stage"},
        },
    ),
    "scenario": (
        "baseline-vs-shock comparisons",
        ("sensitivity",),
        {"--scenarios": {"required": True, "help": "scenario JSON file"}},
    ),
    "equilibrium": ("per-date equilibrium exchange rate", ("equilibrium",), {}),
    "colimit": ("aggregate devaluation-expectation index", ("colimit",), {}),
    "calibrate": ("fit the model coefficients", ("calibrate",), {}),
    "simulate": ("model-implied forecast panel", ("simulate",), {}),
    "functor-check": (
        "commutativity and functor laws",
        ("functor-check",),
        {
            "--diagram": {"required": True, "help": "diagram JSON file"},
            "--functor": {"help": "functor JSON file"},
            "--tol": {
                "type": float,
                "help": "absolute tolerance of every check "
                "(default 1e-9 * max(1, |values|) per check)",
            },
        },
    ),
}


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

    for command, (summary, _, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        _add_common(p)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=run_stages)

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
