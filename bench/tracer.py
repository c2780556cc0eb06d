"""Traced invocation: `bimonetary.cli.main` with span-recording wrappers.

Run as a child process by `run.py --trace 1`:

    python3 bench/tracer.py --spans SPANS.json --workload NAME -- <cli args>

Every wrapper is installed in the namespace of the module that looks the
function up at call time, because `from ... import` binds a second name
(`econometrics.qr_least_squares`, `colimit.rolling_corr`, `cli.load_csv`).
`equilibrium.penalty` is deliberately not wrapped: it runs millions of
times at 20,000 rows and its wrapper would swamp the measurement.

Spans stay in memory and are written once, when the command returns. The
parent turns them into per-layer metrics with `layer_metrics`; this module
imports `bimonetary` only in the child.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Metric names start with a letter, so `_regression` and `_dist` lose their
# leading underscore.
TIMED_LAYERS = (
    "regression.qr_least_squares",
    "dist.f_sf",
    "econometrics.adf_test",
    "econometrics.granger",
    "econometrics.fit_var",
    "econometrics.fit_var_order",
    "econometrics.johansen_trace",
    "equilibrium.solve_panel",
    "equilibrium.nelder_mead_1d",
    "panel.load_csv",
    "panel.clean",
    "panel.rolling_corr",
    "panel.rolling_mean",
    "colimit.pca_fit",
    "colimit.dynamic_weights",
    "colimit.validate_and_forecast",
    "scenarios.apply_scenario",
    "scenarios.run_sensitivity",
    "cli.write",
)
STAGES = ("core", "equilibrium", "colimit", "sensitivity")
COUNTS = (
    "regression.qr_least_squares.flops_computed",
    "regression.qr_least_squares.rank_deficient",
    "equilibrium.nm_iterations",
    "equilibrium.nonconverged_rows",
    "cli.write.rows",
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent index
    and workload; counters are updated at the same call boundaries."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        inner = getattr(owner, attr)
        spans, open_spans, workload = self.spans, self._open, self.workload

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, workload]
            open_spans.append(len(spans))
            spans.append(span)
            error = result = None
            span[1] = perf_counter()
            try:
                result = inner(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                open_spans.pop()
                if observe is not None:
                    observe(args, result, error)

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def install(tracer: Tracer) -> None:
    from bimonetary import cli, colimit, equilibrium, panel, scenarios
    from bimonetary import econometrics as econ
    from bimonetary.errors import RankDeficient

    counts = tracer.counts

    def qr_observed(args, result, error):
        # flops of a Householder QR of an n x k design, computed from shapes
        rank_deficient = isinstance(error, RankDeficient)
        if error is None or rank_deficient:
            n, k = args[0].shape
            counts["regression.qr_least_squares.flops_computed"] += 2 * n * k * k
        counts["regression.qr_least_squares.rank_deficient"] += rank_deficient

    def nm_observed(args, result, error):
        if result is not None:
            counts["equilibrium.nm_iterations"] += result.iterations
            counts["equilibrium.nonconverged_rows"] += not result.converged

    def rows_observed(args, result, error):
        counts["cli.write.rows"] += len(args[2])

    wraps = [
        (cli, "main", "cli.main", None),
        (cli, "load_csv", "panel.load_csv", None),
        (panel.Panel, "clean", "panel.clean", None),
        (cli, "_write_csv", "cli.write", rows_observed),
        (cli, "_write_json", "cli.write", None),
        (econ, "qr_least_squares", "regression.qr_least_squares", qr_observed),
        (econ, "f_sf", "dist.f_sf", None),
        (econ, "adf_test", "econometrics.adf_test", None),
        (econ, "granger", "econometrics.granger", None),
        (econ, "fit_var", "econometrics.fit_var", None),
        (econ, "fit_var_order", "econometrics.fit_var_order", None),
        (econ, "johansen_trace", "econometrics.johansen_trace", None),
        (equilibrium, "solve_panel", "equilibrium.solve_panel", None),
        (equilibrium, "nelder_mead_1d", "equilibrium.nelder_mead_1d", nm_observed),
        (colimit, "rolling_corr", "panel.rolling_corr", None),
        (colimit, "rolling_mean", "panel.rolling_mean", None),
        (colimit, "pca_fit", "colimit.pca_fit", None),
        (colimit, "dynamic_weights", "colimit.dynamic_weights", None),
        (colimit, "validate_and_forecast", "colimit.validate_and_forecast", None),
        (scenarios, "apply_scenario", "scenarios.apply_scenario", None),
        (scenarios, "run_sensitivity", "scenarios.run_sensitivity", None),
    ]
    wraps += [(cli, f"_stage_{s}", f"cli.{s}", None) for s in STAGES]
    for owner, attr, name, observe in wraps:
        tracer.wrap(owner, attr, name, observe)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Calls and self time per layer, wall time per stage, and the counters.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _workload in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent, _workload), children in zip(spans, covered):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - children
    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    for stage in STAGES:
        metrics[f"cli.{stage}.s"] = total[f"cli.{stage}"]
    metrics.update(doc["counts"])
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from bimonetary import cli

    tracer = Tracer(args.workload)
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
