"""End-to-end and per-layer benchmark of the `bimonetary` batch pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the workload runs as separate `python -m bimonetary`
child processes, one after another, until S seconds of child wall time
have been measured and at least two invocations have run, so the
byte-identity of their artifacts is checked. Each child's wall time comes
from spawn to exit, and its CPU time and peak memory from its own
`os.wait4` rusage. Set-up time is the median of at least five children
that only `import bimonetary.cli`, one before each invocation.

With `--trace 1` one untraced child runs, then one child under
`tracer.py`, which records spans around the layer functions; the per-layer
metrics come from those spans and the tracing overhead is the difference
of the two wall times.

Artifacts are checked outside the timed window. A failed invocation counts
in `failed` and is never timed as a result. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and the
metrics that `BENCHMARK.json` declares for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import checks
    import tracer
    import workloads
except ImportError as error:  # bench/ copied out of a checkout of the repository
    raise SystemExit(f"cannot load the workloads: {error}") from None

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"

MIN_INVOCATIONS = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# no invocation past the minimum starts once it could end after this
RUN_BUDGET_S = 150.0

# One BLAS thread per child: with two threads on a two-core machine CPU
# time rose by about 70% on daily-mixed-sized runs with no gain in wall time.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Child:
    exit_code: int
    run_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    # cached bytecode, as an installed package has, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> Child:
    """Run one child to completion; time it from spawn to exit."""
    with open(log, "ab") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=sink, stderr=sink
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        run_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        run_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **PINNED_THREADS,
    }


class Runner:
    """Invocations of one workload's command, each checked after it ends."""

    def __init__(self, inputs, work: Path) -> None:
        self.inputs = inputs
        self.work = work
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.eq_max_rel_err: float | None = None

    def invoke(self, prefix: list[str], label: str) -> tuple[Child, checks.Report]:
        out = self.work / f"out-{self.attempted}"
        log = self.work / f"out-{self.attempted}.log"
        child = spawn(prefix + self.inputs.cli_args(out), self.work, log)
        report = checks.check(self.inputs, out, child.exit_code)
        if self.reference is None:
            self.reference = report.digests
        elif report.digests != self.reference:
            report.problems.append("artifacts differ from the first invocation's")
        if report.eq_max_rel_err is not None:
            self.eq_max_rel_err = max(self.eq_max_rel_err or 0.0, report.eq_max_rel_err)
        self.attempted += 1
        self.failed += bool(report.problems)
        print(
            f"{label} {self.attempted}: exit {child.exit_code}, run_s {child.run_s:.4f}, "
            f"cpu_s {child.cpu_s:.4f}, peak_rss_mb {child.peak_rss_mb:.1f}"
            + "".join(f"\n  FAILED: {p}" for p in report.problems)
        )
        tail = log.read_text(errors="replace")[-400:].strip()
        if report.problems and tail:
            print("  child output tail: " + tail)
        shutil.rmtree(out, ignore_errors=True)
        return child, report


def setup_sample(work: Path) -> float:
    child = spawn([sys.executable, "-c", "import bimonetary.cli"], work, work / "setup.log")
    if child.exit_code != 0:
        raise SystemExit(f"`import bimonetary.cli` failed: see {work / 'setup.log'}")
    return child.run_s


def timed_run(inputs, work: Path, seconds: float) -> tuple[Runner, dict]:
    # the first child compiles the bytecode once, as installing the package does
    setup_sample(work)
    runner = Runner(inputs, work)
    module = [sys.executable, "-m", "bimonetary"]
    ok: list[Child] = []
    setup: list[float] = []
    measured = 0.0
    started = time.perf_counter()
    while measured < seconds or runner.attempted < MIN_INVOCATIONS:
        if runner.attempted >= MIN_INVOCATIONS and (
            time.perf_counter() - started + measured / runner.attempted > RUN_BUDGET_S
        ):
            break
        # set-up samples are spread over the run, as the machine's speed drifts
        setup.append(setup_sample(work))
        child, report = runner.invoke(module, "invocation")
        measured += child.run_s
        if not report.problems:
            ok.append(child)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(work))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    if not ok:
        raise SystemExit("no invocation succeeded, so there is nothing to time")
    metrics = {
        "run_s": statistics.median(c.run_s for c in ok),
        "cpu_s": statistics.median(c.cpu_s for c in ok),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
        "setup_s": statistics.median(setup),
    }
    return runner, metrics


def traced_run(inputs, work: Path) -> tuple[Runner, dict]:
    runner = Runner(inputs, work)
    untraced, _ = runner.invoke([sys.executable, "-m", "bimonetary"], "untraced")
    spans = work / "spans.json"
    traced, report = runner.invoke(
        [
            sys.executable,
            str(BENCH / "tracer.py"),
            "--spans",
            str(spans),
            "--workload",
            inputs.workload.name,
            "--",
        ],
        "traced",
    )
    if not spans.exists():
        raise SystemExit("the traced child wrote no spans")
    metrics = tracer.layer_metrics(json.loads(spans.read_text()))
    metrics["cli.artifact_bytes"] = report.artifact_bytes
    metrics["equilibrium.max_rel_err"] = report.eq_max_rel_err or 0.0
    metrics["trace.overhead_s"] = traced.run_s - untraced.run_s
    print(f"traced run_s {traced.run_s:.4f} - untraced run_s {untraced.run_s:.4f}")
    return runner, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="bimonetary pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # numpy seeds are non-negative; fold any integer onto 64 bits
        inputs = workloads.generate(args.workload, args.seed % 2**64, work)
        for key, value in environment().items():
            print(f"env {key}: {value}")
        if args.trace:
            runner, metrics = traced_run(inputs, work)
        else:
            runner, metrics = timed_run(inputs, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    print(f"attempted {runner.attempted}, failed {runner.failed}")
    print(f"failed_frac {runner.failed / runner.attempted:.6g}")
    if runner.eq_max_rel_err is not None:
        print(f"eq_max_rel_err {runner.eq_max_rel_err:.6g}")
    result = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
