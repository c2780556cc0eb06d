"""Time a parent checkout against a changed one, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

For pair i (i = 1..N) it runs ``DIR/bench/run.py --workload W --seed i
--trace 0 --seconds S`` in each checkout, the parent first in odd pairs and
the change first in even ones. S is ``run_seconds`` of ``BENCHMARK.json``,
which must be the same in both checkouts. For each end-to-end metric it
prints each side's median and quartiles, the pairs the change won (a tie
counts for neither), and whether a gain may be claimed: there are at least
ten pairs, the change wins at least nine tenths of them, and its median is
better than the parent's by more than the distance between the parent's
quartiles. It also prints a no-regression verdict against the metric's
``bound`` (see :func:`verdict`), and the median and quartiles of the
per-pair ratio change/parent: the two runs of a pair are back to back, so
a slow drift of the machine's speed cancels in their ratio while it
spreads the sides' own quartiles. Every value is printed with three decimals, which resolves 1 ms and 0.001
MB, so two medians that print alike differ by less than that.

Exits 0 when every run succeeded, 1 when a run reports ``failed > 0`` or
gives no result, and 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Summary:
    parent_median: float
    parent_quartiles: tuple[float, float]
    change_median: float
    change_quartiles: tuple[float, float]
    wins: int
    pairs: int
    gain: bool
    ratio_median: float
    ratio_quartiles: tuple[float, float]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], change: list[float], better: str) -> Summary:
    """Compare one metric's values, ``parent[i]`` paired with ``change[i]``;
    ``better`` is ``"lower"`` or ``"higher"``. Fewer than ten pairs show no
    gain, however many the change wins. The ratios change/parent skip
    the pairs whose parent value is 0, and are NaN when every pair does."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    low, high = quartiles(parent)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    ratios = [c / p for p, c in zip(parent, change) if p != 0] or [math.nan]
    return Summary(
        statistics.median(parent),
        (low, high),
        statistics.median(change),
        quartiles(change),
        wins,
        len(parent),
        len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > high - low,
        statistics.median(ratios),
        quartiles(ratios),
    )


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """``"regressed"`` when the change's median is worse than the parent's by
    more than ``bound`` times the parent's median; otherwise ``"unresolved"``
    from fewer than ten pairs, or when the parent's quartiles lie further
    apart than that bound, unless every change run beats every parent run;
    otherwise ``"ok"``."""
    sign = 1.0 if better == "lower" else -1.0
    limit = bound * abs(statistics.median(parent))
    if sign * (statistics.median(change) - statistics.median(parent)) > limit:
        return "regressed"
    if len(parent) < 10:
        # three pairs once read a run_s ratio of 1.104 where ten read 1.000
        return "unresolved"
    low, high = quartiles(parent)
    if high - low > limit and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        return "unresolved"
    return "ok"


def run_seconds(checkout: Path) -> float:
    return json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one ``bench/run.py`` run, or None if it gave none."""
    done = subprocess.run(
        [
            sys.executable,
            str(checkout / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", "0",
            "--seconds", str(seconds),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {checkout}: exit {done.returncode}\n{done.stderr[-400:]}")
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        for needed in ("bench/run.py", "BENCHMARK.json"):
            if not (checkout / needed).is_file():
                parser.error(f"{checkout} has no {needed}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = {run_seconds(checkout) for checkout in sides.values()}
    if len(seconds) != 1:
        parser.error(f"the checkouts set different run_seconds: {sorted(seconds)}")
    (run_s,) = seconds
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())

    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    failed = False
    for seed in range(1, args.pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        results = {side: bench(sides[side], args.workload, seed, run_s) for side in order}
        ok = {
            side: result is not None and result["failed"] == 0
            for side, result in results.items()
        }
        for side, result in results.items():
            shown = (
                ", ".join(f"{n} {m['value']:.3f}" for n, m in result["metrics"].items())
                if ok[side]
                else "FAILED"
            )
            print(f"pair {seed} {side}: {shown}", flush=True)
        if not all(ok.values()):
            failed = True
            continue            # a pair counts only when both of its runs succeeded
        for side, result in results.items():
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])

    for metric in declared["end_to_end"]:
        name = metric["name"]
        parent, change = values["parent"].get(name), values["change"].get(name)
        if not parent:
            print(f"{name}: no pair succeeded, no summary")
            continue
        s = summarize(parent, change, metric["better"])
        regression = verdict(parent, change, metric["better"], metric["bound"])
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {s.parent_median:.3f} [{s.parent_quartiles[0]:.3f}, "
            f"{s.parent_quartiles[1]:.3f}], change {s.change_median:.3f} "
            f"[{s.change_quartiles[0]:.3f}, {s.change_quartiles[1]:.3f}], "
            f"ratio change/parent {s.ratio_median:.3f} [{s.ratio_quartiles[0]:.3f}, "
            f"{s.ratio_quartiles[1]:.3f}], change won {s.wins} of {s.pairs}, "
            f"gain {'holds' if s.gain else 'not shown'}, verdict {regression}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
