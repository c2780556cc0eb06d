"""`tools/bench_pairs.py`: the pair summary, the no-regression verdict and
the exit status."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from tools.bench_pairs import summarize, verdict

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def test_ties_count_for_neither_side():
    s = summarize([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0], "lower")
    assert s.wins == 1
    assert s.pairs == 4
    assert not s.gain


def test_nine_of_ten_wins_is_enough_and_eight_is_not():
    parent = [10.0 + 0.01 * i for i in range(10)]
    nine = [5.0] * 9 + [20.0]
    eight = [5.0] * 8 + [20.0, 20.0]
    assert summarize(parent, nine, "lower").wins == 9
    assert summarize(parent, nine, "lower").gain
    assert summarize(parent, eight, "lower").wins == 8
    assert not summarize(parent, eight, "lower").gain


def test_fewer_than_ten_pairs_show_no_gain():
    parent = [10.0 + 0.01 * i for i in range(10)]
    s = summarize(parent[:9], [5.0] * 9, "lower")
    assert (s.wins, s.pairs) == (9, 9)
    assert not s.gain
    assert summarize(parent, [5.0] * 10, "lower").gain


def test_gap_inside_the_parent_interquartile_distance_is_no_gain():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [p - 0.5 for p in parent]        # wins every pair by 0.5
    s = summarize(parent, change, "lower")
    assert s.wins == 10
    assert s.parent_quartiles == (3.25, 7.75)
    assert s.parent_median - s.change_median == pytest.approx(0.5)
    assert not s.gain


def test_higher_is_better_counts_the_other_way():
    s = summarize([1.0] * 10, [2.0] * 10, "higher")
    assert s.wins == 10
    assert s.gain
    assert summarize([1.0] * 10, [2.0] * 10, "lower").wins == 0


def test_pair_ratios_cancel_a_drift_that_spreads_both_sides():
    # the machine slows fourfold across the pairs; the change is 10% faster
    # in every pair, which the sides' own quartiles cannot show
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.9 * p for p in parent]
    s = summarize(parent, change, "lower")
    assert s.change_quartiles[1] > s.parent_quartiles[0]
    assert s.ratio_median == pytest.approx(0.9)
    assert s.ratio_quartiles == pytest.approx((0.9, 0.9))
    assert summarize([0.0, 2.0], [1.0, 3.0], "lower").ratio_median == 1.5
    assert math.isnan(summarize([0.0], [1.0], "lower").ratio_median)


def test_verdict_bound_is_relative_to_the_parent_median():
    parent = [10.0] * 10
    assert verdict(parent, [12.4] * 10, "lower", 0.25) == "ok"
    assert verdict(parent, [12.6] * 10, "lower", 0.25) == "regressed"
    assert verdict(parent, [7.6] * 10, "higher", 0.25) == "ok"
    assert verdict(parent, [7.4] * 10, "higher", 0.25) == "regressed"


def test_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [float(v) for v in range(1, 11)]     # quartiles 3.25 and 7.75
    assert verdict(parent, parent, "lower", 0.25) == "unresolved"
    assert verdict(parent, parent, "lower", 0.9) == "ok"
    # every change run beats every parent run: resolved despite the spread
    assert verdict(parent, [0.5] * 10, "lower", 0.25) == "ok"
    assert verdict(parent, [0.5] * 9 + [1.5], "lower", 0.25) == "unresolved"
    assert verdict(parent, [20.0] * 10, "lower", 0.25) == "regressed"


def test_verdict_is_never_ok_from_fewer_than_ten_pairs():
    assert verdict([10.0] * 9, [10.0] * 9, "lower", 0.25) == "unresolved"
    # not even when every change run beats every parent run
    assert verdict([10.0] * 9, [5.0] * 9, "lower", 0.25) == "unresolved"
    assert verdict([10.0] * 3, [13.0] * 3, "lower", 0.25) == "regressed"
    assert verdict([10.0] * 10, [10.0] * 10, "lower", 0.25) == "ok"


def checkout(root: Path, failed: int, log: Path, run_s: float = 1.0) -> Path:
    """A stand-in checkout whose bench/run.py logs its seed and prints a
    result with fixed metrics."""
    (root / "bench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "run_seconds": 1,
                "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}],
            }
        )
    )
    result = {"correct": not failed, "attempted": 2, "failed": failed,
              "metrics": {"run_s": {"value": run_s + failed, "unit": "s"}}}
    (root / "bench" / "run.py").write_text(
        "import sys\n"
        f"open({str(log)!r}, 'a').write({root.name!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    return root


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)],
        capture_output=True, text=True, check=False,
    )


def test_pairs_alternate_and_a_failed_run_exits_one(tmp_path):
    log = tmp_path / "order.log"
    parent = checkout(tmp_path / "parent", 0, log)
    change = checkout(tmp_path / "change", 0, log)
    done = run(parent, change, "--workload", "w", "--pairs", 3)
    assert done.returncode == 0, done.stdout + done.stderr
    assert log.read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3",
    ]
    assert "ratio change/parent 1.000 [1.000, 1.000], change won 0 of 3" in done.stdout
    assert "change won 0 of 3, gain not shown, verdict unresolved" in done.stdout
    broken = checkout(tmp_path / "broken", 1, log)
    assert run(parent, broken, "--workload", "w", "--pairs", 1).returncode == 1


def test_medians_print_with_three_decimals(tmp_path):
    # four significant digits would print both medians as "126"
    log = tmp_path / "order.log"
    parent = checkout(tmp_path / "parent", 0, log, run_s=126.0)
    change = checkout(tmp_path / "change", 0, log, run_s=126.04)
    done = run(parent, change, "--workload", "w", "--pairs", 1)
    assert "pair 1 change: run_s 126.040" in done.stdout
    assert "parent 126.000 [126.000, 126.000], change 126.040 [126.040, 126.040]" in done.stdout


def test_bad_usage_exits_two(tmp_path):
    assert run(tmp_path, tmp_path, "--workload", "w", "--pairs", 1).returncode == 2
    assert run(tmp_path).returncode == 2
