"""`tools/artifact_diff.py`: per-file report and exit status."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"


def run(a: Path, b: Path) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b)],
        capture_output=True,
        text=True,
        check=False,
    )
    return done.returncode, done.stdout.splitlines()


def write(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8", newline="")
    return root


def test_identical_directories_exit_zero(tmp_path):
    files = {"a.csv": "x,y\r\n1.5,\r\n", "b.json": '{"v": [1, 2.5]}\n'}
    code, lines = run(write(tmp_path / "l", files), write(tmp_path / "r", files))
    assert code == 0
    assert lines == ["a.csv: identical", "b.json: identical"]


def test_differences_are_reported_per_file(tmp_path):
    left = write(
        tmp_path / "l",
        {
            "a.csv": "x,y\r\n1.0,\r\n2.0,3.0\r\n",
            "b.json": '{"v": 4.0, "w": null}\n',
            "c.txt": "same\n",
            "d.txt": "only here\n",
        },
    )
    right = write(
        tmp_path / "r",
        {
            "a.csv": "x,y\r\n1.0,7.0\r\n2.0000000001,3.0\r\n",
            "b.json": '{"v": 5.0, "w": null}\n',
            "c.txt": "same\n",
        },
    )
    code, lines = run(left, right)
    assert code == 1
    assert lines == [
        "a.csv: max relative difference 5e-11, max absolute difference 1e-10, "
        "max column-scaled difference 5e-11",
        "  row 2 column 'y': '' -> '7.0' (empty/filled)",
        "b.json: max relative difference 0.2, max absolute difference 1",
        "c.txt: identical",
        f"d.txt: only in {left}",
    ]
