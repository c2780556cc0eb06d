"""Compare two artifact directories file by file.

    python3 tools/artifact_diff.py DIR_A DIR_B

Prints one line per file name found in either directory: ``identical`` when
the bytes match, else the largest relative difference ``|a - b| / max(|a|,
|b|)`` and the largest absolute difference ``|a - b|`` over the cells that
hold a number on both sides, followed by every cell that changes between
empty and filled and every other changed cell. For a ``.csv`` the first line
also gives the largest column-scaled difference: the largest ``|a - b|`` in a
column divided by that column's largest ``|a|``, which stays readable where a
column's values cancel to near zero.
Cells are the fields of a ``.csv``, the leaves of a ``.json`` (``null`` is
empty) and the whitespace-separated words of any other file. Exits 0 when
every file is identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _json_leaves(node, where: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_leaves(value, f"{where}[{i}]")
    else:
        yield where, None, "" if node is None else json.dumps(node).strip('"')


def cells(path: Path) -> list[tuple[str, int | None, str]]:
    """(location, column, text) of every cell of the file, in file order;
    the column is the field index of a ``.csv`` cell and None elsewhere."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        header = rows[0] if rows else []
        return [
            (f"row {r} column {header[c] if c < len(header) else c!r}", c, cell)
            for r, row in enumerate(rows[1:], start=2)
            for c, cell in enumerate(row)
        ]
    if path.suffix == ".json":
        return list(_json_leaves(json.loads(text), "$"))
    return [(f"word {i}", None, word) for i, word in enumerate(text.split())]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def differences(a: Path, b: Path) -> list[str]:
    """Report lines for one file present in both directories; empty when
    the files are byte-identical."""
    if a.read_bytes() == b.read_bytes():
        return []
    left, right = cells(a), cells(b)
    if [where for where, *_ in left] != [where for where, *_ in right]:
        return [f"layout differs: {len(left)} cells against {len(right)}"]
    worst_rel = worst_abs = 0.0
    column_scale: dict[int | None, float] = {}   # largest |a| of the column
    column_diff: dict[int | None, float] = {}    # largest |a - b| of the column
    changed: list[str] = []
    for (where, column, x), (*_, y) in zip(left, right):
        u, v = _number(x), _number(y)
        if u is not None and math.isfinite(u):
            column_scale[column] = max(column_scale.get(column, 0.0), abs(u))
        if x == y:
            continue
        if u is not None and v is not None and math.isfinite(u) and math.isfinite(v):
            worst_rel = max(worst_rel, abs(u - v) / max(abs(u), abs(v)))
            worst_abs = max(worst_abs, abs(u - v))
            column_diff[column] = max(column_diff.get(column, 0.0), abs(u - v))
            continue
        kind = "empty/filled" if (x == "") != (y == "") else "changed"
        changed.append(f"  {where}: {x!r} -> {y!r} ({kind})")
    summary = (
        f"max relative difference {worst_rel:.3g}, "
        f"max absolute difference {worst_abs:.3g}"
    )
    if a.suffix == ".csv":
        scaled = max(
            (diff / column_scale[c] if column_scale[c] else math.inf
             for c, diff in column_diff.items()),
            default=0.0,
        )
        summary += f", max column-scaled difference {scaled:.3g}"
    return [summary, *changed]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: artifact_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    left, right = map(Path, args)
    names = sorted(
        {p.name for p in left.iterdir() if p.is_file()}
        | {p.name for p in right.iterdir() if p.is_file()}
    )
    status = 0
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            lines = [f"only in {left if a.is_file() else right}"]
        else:
            lines = differences(a, b)
        status |= bool(lines)
        print(f"{name}: {lines[0] if lines else 'identical'}")
        for line in lines[1:]:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
