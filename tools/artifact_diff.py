"""Field-level diff of two copolab artifacts, or of two directories of them.

Usage: python tools/artifact_diff.py A B

A and B are two JSON or CSV artifacts, or two directories whose *.json and
*.csv files (searched recursively) are paired by their relative paths.  A
CSV artifact is read as its "# {...}" header line, parsed as JSON, and its
rows, each cell an int, a float or else a string.  Structure (keys, lengths,
files), flags, integers, strings and nulls must match exactly; a float that
differs is reported with its relative move |b - a| / max(|a|, |b|).  Prints
one line per difference and a summary; exits 1 when anything but a float
differs, else 0.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def load(path: Path):
    """An artifact as JSON values: a CSV becomes {"header": ..., "rows": [...]}."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        return json.loads(text)
    lines = text.splitlines()
    header = json.loads(lines[0][2:]) if lines and lines[0].startswith("# ") else None
    table = csv.reader(lines[1:] if header is not None else lines)
    return {"header": header, "rows": [[_cell(value) for value in row] for row in table]}


def _cell(value: str):
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def relative_move(a: float, b: float) -> float:
    """|b - a| / max(|a|, |b|): 0 for equal values or two NaNs, inf next to a NaN or an infinity."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def diff(a, b, path: str = ""):
    """Yield (path, kind, a, b, move) for every field where a and b differ.

    kind is "float" for two floats that differ, with their relative move,
    and "exact" for any other difference, with move None.
    """
    if type(a) is float and type(b) is float:
        move = relative_move(a, b)
        if move:
            yield path, "float", a, b, move
    elif type(a) is not type(b):
        yield path, "exact", a, b, None
    elif isinstance(a, dict):
        for key in sorted(a.keys() | b.keys()):
            where = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                yield where, "exact", a.get(key, "<missing>"), b.get(key, "<missing>"), None
            else:
                yield from diff(a[key], b[key], where)
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path}.length", "exact", len(a), len(b), None
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, "exact", a, b, None


def pairs(first: Path, second: Path):
    """(name, path in first or None, path in second or None) of every artifact pair."""
    if not first.is_dir():
        return [(first.name, first, second)]
    names = sorted({
        str(path.relative_to(root))
        for root in (first, second) for path in root.rglob("*") if path.suffix in (".json", ".csv")
    })
    found = [{name: root / name for name in names if (root / name).is_file()} for root in (first, second)]
    return [(name, found[0].get(name), found[1].get(name)) for name in names]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/artifact_diff.py A B", file=sys.stderr)
        return 2
    exact = floats = 0
    worst = 0.0
    for name, a, b in pairs(Path(args[0]), Path(args[1])):
        if a is None or b is None:
            print(f"{name}: only in {args[0] if b is None else args[1]}")
            exact += 1
            continue
        for where, kind, x, y, move in diff(load(a), load(b)):
            if kind == "float":
                floats += 1
                worst = max(worst, move)
                print(f"{name}:{where}: {x!r} -> {y!r} (relative {move:.2e})")
            else:
                exact += 1
                print(f"{name}:{where}: {x!r} != {y!r}")
    print(f"{exact} exact differences, {floats} floats moved, worst relative move {worst:.2e}")
    return 1 if exact else 0


if __name__ == "__main__":
    sys.exit(main())
