#!/usr/bin/env python3
"""Compare the outputs of two experiment runs.

    python scripts/compare_runs.py A B

A and B are output directories of `vrfrbs run` (or `bench.run_experiment`).
Their runs.csv, summary.csv and manifest.json are compared:

* keys, iteration and call counts, and every other non-float value must
  match exactly: the CSV key columns, epochs (calls / n) and iterations,
  and in the manifest every string, integer, boolean and null;
* float values (the residual and wall-time CSV columns, the manifest's
  float fields) get a relative change |a - b| / max(|a|, |b|) and an
  absolute change |a - b|.  The manifest writes a non-finite float as the
  string "inf", "-inf" or "nan"; such a string is read back as that float.

It prints the largest relative and the largest absolute change for each
file and float column, and the first structural difference it finds.  The
absolute change tells rounding noise on a converged row (a tiny residual,
so a large relative change) from a real drift; only the relative change
sets the exit status.  Exit status: 0 when all three files have identical
bytes, 1 when every change is within REL_TOL relative, 2 for a larger
change or a structural difference (a missing file, another header, row
count, key, count or JSON shape).

The manifest's "numeric_env" record (Python, numpy and BLAS versions,
thread variables, CPU count) says what the bytes depend on, not what the
program computed.  It is reported apart from the numbers, entry by entry,
and never sets the exit status: two manifests that differ only there count
as identical.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

FILES = ("runs.csv", "summary.csv", "manifest.json")
# the float columns of runs.csv and summary.csv; every other column is a
# key or a count and must match exactly
FLOAT_COLUMNS = ("rel_residual", "abs_residual", "wall_ms",
                 "mean_rel_residual")
# the north star's rounding-level bound for a refactor, relative per value
REL_TOL = 1e-9
# the manifest's strings for non-finite floats
NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}
# the manifest's record of what its bytes depend on (bench.numeric_env)
ENV_KEY = "numeric_env"


class Structural(Exception):
    """The two files differ in something other than float values."""


def change(a: float, b: float) -> tuple:
    """(relative, absolute) change between two values."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def _note(changes, column, a, b):
    rel, absolute = change(a, b)
    old_rel, old_abs = changes.get(column, (0.0, 0.0))
    changes[column] = (max(old_rel, rel), max(old_abs, absolute))


def compare_csv(path_a: Path, path_b: Path) -> dict:
    """Largest (relative, absolute) change per float column of two CSV
    files."""
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        raise Structural("headers differ")
    if len(rows_a) != len(rows_b):
        raise Structural(f"{len(rows_a) - 1} rows against {len(rows_b) - 1}")
    header = rows_a[0]
    changes = {name: (0.0, 0.0) for name in header if name in FLOAT_COLUMNS}
    for line, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if len(ra) != len(header) or len(rb) != len(header):
            raise Structural(f"line {line} has another field count")
        for name, a, b in zip(header, ra, rb):
            if name not in changes:
                if a != b:
                    raise Structural(f"line {line}: {name} {a} != {b}")
                continue
            try:
                _note(changes, name, float(a), float(b))
            except ValueError:
                raise Structural(f"line {line}: {name} is not a number") \
                    from None
    return changes


def _read_float(value):
    return NON_FINITE.get(value, value) if isinstance(value, str) else value


def _walk(a, b, path, changes):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            raise Structural(f"{path or '/'}: keys differ")
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}" if path else key, changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Structural(f"{path}: {len(a)} items against {len(b)}")
        for u, v in zip(a, b):
            _walk(u, v, path + "[]", changes)
    elif isinstance(a, float) and isinstance(b, float):
        _note(changes, path, a, b)
    elif isinstance(a, str) and a in NON_FINITE \
            or isinstance(b, str) and b in NON_FINITE:
        _walk(_read_float(a), _read_float(b), path, changes)
    elif type(a) is not type(b) or a != b:
        raise Structural(f"{path}: {a!r} != {b!r}")


def read_manifest(path: Path) -> tuple:
    """A manifest's document without its numeric_env record, and the record
    (None when it has none)."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc, doc.pop(ENV_KEY, None) if isinstance(doc, dict) else None


def _entries(value, path=""):
    if not isinstance(value, dict):
        return {path: value}
    return {key: item for name, sub in value.items()
            for key, item in _entries(sub, f"{path}.{name}" if path else name)
            .items()}


def env_differences(env_a, env_b) -> list:
    """The numeric_env entries that differ, as "entry: a != b" lines."""
    if (env_a is None) != (env_b is None):
        return [f"absent in {'A' if env_a is None else 'B'}"]
    a, b = _entries(env_a or {}), _entries(env_b or {})
    return [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def compare_json(path_a: Path, path_b: Path) -> dict:
    """Largest (relative, absolute) change per float field (list items
    merged) of two manifests, without their numeric_env records."""
    changes: dict = {}
    _walk(read_manifest(path_a)[0], read_manifest(path_b)[0], "", changes)
    return changes


def compare_dirs(dir_a, dir_b, out=sys.stdout) -> int:
    """Print the comparison of two output directories; return the exit
    status."""
    status = 0
    for name in FILES:
        path_a, path_b = Path(dir_a) / name, Path(dir_b) / name
        if not (path_a.is_file() and path_b.is_file()):
            print(f"{name}: missing", file=out)
            status = 2
            continue
        if path_a.read_bytes() == path_b.read_bytes():
            print(f"{name}: identical bytes", file=out)
            continue
        if name == "manifest.json":
            (doc_a, env_a), (doc_b, env_b) = map(read_manifest,
                                                 (path_a, path_b))
            for line in env_differences(env_a, env_b):
                print(f"{name}: {ENV_KEY} differs, {line}", file=out)
            if json.dumps(doc_a, sort_keys=True) \
                    == json.dumps(doc_b, sort_keys=True):
                print(f"{name}: identical apart from {ENV_KEY}", file=out)
                continue
        compare = compare_json if name.endswith(".json") else compare_csv
        try:
            changes = compare(path_a, path_b)
        except Structural as exc:
            print(f"{name}: structural difference: {exc}", file=out)
            status = 2
            continue
        worst = max((rel for rel, _ in changes.values()), default=0.0)
        status = max(status, 1 if worst <= REL_TOL else 2)
        print(f"{name}: bytes differ, largest relative change {worst:.3g}",
              file=out)
        for column, (rel, absolute) in changes.items():
            print(f"  {column}: {rel:.3g} relative, {absolute:.3g} absolute",
                  file=out)
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_runs.py A B", file=sys.stderr)
        return 2
    return compare_dirs(*args)


if __name__ == "__main__":
    sys.exit(main())
