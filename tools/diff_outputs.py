"""Compare two boosthdp output directories artifact by artifact.

The check for a change that may move bits but must not move a printed
value.  Make one directory per checkout with the same config and seed,

    PYTHONPATH=src python tools/hash_outputs.py --seed 0 --out A

then run `PYTHONPATH=src python tools/diff_outputs.py A B`.  It prints one
line per artifact in either directory: whether its bytes are identical and,
where they differ, what moved:

- `metrics.csv`: whether every row's `compare` table row and `run` summary
  line are equal;
- `pretrain_residuals.csv`: whether the residual curve is equal at `%.4g`;
- a trace (`<scenario>_<controller>.csv`): the largest deviation of a
  numeric column relative to that column's largest magnitude in A, and the
  number of periods whose conduction mode differs.

It exits 1 if a printed value differs, or an artifact is missing from one
side or cannot be compared row by row; otherwise 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from boosthdp import cli
from boosthdp.sim import TRACE_FIELDS, Metrics


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _relative(a: list[float], b: list[float]) -> float:
    """Largest |a - b| over the largest finite |a|; NaN equals NaN."""
    devs = [
        0.0 if (x == y or (math.isnan(x) and math.isnan(y))) else abs(x - y)
        for x, y in zip(a, b)
    ]
    worst = max(devs, default=0.0)
    if worst == 0.0:
        return 0.0
    scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0)
    return worst / scale if scale > 0.0 and math.isfinite(worst) else math.inf


def _printed_metrics(path: Path) -> dict[tuple[str, str], tuple[str, str]]:
    """Each metrics row as (its `compare` table row, its `run` line)."""
    printed = {}
    for scenario, tag, *values in _rows(path)[1:]:
        # each float as its repr, each flag as True or False
        m = Metrics(*(v == "True" if v in ("True", "False") else float(v) for v in values))
        printed[scenario, tag] = (
            cli._table_row(scenario, tag, m), cli._run_line(scenario, tag, m)
        )
    return printed


def _compare_metrics(a: Path, b: Path) -> tuple[str, bool]:
    pa, pb = _printed_metrics(a), _printed_metrics(b)
    moved = [" ".join(key) for key in pa.keys() | pb.keys() if pa.get(key) != pb.get(key)]
    if moved:
        return f"printed metrics differ in {', '.join(sorted(moved))}", True
    return "printed metrics equal", False


def _compare_residuals(a: Path, b: Path) -> tuple[str, bool]:
    ra, rb = ([f"{float(v):.4g}" for _, v in _rows(p)[1:]] for p in (a, b))
    if len(ra) != len(rb):
        return f"residual curve has {len(ra)} and {len(rb)} entries", True
    moved = sum(x != y for x, y in zip(ra, rb))
    if moved:
        return f"residual curve differs at %.4g in {moved} of {len(ra)} entries", True
    return f"residual curve equal at %.4g ({len(ra)} entries)", False


def _compare_trace(a: Path, b: Path) -> tuple[str, bool]:
    ta, tb = _rows(a), _rows(b)
    if ta[0] != list(TRACE_FIELDS) or tb[0] != ta[0] or len(ta) != len(tb):
        return "header or row count differs", True
    worst, where, modes = 0.0, "", 0
    for name, ca, cb in zip(ta[0], zip(*ta[1:]), zip(*tb[1:])):
        if name == "mode":
            modes = sum(x != y for x, y in zip(ca, cb))
            continue
        dev = _relative(list(map(float, ca)), list(map(float, cb)))
        if dev > worst:
            worst, where = dev, f" ({name})"
    return (
        f"largest deviation {worst:.2g} of a column's maximum{where}, "
        f"{modes} mode mismatches"
    ), False


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """One report line per artifact, and whether a printed value differs."""
    names = sorted(
        p.name for d in (a, b) for p in d.iterdir()
        if p.is_file() and not p.name.startswith(".")
    )
    lines, failed = [], False
    for name in dict.fromkeys(names):
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            lines.append(f"{name}: missing in {b if fa.is_file() else a}")
            failed = True
            continue
        if fa.read_bytes() == fb.read_bytes():
            lines.append(f"{name}: bytes identical")
            continue
        if name == "metrics.csv":
            detail, moved = _compare_metrics(fa, fb)
        elif name == "pretrain_residuals.csv":
            detail, moved = _compare_residuals(fa, fb)
        elif name.endswith(".csv"):
            detail, moved = _compare_trace(fa, fb)
        else:  # the snapshots: no printed value
            lines.append(f"{name}: bytes differ")
            continue
        lines.append(f"{name}: bytes differ; {detail}")
        failed |= moved
    lines.append("printed values: " + ("differ" if failed else "equal"))
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="output directory of the reference run")
    parser.add_argument("b", type=Path, help="output directory of the run to check")
    args = parser.parse_args(argv)
    lines, failed = compare(args.a, args.b)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
