"""Run alternating parent/change pairs of the benchmark and summarize them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S \\
        --pairs N --seconds T

PARENT and CHANGE are two checkouts of this repository.  Pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, the parent first in even pairs and the change first
in odd ones, so a drift in the host's speed falls on both sides alike.  For
each end-to-end metric that CHANGE's BENCHMARK.json lists, it prints the
parent's median and interquartile range (quartiles by the inclusive
method), the change's median and its relative difference, and in how many
pairs the change came out better (ties count for neither).  It also prints
the failed and attempted invocations of each side, as the fidelity gate
counted them.  The last line of stdout is the whole summary as JSON, with
every run's values.  Exits 1 if any invocation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Compare paired runs.  parent[i] and change[i] are the result lines
    of pair i; metrics are BENCHMARK.json's end-to-end entries (name,
    better, bound)."""
    summary: dict = {
        side: {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
        for side, runs in (("parent", parent), ("change", change))
    }
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        q1, median, q3 = statistics.quantiles(p, n=4, method="inclusive")
        c_median = statistics.median(c)
        # > 0 where the change is better
        gain = sign * (median - c_median)
        summary[name] = {
            "bound": metric["bound"],
            "parent": {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1},
            "change": {"median": c_median},
            "change_vs_parent_median": c_median / median - 1.0,
            "change_better_pairs": f"{sum(sign * (a - b) > 0.0 for a, b in zip(p, c))}/{len(p)}",
            "median_gap_exceeds_parent_iqr": gain > q3 - q1,
            "within_bound": -gain <= metric["bound"] * median,
            "parent_runs": p,
            "change_runs": c,
        }
    return summary


def report(summary: dict, metrics: list[dict]) -> str:
    lines = [
        f"{'metric':<12} {'parent median':>14} {'parent IQR':>11} {'change median':>14} "
        f"{'change':>8} {'better pairs':>13}"
    ]
    for metric in metrics:
        s = summary[metric["name"]]
        lines.append(
            f"{metric['name']:<12} {s['parent']['median']:>14.4f} {s['parent']['iqr']:>11.4f} "
            f"{s['change']['median']:>14.4f} {s['change_vs_parent_median']:>+8.1%} "
            f"{s['change_better_pairs']:>13}"
        )
    for side in ("parent", "change"):
        lines.append(
            f"{side}: {summary[side]['failed']} of {summary[side]['attempted']} invocations failed"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(
                run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            )
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    summary = summarize(runs["parent"], runs["change"], metrics)
    print(report(summary, metrics))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}))
    return 1 if summary["parent"]["failed"] or summary["change"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
