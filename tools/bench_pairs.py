"""Run alternating parent/change pairs of the benchmark and summarize them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...] \\
        --seed S --pairs N --seconds T

PARENT and CHANGE are two checkouts of this repository.  Pair i of
workload W runs

    PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S \\
        --seconds T --trace 0

once in each checkout, the parent first in even pairs and the change first
in odd ones, so a drift in the host's speed falls on both sides alike; with
several workloads, pair i of every workload runs before pair i + 1 of any.
For each workload and each end-to-end metric that CHANGE's BENCHMARK.json
lists, it prints the parent's median and interquartile range (quartiles by
the inclusive method), the change's median and its relative difference, in
how many pairs the change came out better (ties count for neither), and two
verdicts: `claim_met`, a gain claimed for the change holds (it won at least
9 in 10 pairs and its median beats the parent's by more than the parent's
IQR), and `within_bound`, the change's median is not worse than the
parent's by more than the metric's bound.  It also prints the failed and
attempted invocations of each side, as the fidelity gate counted them, and
the CPUs each side's runs could use (`nproc` in the run's environment
line), flagging the pairs whose sides saw different counts: `compare` and
`pretrain` use a worker process per CPU, so a pair that mixes counts does
not compare like with like.  The last lines of stdout are the summaries as
JSON, one line per workload in the order given, with every run's values.
Exits 1 if any invocation failed.

Both sides run with the bytecode cache off, as the benchmark host runs
them, so each invocation compiles the package from source and
`peak_rss_mb` follows the source's size.  A checkout whose `src/boosthdp`
holds a `__pycache__` would not, so it is refused (exit 2) before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in checkout, with the `nproc`
    of its environment line (the second to last)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    details, result = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), "nproc": json.loads(details)["environment"]["nproc"]}


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
    summary["nproc"] = {
        "parent": [r["nproc"] for r in parent],
        "change": [r["nproc"] for r in change],
        # 1-based, as the progress lines count pairs
        "mismatched_pairs": [
            i + 1 for i, (p, c) in enumerate(zip(parent, change)) if p["nproc"] != c["nproc"]
        ],
    }
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        q1, median, q3 = statistics.quantiles(p, n=4, method="inclusive")
        c_median = statistics.median(c)
        # > 0 where the change is better
        gain = sign * (median - c_median)
        wins = sum(sign * (a - b) > 0.0 for a, b in zip(p, c))
        summary[name] = {
            "bound": metric["bound"],
            "parent": {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1},
            "change": {"median": c_median},
            "change_vs_parent_median": c_median / median - 1.0,
            "change_better_pairs": f"{wins}/{len(p)}",
            "median_gap_exceeds_parent_iqr": gain > q3 - q1,
            "claim_met": 10 * wins >= 9 * len(p) and gain > q3 - q1,
            "within_bound": -gain <= metric["bound"] * median,
            "parent_runs": p,
            "change_runs": c,
        }
    return summary


def report(summary: dict, metrics: list[dict]) -> str:
    lines = [
        f"{'metric':<12} {'parent median':>14} {'parent IQR':>11} {'change median':>14} "
        f"{'change':>8} {'better pairs':>13} {'claim_met':>10} {'within_bound':>13}"
    ]
    for metric in metrics:
        s = summary[metric["name"]]
        lines.append(
            f"{metric['name']:<12} {s['parent']['median']:>14.4f} {s['parent']['iqr']:>11.4f} "
            f"{s['change']['median']:>14.4f} {s['change_vs_parent_median']:>+8.1%} "
            f"{s['change_better_pairs']:>13} {str(s['claim_met']):>10} "
            f"{str(s['within_bound']):>13}"
        )
    for side in ("parent", "change"):
        lines.append(
            f"{side}: {summary[side]['failed']} of {summary[side]['attempted']} invocations failed"
        )
    nproc = summary["nproc"]
    lines.append("nproc: " + ", ".join(
        f"{side} {'/'.join(map(str, sorted(set(nproc[side]))))}" for side in ("parent", "change")
    ))
    if nproc["mismatched_pairs"]:
        lines.append(
            "the sides saw different CPU counts in pairs "
            + ", ".join(map(str, nproc["mismatched_pairs"]))
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="workload to run; repeat for several")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if (checkout / "src" / "boosthdp" / "__pycache__").exists():
            parser.error(f"{checkout} holds src/boosthdp/__pycache__; remove it first")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = list(dict.fromkeys(args.workload))
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(
                    run_once(getattr(args, side), workload, args.seed, args.seconds)
                )
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    summaries = {
        w: summarize(runs[w]["parent"], runs[w]["change"], metrics) for w in workloads
    }
    for workload, summary in summaries.items():
        print(f"{workload}, seed {args.seed}:")
        print(report(summary, metrics))
    for workload, summary in summaries.items():
        print(json.dumps({"workload": workload, "seed": args.seed, **summary}))
    failed = any(s[side]["failed"] for s in summaries.values() for side in ("parent", "change"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
