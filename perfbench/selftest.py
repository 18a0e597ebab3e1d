"""Self-test of the benchmark at a short budget.

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced measurement of one
second, with a single set-up, and checks that:

- every metric BENCHMARK.json names is reported, with its unit;
- the untraced run, given references with one value of the workload
  deliberately changed, counts the affected invocations as failed and
  reports the run as not correct;
- the traced run, given the committed references, passes.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

from fidelity import load_references
from run import ROOT, measure

SEED = 0
# workload -> reference value the corrupted run gets wrong
CORRUPT = {
    "pretrain": ("pretrain", "epochs"),
    "compare": ("compare", "startup HDP"),
    "evaluate_frozen": ("evaluate_frozen", "load_change HDP-frozen"),
}


def wrong(value):
    """A plausible but different reference value."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):  # metrics.csv row: bump settling_time
        return ["%.4g" % (float(value[0]) * 1.01 + 1e-3)] + value[1:]
    head, _, last = value.rpartition(" ")  # compare line: bump iae
    return f"{head} {float(last) + 1e-3:.4f}"


def units_of(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    references = load_references()
    errors: list[str] = []
    for workload, (section, key) in CORRUPT.items():
        bad = copy.deepcopy(references)
        entry = bad["seeds"][str(SEED)][section]
        entry[key] = wrong(entry[key])

        result, _ = measure(workload, SEED, 1, 0, setup_repeats=1, references=bad)
        if units_of(result) != expected[0]:
            errors.append(f"{workload}: end-to-end metrics {units_of(result)}")
        caught = result["failed"] >= 1 and not result["correct"]
        # only the invocations that produce the changed value may fail
        if workload != "pretrain":
            caught = caught and result["failed"] < result["attempted"]
        if not caught:
            errors.append(f"{workload}: corrupted {section} {key!r} not caught: {result}")

        result, _ = measure(workload, SEED, 1, 1, setup_repeats=1, references=references)
        if units_of(result) != expected[1]:
            errors.append(f"{workload}: per-layer metrics {units_of(result)}")
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload}: traced run failed the fidelity gate: {result}")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
