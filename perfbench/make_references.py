"""Regenerate perfbench/references.json from the current tree.

    python3 perfbench/make_references.py [--seeds 0-15]

Run it only on a commit whose outputs are the accepted ones: the fidelity
gate then holds every later commit to them.  For each seed it runs the
reduced pretrain once, `compare` and the `evaluate_frozen` runs on its
snapshots, and records their outputs and file digests.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import tempfile
from pathlib import Path

from fidelity import REFERENCES
from run import WORK_ROOT, import_package
from workloads import PRETRAIN_BUDGET, Compare, EvaluateFrozen

DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def capture(cli, work: Path, seed: int) -> dict:
    compare = Compare(cli, work, seed)
    evaluate = EvaluateFrozen(cli, work, seed)
    evaluate.out = compare.out  # reuse the snapshots compare's set-up wrote
    entry: dict = {}
    digests: dict[str, str] = {}
    for invocations in (compare.setup(), compare.unit(), evaluate.unit()):
        for inv in invocations:
            if inv.rc != 0:
                raise SystemExit(f"seed {seed}: {inv.section} exited {inv.rc}")
            entry.setdefault(inv.section, {}).update(inv.outputs)
            for name, digest in inv.sha256.items():
                digests[f"{inv.section}/{name}"] = digest
    entry["sha256"] = digests
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    first, _, last = parser.parse_args().seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    pkg, _, _ = import_package()
    logging.getLogger().addHandler(logging.NullHandler())
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    references = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "budget": PRETRAIN_BUDGET,
        "seeds": {},
    }
    for seed in seeds:
        work = Path(tempfile.mkdtemp(prefix="references-", dir=WORK_ROOT))
        try:
            references["seeds"][str(seed)] = capture(pkg.cli, work, seed)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"seed {seed}: captured", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
