"""Fidelity gate: every CLI invocation's outputs against committed references.

`references.json` holds, per seed, the outputs of each workload at printed
precision (compare table lines as printed, residual history and metrics.csv
floats at %.4g, the epoch count) plus sha256 digests of snapshots and
traces.  A change that only reassociates floating-point sums keeps the
printed values, so it passes; the digests are reported as information.

Seeds without a committed reference are still checked: PI cells do not
depend on the seed, so they are compared against the default seed's
reference; every other output must be sane (finite, no failed cell, the
residual falling) and identical on every repetition within the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def sane(key: str, value: object) -> bool:
    """Checks that hold for the outputs of any seed."""
    if value is None:
        return False
    if key == "residuals":
        history = [float(v) for v in value]
        return all(map(math.isfinite, history)) and history[-1] < history[0]
    if key == "epochs":
        return isinstance(value, int) and value >= 1
    # a compare line "<scenario> <tag> numbers..." or a metrics.csv row
    numbers = value.split()[2:] if isinstance(value, str) else value[:-2]
    try:
        return bool(numbers) and all(math.isfinite(float(v)) for v in numbers)
    except ValueError:  # a compare cell that failed prints '-'
        return False


class FidelityGate:
    def __init__(self, references: dict, seed: int) -> None:
        seeds = references["seeds"]
        self.reference = seeds.get(str(seed))
        self.seed_independent = seeds[str(references["default_seed"])]
        self.first_seen: dict[tuple[str, str], object] = {}
        self.digests_checked = 0
        self.digests_identical = 0

    @property
    def mode(self) -> str:
        return "committed" if self.reference is not None else "self-consistency"

    def _expected(self, section: str, key: str, value: object) -> object:
        if self.reference is not None:
            return self.reference[section].get(key)
        if key == "header" or key.endswith(" PI"):
            return self.seed_independent[section].get(key)
        expected = self.first_seen.setdefault((section, key), value)
        return expected if sane(key, value) else None

    def check(self, inv) -> list[str]:
        """Problems with one invocation; empty when it passes."""
        if inv.rc != 0:
            return [f"{inv.section}: exit {inv.rc}"]
        problems = []
        for key in inv.expects:
            value = inv.outputs.get(key)
            expected = self._expected(inv.section, key, value)
            if value is None or value != expected:
                problems.append(f"{inv.section} {key}: got {value!r}, expected {expected!r}")
        if self.reference is not None:
            digests = self.reference["sha256"]
            for name, digest in inv.sha256.items():
                self.digests_checked += 1
                self.digests_identical += digests.get(f"{inv.section}/{name}") == digest
        return problems
