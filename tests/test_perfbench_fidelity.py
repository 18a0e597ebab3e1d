"""The benchmark's fidelity gate as a test: one set-up and one unit of each
workload at seed 0 must reproduce the printed outputs committed in
perfbench/references.json, so a change that moves a printed value fails
the suite, not only the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

from boosthdp import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["pretrain", "compare", "evaluate_frozen"])
def test_one_unit_passes_the_gate(workload, tmp_path):
    workloads, fidelity = _load("workloads"), _load("fidelity")
    gate = fidelity.FidelityGate(fidelity.load_references(), seed=0)
    assert gate.mode == "committed"
    unit = workloads.WORKLOADS[workload](cli, tmp_path, seed=0)
    invocations = unit.setup() + unit.unit()
    assert invocations
    problems = [problem for inv in invocations for problem in gate.check(inv)]
    assert problems == []
