"""The benchmark's tracer wraps functions of the package by name from
outside; these tests keep those names alive and check that uninstalling
the tracer puts every original back."""

import importlib.util
from pathlib import Path

import boosthdp
import boosthdp.cli  # imports every module the tracer patches
from boosthdp import baseline, hdp, mlp, sim
from boosthdp.plant import PlantParams

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer may patch, as a snapshot of its contents."""
    owners = [getattr(boosthdp, name) for name in _load_tracing().MODULES]
    owners += [mlp.Mlp, hdp.HdpController, baseline.PiController]
    return {owner: dict(vars(owner)) for owner in owners}


def test_install_wraps_and_uninstall_restores():
    before = _namespaces()
    tracer = _load_tracing().Tracer(boosthdp)
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched, "the tracer patched nothing"
        for owner, attr, raw in patched:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    after = _namespaces()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner.__name__
        for attr, value in names.items():
            assert after[owner][attr] is value, f"{owner.__name__}.{attr} not restored"


def test_traced_run_matches_untraced():
    # a wrapped name whose signature drifted would fail or change the result
    params = PlantParams()
    spec = sim.builtin_scenario("load_change", "PI", params)
    plain = sim.run_scenario(spec, sim.baseline_for_scenario(spec, params), params)
    tracer = _load_tracing().Tracer(boosthdp)
    tracer.install()
    try:
        traced = sim.run_scenario(spec, sim.baseline_for_scenario(spec, params), params)
    finally:
        tracer.uninstall()
    assert traced == plain
