"""tools/kernel_timings.py, the per-call timing of the kernel layer: a
smoke run with a few calls per repeat."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_prints_one_positive_timing_per_operation(capsys):
    spec = importlib.util.spec_from_file_location(
        "kernel_timings", ROOT / "tools" / "kernel_timings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--calls", "3"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    ops = ["forward", "gradient", "input_gradient", "step"]
    names = [f"{net}.{op}" for net in ("critic", "action") for op in ops]
    names += ["control_step.learn", "control_step.frozen",
              "control_step.learn_held", "control_step.frozen_held",
              "control_step.learn_closed",
              "td_epoch.sample", "fit_epoch.sample",
              "trace.text_ms", "trace.metrics_ms"]
    assert [name for name, _ in lines] == names
    assert all(float(us) > 0.0 for _, us in lines)
