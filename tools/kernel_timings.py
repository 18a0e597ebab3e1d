"""Time boosthdp's neural kernel layer per call, best of 7.

    PYTHONPATH=src python tools/kernel_timings.py [--calls N]

The benchmark's tracer wraps none of the generated kernels, so this tool
times them directly.  It prints one line per timed operation, `name  us`,
where us is the best of 7 repeats of the mean time per call:

- `critic.forward`, `critic.gradient`, `critic.input_gradient` and
  `critic.step`, and the same four on the action net: the nets' kernels
  (`Mlp.kernels`) and `Mlp.step` on the two shipped topologies
  (`hdp.CRITIC_SIZES`, `hdp.ACTION_SIZES`), N calls per repeat (on a
  checkout whose `Mlp.step` still writes `params`, the row includes that
  write; on later ones the step only returns its list);
- `control_step.learn` and `control_step.frozen`: `HdpController.control_step`
  with and without learning, over N measurements near the nominal point,
  one call at a time;
- `control_step.learn_held` and `control_step.frozen_held`: the same calls
  inside one `HdpController.hold`, as a simulation runs them, on
  checkouts that have it;
- `td_epoch.sample` and `fit_epoch.sample`: `Mlp.td_epoch` on the critic
  and `Mlp.fit_epoch` on the action net, one sweep of N samples per repeat,
  per sample.

Each repeat starts from the same fresh nets (`make_critic(0)`,
`make_action(0)`), so runs see the same values.  It uses only names that
several versions of the package share, and leaves out the rows whose
names a version lacks, so pointing PYTHONPATH at two checkouts in turn
times both with the same command.  The timings depend on the host;
compare two checkouts only on the same host, alternating runs.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

import numpy as np

from boosthdp.hdp import ControllerInput, HdpConfig, HdpController, make_action, make_critic

REPEATS = 7


def _best_us(run, calls: int, fresh) -> float:
    """The best of REPEATS repeats of run(*fresh()), in microseconds per
    call; fresh() builds each repeat's arguments outside the timing."""
    best = float("inf")
    for _ in range(REPEATS):
        args = fresh()
        t0 = perf_counter()
        run(*args)
        best = min(best, perf_counter() - t0)
    return best / calls * 1e6


def timings(calls: int) -> dict[str, float]:
    """Microseconds per call of every timed operation, by name."""
    rng = np.random.default_rng(0)
    results = {}
    for name, make in (("critic", make_critic), ("action", make_action)):
        net = make(0)
        xs = rng.uniform(-1.0, 1.0, (calls, net.n_inputs)).tolist()
        p = net.params.tolist()
        k = net.kernels
        passes = [k.forward(p, x) for x in xs]
        d = (0.5,)

        def forward(k=k, p=p, xs=xs):
            for x in xs:
                k.forward(p, x)

        def gradient(k=k, p=p, passes=passes, d=d):
            for acts in passes:
                k.gradient(p, acts, d)

        def input_gradient(k=k, p=p, passes=passes, d=d):
            for acts in passes:
                k.input_gradient(p, acts, d)

        def step(net, p=p, passes=passes, d=d):
            for acts in passes:
                net.step(p, acts, d, 1e-6)

        for op, run in (("forward", forward), ("gradient", gradient),
                        ("input_gradient", input_gradient)):
            results[f"{name}.{op}"] = _best_us(run, calls, tuple)
        results[f"{name}.step"] = _best_us(step, calls, lambda make=make: (make(0),))

    states = rng.uniform(-1.0, 1.0, (calls, 4))
    measurements = [
        ControllerInput(200.0 + 2.0 * a, 5.0 + 0.5 * b, -2.0 * a, -0.5 * b, 0.7 + 0.01 * c)
        for a, b, c, _ in states
    ]
    fresh = lambda: (HdpController(make_critic(0), make_action(0), HdpConfig()),)
    for tag, learn in (("learn", True), ("frozen", False)):
        def control(controller, learn=learn):
            for m in measurements:
                controller.control_step(m, learn=learn)

        results[f"control_step.{tag}"] = _best_us(control, calls, fresh)
    if hasattr(HdpController, "hold"):
        for tag, learn in (("learn", True), ("frozen", False)):
            def held(controller, learn=learn):
                with controller.hold():
                    for m in measurements:
                        controller.control_step(m, learn=learn)

            results[f"control_step.{tag}_held"] = _best_us(held, calls, fresh)

    order = rng.permutation(calls).tolist()
    xs = rng.uniform(-1.0, 1.0, (calls, 5)).tolist()
    xs_next = rng.uniform(-1.0, 1.0, (calls, 5)).tolist()
    us = rng.uniform(0.0, 0.5, calls).tolist()
    results["td_epoch.sample"] = _best_us(
        lambda net: net.td_epoch(order, xs, xs_next, us, 0.85, 8e-4), calls,
        lambda: (make_critic(0),),
    )
    inputs = [x[:4] for x in xs]
    goals = rng.uniform(0.1, 0.9, calls).tolist()
    results["fit_epoch.sample"] = _best_us(
        lambda net: net.fit_epoch(order, inputs, goals, 0.3), calls, lambda: (make_action(0),)
    )
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=2000,
                        help="calls, measurements or samples per repeat (default 2000)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    for name, us in timings(args.calls).items():
        print(f"{name:24s} {us:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
