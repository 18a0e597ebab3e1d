"""Time boosthdp's neural kernel layer and trace output per call, best of 7.

    PYTHONPATH=src python tools/kernel_timings.py [--calls N]

The benchmark's tracer wraps none of the generated kernels, so this tool
times them directly.  It prints one line per timed operation, `name  us`,
where us is the best of 7 repeats of the mean time per call (in ms for the
`trace` rows, as their names say):

- `critic.forward`, `critic.gradient`, `critic.input_gradient` and
  `critic.step`, and the same four on the action net: the nets' kernels
  (`Mlp.kernels`, the step `kernels.step`) on the two shipped topologies
  (`hdp.CRITIC_SIZES`, `hdp.ACTION_SIZES`), N calls per repeat;
- `control_step.learn` and `control_step.frozen`: `HdpController.control_step`
  with and without learning, over N measurements near the nominal point,
  one call at a time.  Each call runs the generated period function
  (`hdp._generate_run`), which takes both nets' parameters from their
  `params` into locals and writes each changed net back; the first call
  of a process generates it, a cost that the best of 7 leaves out;
- `run.learn_period` and `run.frozen_period`: `sim.run_scenario` of the
  shipped startup cell (`sim.builtin_scenario("startup", tag)` at the
  default plant), HDP and HDP-frozen, per period, one run per repeat
  whatever N.  The simulation runs an HDP cell's periods in one generated
  loop (`HdpController.run_periods`), which calls no `control_step`, so
  these rows carry the period's cost, plant step included;
- `run.generate_ms`: the code generation a process pays for its first
  controller, `HdpController` on fresh nets with the generated-code caches
  emptied: the run loop, or on checkouts without it the nets' kernels;
- `td_epoch.sample` and `fit_epoch.sample`: `Mlp.td_epoch` on the critic
  and `Mlp.fit_epoch` on the action net, one sweep of N samples per repeat,
  per sample;
- `trace.text_ms` and `trace.metrics_ms`: the trace's CSV text
  (`sim.trace_csv_texts` of the one trace) and `sim.compute_metrics` on
  the trace of one 1000-period PI startup run (`sim.run_scenario`), one
  call per repeat whatever N;
- `jobs.side_by_side_ratio`: the best-of-7 wall time of two identical
  CPU-bound jobs, a plain float loop of about 20 ms each, run through
  `workers.run_jobs`, over the best-of-7 wall time of one such job alone,
  whatever N.  It reads about 1.0 when the caller and its forked worker
  run side by side, and about 2.0 when they share a CPU or when nothing
  is forked (one CPU).

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

from boosthdp import hdp, mlp, sim, workers
from boosthdp.hdp import ControllerInput, HdpConfig, HdpController, make_action, make_critic
from boosthdp.plant import PlantParams

REPEATS = 7
SPIN = 350_000  # iterations of the jobs row's float loop: about 20 ms


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


def _spin() -> float:
    """A CPU-bound job: a plain float loop of SPIN iterations."""
    x = 0.0
    for _ in range(SPIN):
        x = x * 0.5 + 1.0
    return x


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

        def step(k=k, p=p, passes=passes, d=d):
            for acts in passes:
                k.step(p, acts, d, 1e-6)

        for op, run in (("forward", forward), ("gradient", gradient),
                        ("input_gradient", input_gradient), ("step", step)):
            results[f"{name}.{op}"] = _best_us(run, calls, tuple)

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

    params = PlantParams()
    for tag, name in (("HDP", "learn"), ("HDP-frozen", "frozen")):
        spec = sim.builtin_scenario("startup", tag, params)
        n_periods = round(spec.duration / params.t_sw)
        results[f"run.{name}_period"] = _best_us(
            lambda controller, spec=spec: sim.run_scenario(spec, controller, params), n_periods,
            fresh,
        )
    caches = [getattr(module, name) for module, name in
              ((mlp, "_generate"), (hdp, "_generate_run")) if hasattr(module, name)]

    def generate(critic, action):
        for cache in caches:
            cache.cache_clear()
        HdpController(critic, action)

    results["run.generate_ms"] = _best_us(
        generate, 1, lambda: (make_critic(0), make_action(0))
    ) / 1e3

    spec = sim.builtin_scenario("startup", "PI", params)
    trace, _ = sim.run_scenario(spec, sim.baseline_for_scenario(spec, params), params)
    text = lambda trace: sim.trace_csv_texts([trace], 0)[0]
    for name, fn in (("text", text), ("metrics", sim.compute_metrics)):
        results[f"trace.{name}_ms"] = _best_us(fn, 1, lambda: (trace,)) / 1e3

    if hasattr(workers, "run_jobs"):
        two = _best_us(lambda: [get() for get in workers.run_jobs([_spin, _spin])], 1, tuple)
        results["jobs.side_by_side_ratio"] = two / _best_us(_spin, 1, tuple)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=2000,
                        help="calls, measurements or samples per repeat (default 2000)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    for name, us in timings(args.calls).items():
        print(f"{name:26s} {us:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
