"""Span tracing of boosthdp's public functions, installed from outside.

The package carries no tracing code.  `Tracer.install` replaces module
attributes and class methods of the imported package with wrappers that
record one span per call (name, start, end, parent) into flat arrays, and
`Tracer.uninstall` puts the originals back, so untraced units run the
package exactly as shipped.

Names imported into another module by `from ... import` are separate
bindings: `sim` calls `step` and `td_update` through its own globals, so
those bindings are wrapped as well as the defining modules' ones.

A span's module is the part of its name before the first dot.  The root
span is `cli.main`; a module's self time is the time inside its spans not
covered by child spans, so the self times of all modules add up to the
root time.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

MODULES = ("plant", "mlp", "hdp", "baseline", "sim", "cli")


class Tracer:
    """Records spans of the wrapped calls and the counts named in the
    per-layer metrics.  Spans accumulate until `collect` folds them into
    `LayerStats`."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.current = -1
        self.dcm_periods = 0
        self.params_seen: set = set()
        self.td_epochs: list[int] = []
        self.transitions = 0
        self.clone_samples = 0
        self._saved: list[tuple[object, str, object]] = []
        self.last_spans = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, observe=None):
        """Wrap fn so each call records a span; observe(args, kwargs, result)
        runs after the span closes."""
        nid = self._id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(tracer.current)
            starts.append(0)
            ends.append(0)
            tracer.current = i
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                starts[i] = t0
                tracer.current = parents[i]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        wrapper = make(getattr(owner, attr))
        if isinstance(raw, classmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        pkg = self.pkg
        plant, mlp, hdp, baseline, sim, cli = (
            pkg.plant, pkg.mlp, pkg.hdp, pkg.baseline, pkg.sim, pkg.cli
        )
        blocked = plant.ConductionMode.SWITCH_OFF_BLOCKED

        def on_step(args, kwargs, result):
            if result.mode is blocked:
                self.dcm_periods += 1
            self.params_seen.add(args[2] if len(args) > 2 else kwargs["params"])

        def on_excitation(args, kwargs, result):
            self.transitions += len(result)

        def on_train(args, kwargs, result):
            self.td_epochs.append(len(result) - 1)

        clone_sig = inspect.signature(sim.clone_action)

        def on_clone(args, kwargs, result):
            bound = clone_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.clone_samples += bound.arguments["epochs"] * len(bound.arguments["log"])

        def control_step(fn):
            learn_fn = self.span(fn, "hdp.control_step_learn")
            frozen_fn = self.span(fn, "hdp.control_step_frozen")

            def dispatch(controller, measurement, learn=True):
                return (learn_fn if learn else frozen_fn)(controller, measurement, learn)

            return dispatch

        def traced(name, observe=None):
            return lambda fn: self.span(fn, name, observe)

        self._patch(plant, "step", traced("plant.step", on_step))
        self._patch(sim, "step", traced("plant.step", on_step))
        for method in ("forward", "grad_weights", "grad_input", "apply_update", "save", "load"):
            self._patch(mlp.Mlp, method, traced(f"mlp.{method}"))
        self._patch(hdp, "td_update", traced("hdp.td_update"))
        self._patch(sim, "td_update", traced("hdp.td_update"))
        self._patch(hdp.HdpController, "control_step", control_step)
        self._patch(baseline.PiController, "pi_step", traced("baseline.pi_step"))
        observers = {
            "generate_excitation_log": on_excitation,
            "train_critic_on_log": on_train,
            "clone_action": on_clone,
        }
        for fn in (
            "generate_excitation_log", "pretrain_critic", "train_critic_on_log",
            "clone_action", "run_scenario", "compute_metrics", "write_trace_csv",
            "builtin_scenario", "make_reference_law", "baseline_for_scenario",
        ):
            self._patch(sim, fn, traced(f"sim.{fn}", observers.get(fn)))
        self._patch(cli, "main", traced("cli.main"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _spans(self):
        """The recorded spans as numpy arrays (name id, start, end, parent)."""
        return tuple(
            np.array(buf, dtype=np.int64)
            for buf in (self.name, self.start, self.end, self.parent)
        )

    def collect(self, stats: "LayerStats") -> None:
        """Fold the spans and counts recorded since the last collect into
        stats, then clear them for the next traced unit."""
        name, start, end, parent = self._spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        per_name_self = np.bincount(name, weights=self_ns, minlength=len(self.names))
        for nid, label in enumerate(self.names):
            module = label.split(".", 1)[0]
            stats.self_ns[module] = stats.self_ns.get(module, 0.0) + float(per_name_self[nid])
            stats.durations.setdefault(label, []).append(dur[name == nid])
        fwd, td = self._ids.get("mlp.forward"), self._ids.get("hdp.td_update")
        if fwd is not None and td is not None:
            fwd_parents = parent[(name == fwd) & has_parent]
            stats.forwards_in_td += int(np.sum(name[fwd_parents] == td))
        stats.units += 1
        stats.dcm_periods += self.dcm_periods
        stats.params_seen |= self.params_seen
        stats.td_epochs += self.td_epochs
        stats.transitions += self.transitions
        stats.clone_samples += self.clone_samples
        self.last_spans = (list(self.names), name, start, end, parent)
        for buf in (self.name, self.start, self.end, self.parent):
            del buf[:]
        self.dcm_periods = self.transitions = self.clone_samples = 0
        self.params_seen = set()
        self.td_epochs = []

    def write_last_spans(self, path) -> None:
        """Write the spans of the last collected unit as gzipped TSV."""
        labels, name, start, end, parent = self.last_spans
        t0 = int(start.min()) if len(start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for i, (n, s, e, p) in enumerate(
                zip(name.tolist(), (start - t0).tolist(), (end - t0).tolist(), parent.tolist())
            ):
                fh.write(f"{i}\t{labels[n]}\t{s}\t{e}\t{p}\n")


class LayerStats:
    """Per-layer totals over every traced unit of a run."""

    def __init__(self) -> None:
        self.durations: dict[str, list[np.ndarray]] = {}
        self.self_ns: dict[str, float] = {}
        self.units = 0
        self.dcm_periods = 0
        self.params_seen: set = set()
        self.td_epochs: list[int] = []
        self.transitions = 0
        self.clone_samples = 0
        self.forwards_in_td = 0

    def _calls(self, label: str) -> np.ndarray:
        """Durations in ns of every traced call of the span label."""
        return np.concatenate(self.durations.get(label, [np.zeros(0, np.int64)]))

    def _pct_us(self, label: str, q: float) -> float:
        """Percentile of a span's duration in microseconds; 0 if never called."""
        d = self._calls(label)
        return float(np.percentile(d, q)) / 1e3 if len(d) else 0.0

    def _mean(self, label: str, scale: float) -> float:
        """Mean duration per call in seconds * scale; 0 if never called."""
        d = self._calls(label)
        return float(d.mean()) / 1e9 * scale if len(d) else 0.0

    def _per(self, label: str, count: int) -> float:
        """Total span time in microseconds per counted item."""
        return float(self._calls(label).sum()) / 1e3 / count if count else 0.0

    def metrics(self, overhead_share: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        root = sum(self.self_ns.values())
        share = {m: self.self_ns.get(m, 0.0) / root for m in MODULES}
        steps = len(self._calls("plant.step"))
        td_calls = len(self._calls("hdp.td_update"))
        return {
            "plant.step_us_p50": (self._pct_us("plant.step", 50), "us"),
            "plant.step_us_p99": (self._pct_us("plant.step", 99), "us"),
            "plant.calls": (steps / self.units, "count"),
            "plant.dcm_share": (self.dcm_periods / steps if steps else 0.0, "share"),
            "plant.distinct_params": (len(self.params_seen), "count"),
            "plant.self_share": (share["plant"], "share"),
            "mlp.forward_us_p50": (self._pct_us("mlp.forward", 50), "us"),
            "mlp.grad_weights_us_p50": (self._pct_us("mlp.grad_weights", 50), "us"),
            "mlp.grad_input_us_p50": (self._pct_us("mlp.grad_input", 50), "us"),
            "mlp.apply_update_us_p50": (self._pct_us("mlp.apply_update", 50), "us"),
            "mlp.forward_per_td_update": (
                self.forwards_in_td / td_calls if td_calls else 0.0, "count"
            ),
            "mlp.save_ms": (self._mean("mlp.save", 1e3), "ms"),
            "mlp.load_ms": (self._mean("mlp.load", 1e3), "ms"),
            "mlp.self_share": (share["mlp"], "share"),
            "hdp.td_update_us_p50": (self._pct_us("hdp.td_update", 50), "us"),
            "hdp.td_update_us_p99": (self._pct_us("hdp.td_update", 99), "us"),
            "hdp.control_step_learn_us_p50": (self._pct_us("hdp.control_step_learn", 50), "us"),
            "hdp.control_step_learn_us_p99": (self._pct_us("hdp.control_step_learn", 99), "us"),
            "hdp.control_step_frozen_us_p50": (
                self._pct_us("hdp.control_step_frozen", 50), "us"
            ),
            "hdp.self_share": (share["hdp"], "share"),
            "baseline.pi_step_us_p50": (self._pct_us("baseline.pi_step", 50), "us"),
            "sim.excitation_us_per_transition": (
                self._per("sim.generate_excitation_log", self.transitions), "us"
            ),
            "sim.train_critic_on_log_s": (self._mean("sim.train_critic_on_log", 1.0), "s"),
            "sim.td_epochs": (
                float(np.median(self.td_epochs)) if self.td_epochs else 0.0, "count"
            ),
            "sim.clone_us_per_sample": (self._per("sim.clone_action", self.clone_samples), "us"),
            "sim.run_scenario_s": (self._mean("sim.run_scenario", 1.0), "s"),
            "sim.compute_metrics_ms": (self._mean("sim.compute_metrics", 1e3), "ms"),
            "sim.write_trace_csv_ms": (self._mean("sim.write_trace_csv", 1e3), "ms"),
            "sim.self_share": (share["sim"], "share"),
            "cli.self_s": (self.self_ns.get("cli", 0.0) / 1e9 / self.units, "s"),
            "cli.self_share": (share["cli"], "share"),
            "trace.overhead_share": (overhead_share, "share"),
        }
