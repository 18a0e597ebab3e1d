"""Closed-loop simulation harness, scenario metrics, and pretraining.

Wires a controller to the switched plant at one control action per PWM
period, runs the three evaluation scenarios (startup, load step, input
step), records per-period traces, and computes step-response metrics.
Each scenario regulates V_SET around a nominal source and load, with at
most one step of either.
Also hosts the offline pipeline that prepares the neuro-controller:
excitation-log generation under a teacher law, temporal-difference
pretraining of the critic, and behavior cloning of the action net.  Each
epoch of either offline sweep is one call of a function generated for the
net's topology (`Mlp.td_epoch`, `Mlp.fit_epoch`) that runs every sample's
passes and descent step with the parameters held in local variables.  The
critic's step there is the text of `hdp.td_update`, and the results are
the bits of the same loops written with `hdp.td_update` per transition, or
with the 1-D `Mlp.forward`, `Mlp.grad_weights` and `Mlp.apply_update`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write
from .baseline import PiController
# sim no longer calls td_update (Mlp.td_epoch runs its step), but
# perfbench/tracing.py patches this module's binding of it by name
from .hdp import ControllerInput, HdpConfig, make_critic, td_error, td_update, utility
from .mlp import Mlp
from .plant import PlantParams, PlantState, step, steady_state_hint

__all__ = [
    "CONTROLLER_TAGS",
    "SCENARIO_NAMES",
    "Metrics",
    "PretrainSettings",
    "PretrainingError",
    "ReferenceLaw",
    "ScenarioSpec",
    "SimulationDiverged",
    "R_LOAD_RANGE",
    "TraceRecord",
    "TRACE_FIELDS",
    "V_SET",
    "V_S_RANGE",
    "baseline_for_scenario",
    "builtin_scenario",
    "clone_action",
    "compute_metrics",
    "current_limit",
    "equilibrium_duty",
    "generate_excitation_log",
    "make_reference_law",
    "pretrain_critic",
    "run_scenario",
    "trace_csv_text",
    "train_critic_on_log",
    "warm_start_pi",
    "write_trace_csv",
]

CONTROLLER_TAGS = ("PI", "HDP", "HDP-frozen")
SCENARIO_NAMES = ("startup", "load_change", "input_change")

# the regulated output voltage, and the nameplate ranges of source and load
V_SET = 200.0
V_S_RANGE = (54.0, 66.0)
R_LOAD_RANGE = (50.0, 200.0)

# each excitation hold lasts this long; both offline stages decay their
# per-sample rate as lr / (1 + epoch / _LR_DECAY_EPOCHS)
_HOLD_DURATION = 0.01
_LR_DECAY_EPOCHS = 8.0
# critic pretraining stops once an epoch lowers the mean squared residual
# by less than this fraction of the previous epoch's
_PLATEAU_RTOL = 1e-4


class SimulationDiverged(RuntimeError):
    """Raised when the output voltage runs past twice the setpoint, or the
    inductor current past `current_limit`, or either is NaN."""


class PretrainingError(RuntimeError):
    """Raised when critic pretraining fails to make progress or the cloned
    action net fits no better than a constant."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation run regulating V_SET: the source v_s and the load
    r_load hold their nominal values from t=0, and an optional
    step = (time, v_s, r_load) switches both to new values from that time
    to the end of the run.

    Raises ValueError if either pair leaves the nameplate ranges, if the
    step changes neither value, or if the initial state is not finite.
    """

    name: str
    duration: float
    v_s: float
    r_load: float
    step: tuple[float, float, float] | None = None
    initial_state: PlantState = field(default_factory=PlantState)
    controller_tag: str = "PI"

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.controller_tag not in CONTROLLER_TAGS:
            raise ValueError(
                f"controller_tag {self.controller_tag!r} not in {CONTROLLER_TAGS}"
            )
        points = [(self.v_s, self.r_load)]
        if self.step is not None:
            points.append(self.step[1:])
        for v_s, r_load in points:
            if not V_S_RANGE[0] <= v_s <= V_S_RANGE[1]:
                raise ValueError("v_s schedule leaves the %g-%g V range" % V_S_RANGE)
            if not R_LOAD_RANGE[0] <= r_load <= R_LOAD_RANGE[1]:
                raise ValueError(
                    "r_load schedule leaves the %g-%g ohm range" % R_LOAD_RANGE
                )
        if self.step is not None and points[0] == points[1]:
            raise ValueError(
                f"{self.name} step at {self.step[0]:g} s changes neither "
                f"v_s ({self.v_s:g} V) nor r_load ({self.r_load:g} ohm)"
            )
        if not all(map(math.isfinite, self.initial_state[:2])):
            raise ValueError(f"{self.name} initial state must be finite")


class TraceRecord(NamedTuple):
    t: float
    v_o: float
    i_l: float
    duty: float
    u: float
    j_est: float
    mode: str
    v_set: float
    v_s: float
    r_load: float


# column order of the trace CSV
TRACE_FIELDS = TraceRecord._fields


@dataclass(frozen=True)
class Metrics:
    settling_time: float        # s, from the step (or t=0); 2% band
    overshoot: float            # % of the final setpoint, >= 0
    steady_state_error: float   # mean v_o - v_set over the final 10% of the window
    iae: float                  # integral of |e_v| over the window, V*s
    peak_deviation: float       # max |v_o - v_set| over the window, V
    oscillation: bool           # band re-exited after first entry
    unsettled: bool             # still outside the band at the end


def equilibrium_duty(v_set: float, v_s: float, r_load: float, r_l: float) -> float:
    """Averaged-model operating duty including the inductor series loss.

    With w = 1 - duty the steady state satisfies w^2 v R - w v_s R + r_l v = 0;
    the low-duty root is the usable branch.  r_l = 0 reduces to the lossless
    volt-second value 1 - v_s/v_set.
    """
    if v_set <= 0.0 or v_s <= 0.0 or r_load <= 0.0 or r_l < 0.0:
        raise ValueError("need positive v_set, v_s, r_load and r_l >= 0")
    disc = v_s * v_s - 4.0 * r_l * v_set * v_set / r_load
    if disc <= 0.0:
        raise ValueError("operating point unreachable: series loss too large")
    w = (v_s + math.sqrt(disc)) / (2.0 * v_set)
    if not 0.0 < w < 1.0:
        raise ValueError(f"no boost solution for v_set={v_set}, v_s={v_s}")
    return 1.0 - w


def warm_start_pi(pi: PiController, v_set: float, v_s: float, r_load: float, r_l: float) -> None:
    """Preload the integrator so the loop starts at its operating duty."""
    d_eq = equilibrium_duty(v_set, v_s, r_load, r_l)
    pi.integ = (d_eq - pi.duty_ff) / pi.ki


def baseline_for_scenario(
    spec: ScenarioSpec, params: PlantParams, pi: PiController | None = None
) -> PiController:
    """Baseline PI instance prepared for a scenario: fresh integrator from
    rest, integrator preloaded at the operating duty when the scenario
    starts from a running equilibrium (otherwise the loop would spend the
    pre-step half of the run recovering from its own handover transient).
    """
    pi = (pi or PiController()).copy()
    pi.reset()
    if spec.initial_state.v_o > 0.0 and pi.ki > 0.0:
        warm_start_pi(pi, V_SET, spec.v_s, spec.r_load, params.r_l)
    return pi


@dataclass(frozen=True)
class ReferenceLaw:
    """Current-aware feedback used as the pretraining teacher and as the
    action net's cloning target.

    duty = clip(duty_ff + v_gain*tanh(v_sharpness*e_v/v_scale)
                        + i_gain*e_i/i_scale)

    A voltage-only loop cannot start this converter cleanly: while the
    duty is railed high the output barely couples to the duty, the
    inductor keeps charging, and the stored energy dumps into the output
    capacitor no matter what the loop does afterwards (any pure P law
    with a feed-forward near the operating duty was measured to overrun
    2x the setpoint).  The saturating voltage term caps the charge drive,
    and together with the linear current term it releases the rail once
    i_l reaches roughly v_gain/i_gain * i_scale amperes - an emergent
    current limit.  Near zero error the same term has slope
    v_gain*v_sharpness, stiff enough to hold the 2% band across source
    and load shifts with duty_ff left at its nominal value (the law, like
    the action net, cannot observe v_s or r_load directly).

    The operating point and the controller's scales and limits have no
    defaults here: `make_reference_law` takes them from the plant and the
    HDP config.
    """

    duty_ff: float
    v_scale: float
    i_scale: float
    duty_limits: tuple[float, float]
    v_gain: float = 0.25
    v_sharpness: float = 10.0
    i_gain: float = 0.10

    def duty_for(self, e_v: float, e_i: float) -> float:
        raw = (
            self.duty_ff
            + self.v_gain * math.tanh(self.v_sharpness * e_v / self.v_scale)
            + self.i_gain * e_i / self.i_scale
        )
        lo, hi = self.duty_limits
        return min(max(raw, lo), hi)


def make_reference_law(
    params: PlantParams | None = None, hdp_config: HdpConfig | None = None
) -> ReferenceLaw:
    """Reference law with the feed-forward pinned to the nominal operating
    duty and scales/limits matching the controller config."""
    params = params or PlantParams()
    cfg = hdp_config or HdpConfig()
    return ReferenceLaw(
        duty_ff=equilibrium_duty(V_SET, params.v_s, params.r_load, params.r_l),
        v_scale=cfg.norm_scales[2],
        i_scale=cfg.norm_scales[3],
        duty_limits=cfg.duty_limits,
    )


def current_limit(params: PlantParams) -> float:
    """Twice the highest steady inductor current on the nameplate source,
    max v_s / r_l (infinite when r_l is 0).  From any lower current, every
    branch's di/dt <= (v_s - r_l*i_l) / L keeps the current below
    v_s / r_l, so a current past this bound has run away."""
    return 2.0 * V_S_RANGE[1] / params.r_l if params.r_l > 0.0 else math.inf


def _runaway(state: PlantState, i_max: float) -> str:
    """What ran away in a state the divergence guard stopped: a v_o past
    2 V_SET, or an i_l past i_max (NaN passes neither)."""
    if not state.v_o <= 2.0 * V_SET:
        return f"v_o={state.v_o:.1f} V exceeded 2x setpoint {V_SET:.1f} V"
    return f"i_l={state.i_l:.1f} A exceeded the {i_max:.1f} A current limit"


def _equilibrium_state(v_set: float, v_s: float, r_load: float, r_l: float) -> PlantState:
    d_eq = equilibrium_duty(v_set, v_s, r_load, r_l)
    i_eq = v_set / ((1.0 - d_eq) * r_load)
    return PlantState(i_l=i_eq, v_o=v_set)


def builtin_scenario(
    name: str, controller_tag: str = "PI", params: PlantParams | None = None
) -> ScenarioSpec:
    """The three evaluation scenarios around the nominal point params.v_s,
    params.r_load, each regulating V_SET.

    startup: from rest at the nominal source and load.
    load_change: load resistance steps from nominal to the top of
    R_LOAD_RANGE at mid-run, from steady state.
    input_change: source steps from nominal to the bottom of V_S_RANGE at
    mid-run, from steady state.

    Raises ValueError if the nominal point lies outside the nameplate ranges,
    or if it sits on the edge its scenario steps to, so the step would not
    step.
    """
    params = params or PlantParams()
    v_s, r_load = params.v_s, params.r_load
    if name == "startup":
        return ScenarioSpec(name, 0.05, v_s, r_load, controller_tag=controller_tag)
    steps = {
        "load_change": (0.025, v_s, R_LOAD_RANGE[1]),
        "input_change": (0.025, V_S_RANGE[0], r_load),
    }
    if name in steps:
        return ScenarioSpec(
            name, 0.05, v_s, r_load, steps[name],
            initial_state=_equilibrium_state(V_SET, v_s, r_load, params.r_l),
            controller_tag=controller_tag,
        )
    raise ValueError(f"unknown scenario {name!r}; valid: {SCENARIO_NAMES}")


def run_scenario(
    spec: ScenarioSpec,
    controller,
    params: PlantParams,
    hdp_config: HdpConfig | None = None,
) -> tuple[list[TraceRecord], Metrics]:
    """Simulate one scenario, one controller decision per PWM period.

    The record at time t carries the measurements at the start of period k
    and the duty applied over that period, so the trace is causal by
    construction.  The recorded utility uses the normalized errors so PI and
    HDP traces are directly comparable.  Returns the trace plus its metrics
    over the final reference segment.

    An HDP controller runs the whole scenario inside its `hold`, and gets
    each period's `ControllerInput` built unchecked: the divergence guard
    below has checked the state it comes from.

    Raises SimulationDiverged if v_o exceeds twice the setpoint, or i_l the
    `current_limit`, or either is NaN, and ValueError if the scenario
    rounds to no whole switching period.
    """
    cfg = hdp_config or HdpConfig()
    is_pi = spec.controller_tag == "PI"
    if is_pi != isinstance(controller, PiController):
        raise ValueError(
            f"controller {type(controller).__name__} does not match tag "
            f"{spec.controller_tag!r}"
        )
    t_sw = params.t_sw
    n_periods = round(spec.duration / t_sw)
    if n_periods < 1:
        raise ValueError(
            f"switching period {t_sw:g} s leaves no whole period in the "
            f"{spec.duration:g} s {spec.name} scenario"
        )
    # the tag, not the caller, decides whether the run adapts
    learn = spec.controller_tag == "HDP"
    if not is_pi:
        controller.reset_transition_buffer()
    s_v, s_i = cfg.norm_scales[2], cfg.norm_scales[3]
    # the schedule's segments: the periods each spans, and its v_s and
    # r_load; a step holds from the first period starting at or after it
    segments = [(range(n_periods), spec.v_s, spec.r_load)]
    if spec.step is not None:
        t_step, v_s, r_load = spec.step
        k_step = next((k for k in range(n_periods) if t_step <= k * t_sw), n_periods)
        segments = [(range(k_step), spec.v_s, spec.r_load),
                    (range(k_step, n_periods), v_s, r_load)]
    v_max, i_max = 2.0 * V_SET, current_limit(params)
    state = spec.initial_state
    records: list[TraceRecord] = []
    duty = 0.0
    with nullcontext() if is_pi else controller.hold():
        for periods, v_s, r_load in segments:
            segment_params = params
            if v_s != params.v_s or r_load != params.r_load:
                segment_params = replace(params, v_s=v_s, r_load=r_load)
            _, i_set = steady_state_hint(V_SET, v_s, r_load)
            for k in periods:
                t = k * t_sw
                i_l, v_o, mode = state
                e_v = V_SET - v_o
                e_i = i_set - i_l
                if is_pi:
                    duty = controller.pi_step(e_v)
                    j_est = math.nan
                else:
                    # unchecked, as the ControllerInput docstring allows
                    m = tuple.__new__(ControllerInput, (v_o, i_l, e_v, e_i, duty))
                    duty, j_est = controller.control_step(m, learn)
                u_k = utility(e_v / s_v, e_i / s_i, cfg.k_v, cfg.k_i)
                records.append(
                    TraceRecord(t, v_o, i_l, duty, u_k, j_est, mode.name, V_SET, v_s, r_load)
                )
                state = step(state, duty, segment_params)
                # NaN fails both comparisons too
                if not (state.v_o <= v_max and state.i_l <= i_max):
                    raise SimulationDiverged(
                        f"{spec.name}/{spec.controller_tag}: {_runaway(state, i_max)} "
                        f"at t={t + t_sw:.6f} s"
                    )
    return records, compute_metrics(records)


def compute_metrics(trace: list[TraceRecord]) -> Metrics:
    """Step-response metrics over the final reference segment.

    The window starts at the last change of any schedule quantity found in
    the trace and ends at the trace end.  Settling is the first time after
    which v_o stays within +-2% of the final setpoint; an unsettled trace
    gets the window length as its settling time and the unsettled flag.
    """
    if not trace:
        raise ValueError("empty trace")
    v_set_final = trace[-1].v_set
    t = np.array([r.t for r in trace])
    v = np.array([r.v_o for r in trace])
    sched = np.array([[r.v_set, r.v_s, r.r_load] for r in trace])
    changed = np.any(sched[1:] != sched[:-1], axis=1)
    t_from = t[1:][changed][-1] if changed.any() else t[0]
    sel = t >= t_from
    t_w, v_w = t[sel] - t_from, v[sel]
    dt = t[1] - t[0] if len(t) > 1 else 0.0

    band = 0.02 * v_set_final
    err = v_w - v_set_final
    out = np.abs(err) > band
    if out.any():
        unsettled = bool(out[-1])
        settling = float(t_w[-1] + dt) if unsettled else float(t_w[np.where(out)[0][-1]] + dt)
    else:
        unsettled = False
        settling = 0.0
    overshoot = max(0.0, (float(v_w.max()) - v_set_final) / v_set_final * 100.0)
    n_tail = max(1, len(v_w) // 10)
    sse = float(np.mean(v_w[-n_tail:]) - v_set_final)
    iae = float(np.sum(np.abs(err)) * dt)
    peak = float(np.max(np.abs(err)))
    in_band = ~out
    oscillation = bool(in_band.any() and out[np.argmax(in_band):].any())
    return Metrics(settling, overshoot, sse, iae, peak, oscillation, unsettled)


# --- trace files ---------------------------------------------------------

def _csv_text(value) -> str:
    """value as a field of a several-field row of `csv.writer` in its
    default dialect: str() of it (None gives ""), quoted when it holds a
    comma, a quote or a line break, with its quotes doubled."""
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def trace_csv_text(trace: list[TraceRecord]) -> str:
    """The trace as CSV text, in the bytes `csv.writer` writes.

    A float is written as its repr, so every value round-trips exactly.
    Formatting dominates, and the schedule columns, `mode` and a PI run's
    NaN `j_est` hold the same object row after row, so a value is
    formatted only when it is not the object above it.  Identity, not
    equality, decides: 0.0 == -0.0 print differently, and NaN equals
    nothing.
    """
    lines = [",".join(TRACE_FIELDS)]
    columns = range(len(TRACE_FIELDS))
    above = (object(),) * len(TRACE_FIELDS)
    cells = [""] * len(TRACE_FIELDS)
    for row in map(attrgetter(*TRACE_FIELDS), trace):
        for j in columns:
            value = row[j]
            if value is not above[j]:
                # a float's repr holds no character that needs quoting
                cells[j] = repr(value) if type(value) is float else _csv_text(value)
        above = row
        lines.append(",".join(cells))
    lines.append("")
    return "\r\n".join(lines)


def write_trace_csv(path, trace: list[TraceRecord]) -> None:
    """Write the trace as CSV (`trace_csv_text`)."""
    with atomic_write(path) as fh:
        fh.write(trace_csv_text(trace))


# --- pretraining pipeline ------------------------------------------------

@dataclass(frozen=True)
class PretrainSettings:
    """Knobs for the offline pipeline (excitation log, TD sweeps, clone);
    the pipeline functions below take their defaults from these fields."""

    n_episodes: int = 4
    n_holds: int = 10
    max_epochs: int = 120
    learning_rate: float = 8e-4
    clone_epochs: int = 40
    clone_learning_rate: float = 0.3

    def __post_init__(self) -> None:
        for name in ("n_episodes", "n_holds", "max_epochs", "clone_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0.0 or self.clone_learning_rate <= 0.0:
            raise ValueError("pretraining rates must be positive")


def generate_excitation_log(
    teacher: ReferenceLaw,
    params: PlantParams,
    hdp_config: HdpConfig,
    seed: int = 0,
    n_episodes: int = PretrainSettings.n_episodes,
    n_holds: int = PretrainSettings.n_holds,
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Drive the plant under randomized holds and log one-period
    transitions (x_k, x_{k+1}, U_k) in critic coordinates.

    Each episode starts from rest; within an episode the reference, load,
    and source are redrawn every hold: v_set uniform in [150, 220] V,
    r_load uniform over R_LOAD_RANGE, v_s uniform over V_S_RANGE.  The
    teacher law closes the loop.

    A hold switch is exogenous: the inputs cannot predict it, so a
    transition straddling the boundary would only inject target noise;
    each hold's transition chain starts fresh.  Raises ValueError if a hold
    rounds to fewer than two switching periods, which log no transition,
    and SimulationDiverged, as `run_scenario` does, if v_o exceeds twice
    the setpoint, or i_l the `current_limit`, or either is NaN.
    """
    rng = np.random.default_rng(seed)
    cfg = hdp_config
    s = cfg.norm_scales
    t_sw = params.t_sw
    periods_per_hold = round(_HOLD_DURATION / t_sw)
    if periods_per_hold < 2:
        raise ValueError(
            f"switching period {t_sw:g} s leaves fewer than 2 periods in the "
            f"{_HOLD_DURATION:g} s excitation hold"
        )
    v_max, i_max = 2.0 * V_SET, current_limit(params)
    log: list[tuple[np.ndarray, np.ndarray, float]] = []
    for episode in range(n_episodes):
        state = PlantState()
        for hold in range(n_holds):
            v_set = float(rng.uniform(150.0, 220.0))
            r_load = float(rng.uniform(*R_LOAD_RANGE))
            v_s = float(rng.uniform(*V_S_RANGE))
            p = replace(params, r_load=r_load, v_s=v_s)
            _, i_set = steady_state_hint(v_set, v_s, r_load)
            x_prev: np.ndarray | None = None
            u_prev = 0.0
            for _ in range(periods_per_hold):
                e_v = v_set - state.v_o
                e_i = i_set - state.i_l
                duty = teacher.duty_for(e_v, e_i)
                x_now = np.array(
                    [state.v_o / s[0], state.i_l / s[1], e_v / s[2], e_i / s[3],
                     duty / s[4]]
                )
                if x_prev is not None:
                    log.append((x_prev, x_now, u_prev))
                x_prev = x_now
                u_prev = utility(e_v / s[2], e_i / s[3], cfg.k_v, cfg.k_i)
                state = step(state, duty, p)
                # NaN fails both comparisons too
                if not (state.v_o <= v_max and state.i_l <= i_max):
                    raise SimulationDiverged(
                        f"excitation episode {episode}, hold {hold}: "
                        f"{_runaway(state, i_max)}"
                    )
    return log


def _mean_squared_residual(
    critic: Mlp, x_now: np.ndarray, x_next: np.ndarray, u: np.ndarray, gamma: float
) -> float:
    j, _ = critic.forward(np.concatenate((x_now, x_next)))
    resid = td_error(j[:len(u), 0], j[len(u):, 0], u, gamma)
    return float(np.mean(resid * resid))


def train_critic_on_log(
    critic: Mlp,
    log,
    hdp_config: HdpConfig,
    seed: int = 0,
    max_epochs: int = PretrainSettings.max_epochs,
    lr_decay_epochs: float = _LR_DECAY_EPOCHS,
) -> list[float]:
    """Sweep the transition log with one TD update per sample until the
    epoch mean squared residual plateaus (an epoch improves it by less than
    _PLATEAU_RTOL) or the epoch cap is hit.

    The per-sample rate decays as lr / (1 + epoch / lr_decay_epochs), or
    stays flat when lr_decay_epochs is 0; the late sweeps would otherwise
    bounce around the noise floor instead of sinking into it.  Returns the
    mean-squared-residual history: entry 0 is the residual of the untrained
    critic (a pure evaluation pass), each later entry is an epoch's mean
    with every sample's residual measured right after its update.  Raises
    PretrainingError if the residual fails to decrease across the first 5
    epochs (when enough epochs run to tell).

    Each epoch is one call of the critic's generated sweep,
    `Mlp.td_epoch`: per transition the target J(x_next) and the value
    J(x_now) it steps on, both at the present weights, the `td_update`
    step, and J(x_now) again right after the step for the epoch mean.  A
    refused step raises NonFiniteUpdateError and leaves the critic at the
    last accepted step.
    """
    log = list(log)
    if not log:
        raise ValueError("empty transition log")
    cfg = hdp_config
    gamma = cfg.gamma
    rng = np.random.default_rng(seed)
    # the log as arrays: x_now (N, 5), x_next (N, 5), u (N,)
    x_now, x_next, u = map(np.array, zip(*log))
    n = len(u)
    history: list[float] = [_mean_squared_residual(critic, x_now, x_next, u, gamma)]
    order = np.arange(n)
    x_now, x_next, u = x_now.tolist(), x_next.tolist(), u.tolist()
    for epoch in range(max_epochs):
        lr = cfg.lr_critic
        if lr_decay_epochs > 0.0:
            lr /= 1.0 + epoch / lr_decay_epochs
        rng.shuffle(order)
        history.append(critic.td_epoch(order.tolist(), x_now, x_next, u, gamma, lr) / n)
        if epoch == 4 and history[5] >= history[0]:
            raise PretrainingError(
                f"TD residual failed to decrease over the first 5 epochs: "
                f"{history[0]:.3e} -> {history[5]:.3e}"
            )
        # the plateau check waits out the first five epochs so a flat start
        # reaches the failure check above instead of reading as converged
        if epoch >= 4 and history[-2] > 0.0:
            improvement = (history[-2] - history[-1]) / history[-2]
            # a residual increase is not a plateau; keep sweeping (the cap
            # and the first-5-epochs check bound runaway cases)
            if 0.0 <= improvement < _PLATEAU_RTOL:
                break
    return history


def pretrain_critic(
    log,
    hdp_config: HdpConfig,
    seed: int = 0,
    max_epochs: int = PretrainSettings.max_epochs,
    learning_rate: float = PretrainSettings.learning_rate,
) -> tuple[Mlp, list[float]]:
    """Fresh critic trained by TD sweeps over an excitation log until
    plateau.  Returns the trained critic and the residual history.

    The offline rate is two orders below a usable single-transition rate:
    repeated full-log sweeps at higher rates saturate the hidden layers
    and the critic collapses to predicting the log's mean cost.
    """
    critic = make_critic(seed=seed)
    offline_cfg = replace(hdp_config, lr_critic=learning_rate)
    history = train_critic_on_log(
        critic, log, offline_cfg, seed=seed + 1, max_epochs=max_epochs
    )
    return critic, history


def clone_action(
    action: Mlp,
    log,
    hdp_config: HdpConfig,
    seed: int = 0,
    epochs: int = PretrainSettings.clone_epochs,
    learning_rate: float = PretrainSettings.clone_learning_rate,
) -> float:
    """Behavior-clone the action net onto the logged duty commands.

    Regression of the sigmoid output against the logged duty mapped into the
    duty window, clipped away from the rails so the target stays reachable.
    Returns the final epoch's mean squared output error.  Raises
    PretrainingError if that error is not below the variance of the
    targets, the error of the best constant output: such a fit (a
    saturated sigmoid, say) has learned nothing of the teacher.

    The epoch budget is fidelity-driven: the cloned net's duty error maps
    through the closed loop into a standing voltage offset of roughly
    err * v_scale / (v_gain * v_sharpness) volts, so holding the 2% band
    (+-4 V) across source and load shifts needs the fit comfortably below
    0.01 duty rms.  A 5-epoch fit at a flat rate plateaus near 0.026 and
    measurably rides the band edge after an input step.
    """
    log = list(log)
    if not log:
        raise ValueError("empty transition log")
    d_min, d_max = hdp_config.duty_limits
    span = d_max - d_min
    d_scale = hdp_config.norm_scales[4]
    # the action inputs and the clipped duty targets, built once
    x_now = np.array([x for x, _, _ in log])
    inputs = x_now[:, :4].tolist()
    targets = np.clip((x_now[:, 4] * d_scale - d_min) / span, 0.02, 0.98)
    goals = targets.tolist()
    rng = np.random.default_rng(seed)
    order = np.arange(len(log))
    mse = 0.0
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + epoch / _LR_DECAY_EPOCHS)
        rng.shuffle(order)
        mse = action.fit_epoch(order.tolist(), inputs, goals, lr) / len(log)
    variance = float(np.var(targets))
    if not mse < variance:
        raise PretrainingError(
            f"behavior cloning failed: final mse {mse:.3g} is not below the "
            f"variance of its targets {variance:.3g}"
        )
    return mse
