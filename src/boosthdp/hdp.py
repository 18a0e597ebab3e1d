"""Heuristic dynamic programming neuro-controller.

Two small networks: a critic that estimates the discounted cost-to-go from
the present operating point, and an action net that maps the operating point
to a duty cycle.  Both adapt online, one update per switching period.

The critic is trained by temporal differences.  With cost-to-go estimate
J(k) and per-step utility U(k), the residual

    e(k) = J(k) - gamma * J(k+1) - U(k)

is driven toward zero by one semi-gradient step per transition: the k+1
term is treated as a constant target, so only the J(k) evaluation is
differentiated.  The action net takes one descent step per period on the
critic's estimate: the duty cycle enters the critic as an input, so
d(cost-to-go)/d(duty) comes from the critic's input gradient and
backpropagates through the action net.

The online period is written once, in `_generate_run`, and compiled per
pair of topologies into two functions that take both nets' parameters
from `Mlp.params` into locals as they start and write each changed net
back once, however they end: one period, `HdpController.control_step`,
and a closed loop of many, `HdpController.run_periods`.  The offline
sweep in `sim` runs the same critic step inside a generated epoch
function (`Mlp.td_epoch`): `mlp`'s one emitter writes every pass and step
and the one finiteness rule, which raises NonFiniteUpdateError where a
step would make a parameter non-finite, and tests hold each of them to a
per-call reference bit for bit.

The nets work in fixed coordinates that keep every feature O(1): volts
over V_SCALE, amperes over I_SCALE, and the duty as it is.  The utility is
computed on the errors in the same coordinates, which keeps the cost-to-go
itself O(1) at the default discount.  The action net's sigmoid output maps
affinely onto `plant.DUTY_LIMITS`, the window the PI loop clamps to too.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mlp import Mlp, _compile, _indent, _Text
from .plant import DUTY_LIMITS, PlantState

__all__ = [
    "CRITIC_SIZES",
    "ACTION_SIZES",
    "V_SCALE",
    "I_SCALE",
    "K_V",
    "K_I",
    "ControllerInput",
    "HdpConfig",
    "HdpController",
    "make_critic",
    "make_action",
    "utility",
    "td_error",
    "td_update",
]

# critic sees [v_o, i_l, e_v, e_i, duty]; action sees the first four
CRITIC_SIZES = [5, 5, 5, 1]
ACTION_SIZES = [4, 5, 5, 1]

# the nets' coordinates: volts over V_SCALE, amperes over I_SCALE, the duty
# as it is
V_SCALE = 200.0
I_SCALE = 10.0
# the utility's weights on the squared voltage and current errors
K_V = 1.0
K_I = 0.1


def make_critic(seed: int = 0) -> Mlp:
    """Fresh cost-to-go estimator with a linear (unbounded) output."""
    return Mlp.init(CRITIC_SIZES, output_activation="linear", seed=seed)


def make_action(seed: int = 0) -> Mlp:
    """Fresh policy net; the sigmoid output is mapped affinely onto
    DUTY_LIMITS, so the command can never leave them."""
    return Mlp.init(ACTION_SIZES, output_activation="sigmoid", seed=seed)


def utility(e_v: float, e_i: float) -> float:
    """Per-step cost of a voltage error e_v (V) and a current error e_i (A):
    the norm of the errors in the nets' coordinates, weighted by K_V and
    K_I."""
    e_v /= V_SCALE
    e_i /= I_SCALE
    return math.sqrt(K_V * e_v * e_v + K_I * e_i * e_i)


def td_error(j_now: float, j_next: float, u_now: float, gamma: float) -> float:
    """Temporal-difference residual of the cost-to-go recursion."""
    return j_now - gamma * j_next - u_now


def td_update(
    critic: Mlp,
    p: list[float],
    acts: list[float],
    target: float,
    u_now: float,
    gamma: float,
    learning_rate: float,
) -> list[float]:
    """One semi-gradient step of the critic toward u_now + gamma * target.

    `p` is the critic's parameter list, `acts` its kernel pass at x_now and
    `target` J(x_next), both at `p`; the caller runs those passes, so the
    step itself runs none.  The target is held fixed.  Returns the new
    parameter list and writes nothing: `critic.params` is as it was.  A
    step that would make a parameter non-finite raises
    NonFiniteUpdateError.  The generated online period (`_generate_run`)
    and `Mlp.td_epoch` run the same arithmetic, and the package calls it
    nowhere: it is the one-transition step that tests hold them to, and
    the benchmark's tracer (`perfbench/tracing.py`) wraps it in `hdp` and
    `sim`.
    """
    resid = td_error(acts[-1], target, u_now, gamma)
    # loss 0.5*resid^2, so d(loss)/d(output) is the residual itself
    return critic.kernels.step(p, acts, (resid,), learning_rate)


@lru_cache(maxsize=None)
def _generate_run(
    critic_sizes: tuple[int, ...], critic_sigmoid: bool, action_sizes: tuple[int, ...],
    name: str,
) -> Callable:
    """Generate and compile, once per pair of topologies and on first use,
    the HDP function `name`:

        run(ctl, learn, state, duty, segments, step, columns, v_max, i_max, diverged)
        period(ctl, learn, v_o, i_l, e_v, e_i, duty)

    `run` is `HdpController.run_periods`, every period of `segments`;
    `period` is `HdpController.control_step`, one period at a measurement
    and the duty applied before it, returning (duty, cost-to-go).  Both
    emit one period text, its passes and steps written by `mlp._Text` under
    the prefixes "c" (critic) and "a" (action), so they are the bits of the
    nets' kernels, after one prologue, which takes both nets' `params` as
    lists and the stored transition (`ctl._prev`) into locals and, when
    `learn` is set and a transition is stored, runs its critic pass at the
    duty applied.  Each period's cost-to-go pass serves as the next
    period's stored pass, since no step comes between them.  Each step
    builds its list `new` and passes `_Text.refuse` before it is carried
    on, and a `finally` writes each list that changed into its net's
    `params`, and the stored transition into `ctl._prev`.  ValueError for a
    net of more than MAX_KERNEL_PARAMS parameters."""
    critic = _Text(critic_sizes, critic_sigmoid, prefix="c")
    action = _Text(action_sizes, True, prefix="a")
    # the normalized state is the action net's input; the critic's appends a duty
    state = action.acts[0]
    c_acts = ", ".join(sum(critic.acts, []))
    y_a, y_c = action.acts[-1][0], critic.acts[-1][0]

    def critic_at(duty: str) -> list[str]:
        return [*(f"{c} = {a}" for c, a in zip(critic.acts[0], state)),
                f"{critic.acts[0][-1]} = {duty}", *critic.forward()]

    def carry(net: _Text, listed: str) -> list[str]:
        # a step's list, checked, becomes the net's locals and its list
        return [*net.step(in_place=False), f"{', '.join(net.params)}, = {listed} = new"]

    # the critic step leaves the action net as it is, so the one action
    # pass serves both the critic's target, at the duty the present policy
    # commands, and the action step
    learn = [
        f"duty_hat = d_min + {y_a} * span",
        "if s_prev is not None:",
        *_indent([*critic_at("duty_hat"), f"target = {y_c}", f"{c_acts}, = stored_pass",
                  f"{critic.outputs[0]} = {y_c} - gamma*target - u_prev",
                  *carry(critic, "critic_list")], 1),
        *critic_at("duty_hat"),
        f"{critic.outputs[0]} = 1.0",
        *critic.backward(),
        # chain rule through the affine duty map
        f"{action.outputs[0]} = ({critic.input_gradient()[-1]}) * span",
        *carry(action, "action_list"),
        *action.forward(),
    ]
    period = [
        *(f"{a} = {v}" for a, v in zip(
            state, ("v_o / V_SCALE", "i_l / I_SCALE", "e_v / V_SCALE", "e_i / I_SCALE"))),
        *action.forward(),
        "if learn:",
        *_indent(learn, 1),
        f"duty = d_min + {y_a} * span",
        *critic_at("duty"),
        "u = utility(e_v, e_i)",
        f"s_prev = [{', '.join(state)}]",
        "u_prev = u",
        f"stored_pass = [{c_acts}]",
    ]
    prologue = [
        "critic, action = ctl.critic, ctl.action",
        "critic_list = critic_taken = critic.params.tolist()",
        "action_list = action_taken = action.params.tolist()",
        f"{', '.join(critic.params)}, = critic_list",
        f"{', '.join(action.params)}, = action_list",
        "cfg = ctl.config",
        "gamma, clr, alr = cfg.gamma, cfg.lr_critic, cfg.lr_action",
        "s_prev, u_prev = ctl._prev or (None, None)",
        "d_min, d_max = DUTY_LIMITS",
        "span = d_max - d_min",
        "if learn and s_prev is not None:",
        f"    {', '.join(critic.acts[0][:-1])}, = s_prev",
        f"    {critic.acts[0][-1]} = duty",
        *_indent([*critic.forward(), f"stored_pass = [{c_acts}]"], 1),
    ]
    if name == "run":
        args = "state, duty, segments, step, columns, v_max, i_max, diverged"
        prologue += [
            "v_o_append, i_l_append, duty_append, u_append, j_est_append, mode_append = [",
            "    column.append for column in columns]",
        ]
        body = [
            "for periods, params, v_set, i_set in segments:",
            "    for k in periods:",
            *_indent([
                "i_l, v_o, mode = state",
                "e_v = v_set - v_o",
                "e_i = i_set - i_l",
                *period,
                "v_o_append(v_o)",
                "i_l_append(i_l)",
                "duty_append(duty)",
                "u_append(u)",
                f"j_est_append({y_c})",
                "mode_append(mode)",
                "state = step(state, duty, params)",
                # NaN fails both comparisons too
                "if not (state.v_o <= v_max and state.i_l <= i_max):",
                "    raise diverged(state, k)",
            ], 2),
        ]
        result = "state, duty"
    else:
        args, body, result = "v_o, i_l, e_v, e_i, duty", period, f"duty, {y_c}"
    source = "\n".join([
        f"def {name}(ctl, learn, {args}):",
        *_indent([
            *prologue,
            "try:",
            *_indent(body, 1),
            "finally:",
            "    if critic_list is not critic_taken:",
            "        critic.params[:] = critic_list",
            "    if action_list is not action_taken:",
            "        action.params[:] = action_list",
            "    if s_prev is not None:",
            "        ctl._prev = s_prev, u_prev",
            f"return {result}",
        ], 1),
    ])
    return _compile(source, name, DUTY_LIMITS=DUTY_LIMITS, V_SCALE=V_SCALE, I_SCALE=I_SCALE,
                    utility=utility)


class _Input(NamedTuple):
    v_o: float
    i_l: float
    e_v: float
    e_i: float
    duty_prev: float = 0.0


class ControllerInput(_Input):
    """One cycle's measurements for `HdpController.control_step`, as a
    named tuple (so it unpacks, and compares equal to a plain tuple of its
    fields).

    e_v and e_i are the setpoint errors exactly as the caller computed
    them.  duty_prev is the duty actually applied over the period that
    produced this measurement; the delayed critic update evaluates the
    previous cycle at this duty, so a caller that perturbs the command
    (probing noise during practice) must report the perturbed value.

    Every way to build one from fields, the constructor, `_make` and
    `_replace`, checks that each is finite (ValueError).  A simulated run
    builds none: `HdpController.run_periods` reads the plant state itself,
    behind the simulation's divergence guard.
    """

    __slots__ = ()

    def __new__(
        cls, v_o: float, i_l: float, e_v: float, e_i: float, duty_prev: float = 0.0
    ):
        if not all(map(math.isfinite, (v_o, i_l, e_v, e_i, duty_prev))):
            raise ValueError("controller inputs must be finite")
        return _Input.__new__(cls, v_o, i_l, e_v, e_i, duty_prev)

    @classmethod
    def _make(cls, iterable) -> ControllerInput:
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


@dataclass(frozen=True)
class HdpConfig:
    # the critic's discount, online and in the offline fit
    gamma: float = 0.85
    # per-cycle adaptation rates while a run learns; the offline pipeline
    # passes its own sweep rates.  At 20 kHz even modest rates compound
    # over a 50 ms run into duty drift past the band tolerance.
    lr_critic: float = 1e-4
    lr_action: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        # NaN passes no comparison, so each rate must pass this one
        if not (0.0 <= self.lr_critic < math.inf and 0.0 <= self.lr_action < math.inf):
            raise ValueError("learning rates must be finite and >= 0")


class HdpController:
    """Online actor-critic duty-cycle controller.

    Call control_step once per switching period with the cycle's
    measurements, or run_periods for a closed loop of periods.  Each call
    takes the nets' parameters from their `params` and writes its steps
    back, so a write to `params` or a swapped net between two calls takes
    effect at the next.  With learning enabled the critic is updated from
    the previous period's transition and the action net from the critic,
    before the period's duty command is formed.  Updates are plain
    arithmetic on fixed-seed nets, so a run is bit reproducible.
    """

    def __init__(self, critic: Mlp, action: Mlp, config: HdpConfig | None = None):
        config = config or HdpConfig()
        # duck-typed critics (anything with forward and grad_input) serve
        # action_update; control_step needs an Mlp.  Shape-check only that.
        if isinstance(critic, Mlp) and (critic.n_inputs != 5 or critic.n_outputs != 1):
            raise ValueError(f"critic must map 5 -> 1, got {critic.layer_sizes}")
        if action.layer_sizes[0] != 4 or action.layer_sizes[-1] != 1:
            raise ValueError(f"action net must map 4 -> 1, got {action.layer_sizes}")
        if action.output_activation != "sigmoid":
            raise ValueError("action net needs a sigmoid output")
        self.critic = critic
        self.action = action
        self.config = config
        # generate the code that runs the periods now, so that a net too
        # large for it is refused here (ValueError) rather than mid-run; a
        # duck-typed critic serves only action_update, on the action kernels
        if isinstance(critic, Mlp):
            self._generated("run")
        else:
            action.kernels
        # the stored transition: (normalized state inputs, utility) of the
        # previous period, None until one period has been observed.  The
        # duty slot of the previous critic input is taken from the next
        # measurement's duty_prev, which is the duty actually applied (the
        # harness may have modified the command, e.g. probing noise during
        # practice)
        self._prev: tuple[list[float], float] | None = None

    def __copy__(self) -> HdpController:
        """A controller on copies of the nets, with the same config and
        stored transition: its steps go on from the original's without
        touching the original's nets."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, critic=self.critic.copy(),
                             action=self.action.copy())
        return twin

    def reset_transition_buffer(self) -> None:
        """Forget the stored transition, e.g. across a simulation restart."""
        self._prev = None

    def duty_from_action(self, a: np.ndarray) -> float:
        """Map the policy output in (0,1) onto DUTY_LIMITS."""
        y, _ = self.action.forward(a)
        return self._duty(float(y[0]))

    def _generated(self, name: str) -> Callable:
        """The nets' generated function `name` (`_generate_run`); the critic
        must be an `Mlp` (TypeError)."""
        critic = self.critic
        if not isinstance(critic, Mlp):
            raise TypeError(
                f"control_step needs an Mlp critic, got {type(critic).__name__}"
            )
        return _generate_run(tuple(critic.layer_sizes), critic.output_activation == "sigmoid",
                             tuple(self.action.layer_sizes), name)

    def _duty(self, y: float) -> float:
        d_min, d_max = DUTY_LIMITS
        return d_min + y * (d_max - d_min)

    def action_update(self, a: np.ndarray) -> None:
        """One descent step of the critic's cost-to-go with respect to the
        policy weights."""
        p = self.action.params.tolist()
        acts = self.action.kernels.forward(p, np.asarray(a, dtype=float).tolist())
        x = np.concatenate((a, (self._duty(acts[-1]),)))
        _, cache = self.critic.forward(x)
        dj_dduty = self.critic.grad_input(cache, np.ones(1))[-1]
        d_min, d_max = DUTY_LIMITS
        # chain rule through the affine duty map
        d_output = (dj_dduty * (d_max - d_min),)
        self.action.params[:] = self.action.kernels.step(p, acts, d_output, self.config.lr_action)

    def control_step(
        self, measurement: ControllerInput, learn: bool = True
    ) -> tuple[float, float]:
        """One switching period: returns (duty command, cost-to-go estimate).

        With learn set, first fits the critic on the buffered transition
        that lands in this measurement, then improves the action net through
        the critic, and only then forms the period's command.  The period
        is the one that `run_periods` runs, generated per pair of topologies
        on the first call (`_generate_run`): every pass and step gives the
        bits of the nets' kernels (and of the 1-D `Mlp.forward`,
        `grad_input`, `grad_weights` and `apply_update`).  It reads the
        nets' `params` as it starts and writes its steps into them when it
        returns, however it ends.  The critic must be an `Mlp` (TypeError).
        """
        m = measurement
        return self._generated("period")(self, learn, m.v_o, m.i_l, m.e_v, m.e_i, m.duty_prev)

    def run_periods(
        self, learn: bool, state: PlantState, duty: float, segments, step, columns,
        v_max: float, i_max: float, diverged,
    ) -> tuple[PlantState, float]:
        """Run a closed loop from the plant state `state`, the duty applied
        over the last period being `duty`, and return the state and the duty
        after its last period.

        `segments` lists (periods, plant params, v_set, i_set): each period k
        of `periods` measures e_v = v_set - v_o and e_i = i_set - i_l, runs
        the period of control_step(ControllerInput(v_o, i_l, e_v, e_i, duty),
        learn), appends v_o, i_l, the duty, the utility, the cost-to-go
        estimate and the plant's mode to the six lists `columns`, and steps
        the plant with step(state, duty, params).  A state with v_o past
        v_max or i_l past i_max (NaN passes neither) raises
        diverged(state, k).

        The run is one generated function (`_generate_run`), emitted from
        control_step's period text, that holds both nets' parameters and
        the stored transition in locals from the first period to the last.
        It leaves the nets' `params` and the stored transition as the same
        control_step calls would, however it ends: a refused step
        (NonFiniteUpdateError) or a divergence leaves each net at its last
        accepted step, and control_step calls may precede and follow it.
        The critic must be an `Mlp` (TypeError).
        """
        return self._generated("run")(self, learn, state, duty, segments, step, columns,
                                      v_max, i_max, diverged)
