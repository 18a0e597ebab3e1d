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

The online step runs every pass and step on the nets' generated kernels
(`Mlp.kernels`, and `Mlp.step` over `Kernels.step`), on the nets'
parameters as lists.  `HdpController.hold` takes those lists from
`Mlp.params` once for a run of steps, passes them from each step to the
next, and writes them back into `Mlp.params` once, when it ends, however
it ends; a step outside a hold runs in a hold of its own.  `td_update` is
the online critic step.  The offline sweep in `sim` runs the same step
inside a generated epoch function (`Mlp.td_epoch`): `mlp`'s one emitter
writes the step and its finiteness rule for both, and tests hold the sweep
to `td_update` bit for bit.

All network inputs are normalized by fixed scales so every feature is O(1);
the utility is computed on the normalized errors for the same reason, which
keeps the cost-to-go itself O(1) at the default discount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mlp import Mlp

__all__ = [
    "CRITIC_SIZES",
    "ACTION_SIZES",
    "ControllerInput",
    "HdpConfig",
    "HdpController",
    "make_critic",
    "make_action",
    "utility",
    "td_error",
    "td_update",
]

# critic sees [v_o, i_l, e_v, e_i, duty] (normalized); action sees the first four
CRITIC_SIZES = [5, 5, 5, 1]
ACTION_SIZES = [4, 5, 5, 1]


def make_critic(seed: int = 0) -> Mlp:
    """Fresh cost-to-go estimator with a linear (unbounded) output."""
    return Mlp.init(CRITIC_SIZES, output_activation="linear", seed=seed)


def make_action(seed: int = 0) -> Mlp:
    """Fresh policy net; the sigmoid output is mapped affinely onto the duty
    limits, so the command can never leave them."""
    return Mlp.init(ACTION_SIZES, output_activation="sigmoid", seed=seed)


def utility(e_v: float, e_i: float, k_v: float, k_i: float) -> float:
    """Per-step cost: weighted Euclidean norm of the two tracking errors."""
    return math.sqrt(k_v * e_v * e_v + k_i * e_i * e_i)


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
    parameter list and writes nothing: `critic.params` is as it was, and
    the caller writes the list when it wants it there (the online control
    step leaves that to its hold).  `Mlp.td_epoch` runs the same arithmetic
    per transition of an offline sweep.
    """
    resid = td_error(acts[-1], target, u_now, gamma)
    # loss 0.5*resid^2, so d(loss)/d(output) is the residual itself
    return critic.step(p, acts, (resid,), learning_rate)


class _Input(NamedTuple):
    v_o: float
    i_l: float
    e_v: float
    e_i: float
    duty_prev: float = 0.0


class ControllerInput(_Input):
    """One cycle's measurements, assembled by the harness, as a named tuple
    (so it unpacks, and compares equal to a plain tuple of its fields).

    e_v and e_i are the setpoint errors exactly as the harness computed
    them.  duty_prev is the duty actually applied over the period that
    produced this measurement; the delayed critic update evaluates the
    previous cycle at this duty, so a harness that perturbs the command
    (probing noise during practice) must report the perturbed value.

    Every way to build one from fields, the constructor, `_make` and
    `_replace`, checks that each is finite (ValueError).  `sim.run_scenario`
    builds its inputs with `tuple.__new__`, unchecked: its divergence guard
    has already stopped a non-finite or runaway plant state.
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
    gamma: float = 0.85
    # per-cycle adaptation rates while a run learns; the offline pipeline
    # passes its own sweep rates.  At 20 kHz even modest rates compound
    # over a 50 ms run into duty drift past the band tolerance.
    lr_critic: float = 1e-4
    lr_action: float = 1e-6
    k_v: float = 1.0
    k_i: float = 0.1
    # scales for [v_o, i_l, e_v, e_i, duty]; "keys" names each element in
    # the flat config file
    norm_scales: tuple[float, float, float, float, float] = field(
        default=(200.0, 10.0, 200.0, 10.0, 1.0),
        metadata={"keys": ("norm_v_o", "norm_i_l", "norm_e_v", "norm_e_i", "norm_duty")},
    )
    duty_limits: tuple[float, float] = field(
        default=(0.05, 0.95), metadata={"keys": ("duty_min", "duty_max")}
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.lr_critic < 0.0 or self.lr_action < 0.0:
            raise ValueError("learning rates must be >= 0")
        if self.k_v < 0.0 or self.k_i < 0.0 or self.k_v + self.k_i == 0.0:
            raise ValueError("utility weights must be >= 0 and not both zero")
        if len(self.norm_scales) != 5 or any(s <= 0.0 for s in self.norm_scales):
            raise ValueError(f"need 5 positive norm_scales, got {self.norm_scales}")
        d_min, d_max = self.duty_limits
        if not 0.0 <= d_min < d_max <= 1.0:
            raise ValueError(f"bad duty limits {self.duty_limits}")


class HdpController:
    """Online actor-critic duty-cycle controller.

    Call control_step once per switching period with the cycle's
    measurements, for a run of periods inside `hold`.  With learning
    enabled the critic is updated from the previous period's transition and
    the action net from the critic, before the period's duty command is
    formed.  Updates are plain arithmetic on fixed-seed nets, so a run is
    bit reproducible.
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
        # generate the kernels the step runs on now, so that a net too large
        # for them is refused here (ValueError) rather than mid-run
        for net in (critic, action):
            if isinstance(net, Mlp):
                net.kernels
        self.critic = critic
        self.action = action
        self.config = config
        # (normalized state inputs, utility) of the previous period, None
        # until one period has been observed; the duty slot of the previous
        # critic input is taken from the next measurement's duty_prev, which
        # is the duty actually applied (the harness may have modified the
        # command, e.g. probing noise during practice)
        self._prev: tuple[list[float], float] | None = None
        # [critic list, action list] while a hold is open, else None
        self._lists: list[list[float]] | None = None

    def hold(self) -> _Hold:
        """Hold both nets' parameters as lists for a run of control steps:
        `with controller.hold(): ...`.

        The hold takes the lists from the nets' `params` as it opens; each
        control_step inside it starts from the lists the one before left,
        and neither reads nor writes `params`.  When the hold ends, however
        it ends, each list that changed is written into its net's `params`
        once; a step refused mid-run (NonFiniteUpdateError) thus leaves each
        net at its last accepted step.  Inside a hold, neither swap a net nor
        write its `params`: the steps go on from the held lists, and the
        hold writes them into the nets it opened with.  Holds do not nest.
        The critic must be an `Mlp`.
        """
        return _Hold(self)

    def reset_transition_buffer(self) -> None:
        """Forget the stored transition, e.g. across a simulation restart."""
        self._prev = None

    def duty_from_action(self, a: np.ndarray) -> float:
        """Map the policy output in (0,1) onto the duty limits."""
        y, _ = self.action.forward(a)
        return self._duty(float(y[0]))

    def _duty(self, y: float) -> float:
        d_min, d_max = self.config.duty_limits
        return d_min + y * (d_max - d_min)

    def action_update(self, a: np.ndarray) -> None:
        """One descent step of the critic's cost-to-go with respect to the
        policy weights."""
        p = self.action.params.tolist()
        acts = self.action.kernels.forward(p, np.asarray(a, dtype=float).tolist())
        x = np.concatenate((a, (self._duty(acts[-1]) / self.config.norm_scales[4],)))
        _, cache = self.critic.forward(x)
        dj_dduty = self.critic.grad_input(cache, np.ones(1))[-1]
        self.action.params[:] = self._descend_action(p, acts, dj_dduty)

    def _descend_action(self, p: list[float], acts: list[float], dj_dduty: float) -> list[float]:
        """One descent step of the action net on its kernel pass `acts` at
        the parameters `p`, given dJ/d(the critic's normalized duty input) at
        the present weights; returns the new parameter list, unwritten."""
        cfg = self.config
        d_min, d_max = cfg.duty_limits
        # chain rule through the affine duty map and the normalization
        d_output = (dj_dduty * (d_max - d_min) / cfg.norm_scales[4],)
        return self.action.step(p, acts, d_output, cfg.lr_action)

    def control_step(
        self, measurement: ControllerInput, learn: bool = True
    ) -> tuple[float, float]:
        """One switching period: returns (duty command, cost-to-go estimate).

        With learn set, first fits the critic on the buffered transition
        that lands in this measurement, then improves the action net through
        the critic, and only then forms the period's command.  Every pass and step runs on
        the nets' kernels (the same bits as the 1-D `Mlp.forward`,
        `grad_input`, `grad_weights` and `apply_update`), on the parameter
        lists of the open `hold`.  Outside a hold the period runs in a hold
        of its own, so the nets' `params` hold its steps when it returns.
        The critic must be an `Mlp`.
        """
        if self._lists is not None:
            return self._period(measurement, learn)
        with self.hold():
            return self._period(measurement, learn)

    def _period(self, m: ControllerInput, learn: bool) -> tuple[float, float]:
        """control_step inside a hold: carries the held lists on, storing
        each net's new list as soon as its step is accepted."""
        critic, action, lists = self.critic, self.action, self._lists
        critic_pass, action_pass = critic.kernels.forward, action.kernels.forward
        cfg = self.config
        s = cfg.norm_scales
        pc, pa = lists
        # the normalized state as floats; critic inputs append the duty slot
        state = [m.v_o / s[0], m.i_l / s[1], m.e_v / s[2], m.e_i / s[3]]
        acts = action_pass(pa, state)
        if learn:
            # the critic step leaves the action net as it is, so this one
            # action pass serves both the critic's target and the action step
            x_hat = state + [self._duty(acts[-1]) / s[4]]
            if self._prev is not None:
                # the stored transition lands in the present state; evaluate
                # it with the duty the current policy would command here
                state_prev, u_prev = self._prev
                j_hat = critic_pass(pc, x_hat)[-1]
                x_prev = critic_pass(pc, state_prev + [m.duty_prev / s[4]])
                # td_update writes nothing; the hold writes params
                lists[0] = pc = td_update(
                    critic, pc, x_prev, j_hat, u_prev, cfg.gamma, cfg.lr_critic
                )
            dj_dx = critic.kernels.input_gradient(pc, critic_pass(pc, x_hat), (1.0,))
            lists[1] = pa = self._descend_action(pa, acts, dj_dx[-1])
            acts = action_pass(pa, state)
        duty = self._duty(acts[-1])
        j_est = critic_pass(pc, state + [duty / s[4]])[-1]
        self._prev = (state, utility(m.e_v / s[2], m.e_i / s[3], cfg.k_v, cfg.k_i))
        return duty, j_est


class _Hold:
    """The context manager `HdpController.hold` returns.  A class, not a
    `contextlib.contextmanager` generator, because every control_step
    outside a hold opens one and the generator's set-up costs more."""

    __slots__ = ("controller", "nets", "taken")

    def __init__(self, controller: HdpController) -> None:
        self.controller = controller

    def __enter__(self) -> None:
        ctl = self.controller
        critic, action = ctl.critic, ctl.action
        if not isinstance(critic, Mlp):
            raise TypeError(
                f"control_step needs an Mlp critic, got {type(critic).__name__}"
            )
        if ctl._lists is not None:
            raise RuntimeError("the controller is already held")
        self.nets = critic, action
        self.taken = critic.params.tolist(), action.params.tolist()
        ctl._lists = list(self.taken)

    def __exit__(self, *exc_info) -> None:
        ctl = self.controller
        lists, ctl._lists = ctl._lists, None
        for net, new, old in zip(self.nets, lists, self.taken):
            if new is not old:
                net.params[:] = new
