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
(`Mlp.kernels`), on the nets' parameters as lists.  `HdpController.hold`
takes those lists from `Mlp.params` once for a run of steps, passes them
from each step to the next, and writes them back into `Mlp.params` once,
when it ends, however it ends; a step outside a hold runs in a hold of
its own.  `td_update` is
the online critic step.  The offline sweep in `sim` runs the same step
inside a generated epoch function (`Mlp.td_epoch`): `mlp`'s one emitter
writes the step and its finiteness rule for both, which raises
NonFiniteUpdateError where a step would make a parameter non-finite, and
tests hold the sweep to `td_update` bit for bit.

The nets work in fixed coordinates that keep every feature O(1): volts
over V_SCALE, amperes over I_SCALE, and the duty as it is.  The utility is
computed on the errors in the same coordinates, which keeps the cost-to-go
itself O(1) at the default discount.  The action net's sigmoid output maps
affinely onto `plant.DUTY_LIMITS`, the window the PI loop clamps to too.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mlp import Mlp
from .plant import DUTY_LIMITS

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
    parameter list and writes nothing: `critic.params` is as it was, and
    the caller writes the list when it wants it there (the online control
    step leaves that to its hold).  A step that would make a parameter
    non-finite raises NonFiniteUpdateError.  `Mlp.td_epoch` runs the same
    arithmetic per transition of an offline sweep.
    """
    resid = td_error(acts[-1], target, u_now, gamma)
    # loss 0.5*resid^2, so d(loss)/d(output) is the residual itself
    return critic.kernels.step(p, acts, (resid,), learning_rate)


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
    `_replace`, checks that each is finite (ValueError).  `sim`'s period
    loop builds its inputs with `tuple.__new__`, unchecked: its divergence
    guard has already stopped a non-finite or runaway plant state.
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
        # the stored transition: (normalized state inputs, utility, critic
        # list, duty, critic pass) of the previous period, None until one
        # period has been observed.  The duty slot of the previous critic
        # input is taken from the next measurement's duty_prev, which is the
        # duty actually applied (the harness may have modified the command,
        # e.g. probing noise during practice); the period's cost-to-go pass,
        # at its critic list and duty, serves as the transition's pass when
        # the next period brings those same objects back
        self._prev: tuple[list[float], float, list[float], float, list[float]] | None = None
        # [critic list, action list] while a hold is open, else None
        self._lists: list[list[float]] | None = None

    @contextmanager
    def hold(self) -> Iterator[None]:
        """Hold both nets' parameters as lists for a run of control steps:
        `with controller.hold(): ...`.

        The hold takes the lists from the nets' `params` as it opens; each
        control_step inside it starts from the lists the one before left,
        and neither reads nor writes `params`.  When the hold ends, however
        it ends, each list that changed is written into its net's `params`
        once; a step refused mid-run (NonFiniteUpdateError) thus leaves each
        net at its last accepted step.  Inside a hold, neither swap a net nor
        write its `params`: the steps go on from the held lists, and the
        hold writes them into the nets it opened with.  Holds do not nest
        (RuntimeError), and the critic must be an `Mlp` (TypeError); either
        is refused before anything is taken.
        """
        critic, action = self.critic, self.action
        if not isinstance(critic, Mlp):
            raise TypeError(
                f"control_step needs an Mlp critic, got {type(critic).__name__}"
            )
        if self._lists is not None:
            raise RuntimeError("the controller is already held")
        taken = critic.params.tolist(), action.params.tolist()
        self._lists = lists = list(taken)
        try:
            yield
        finally:
            self._lists = None
            for net, new, old in zip((critic, action), lists, taken):
                if new is not old:
                    net.params[:] = new

    def __copy__(self) -> HdpController:
        """A controller on the same nets, config and stored transition.
        Inside an open hold it gets its own pair of the held lists (the
        lists are never written in place, so they are shared): its steps
        then go on from the original's without touching the original's
        lists, and the hold writes only the original's into the nets."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        if self._lists is not None:
            twin._lists = list(self._lists)
        return twin

    def reset_transition_buffer(self) -> None:
        """Forget the stored transition, e.g. across a simulation restart."""
        self._prev = None

    def duty_from_action(self, a: np.ndarray) -> float:
        """Map the policy output in (0,1) onto DUTY_LIMITS."""
        y, _ = self.action.forward(a)
        return self._duty(float(y[0]))

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
        self.action.params[:] = self._descend_action(p, acts, dj_dduty)

    def _descend_action(self, p: list[float], acts: list[float], dj_dduty: float) -> list[float]:
        """One descent step of the action net on its kernel pass `acts` at
        the parameters `p`, given dJ/d(the critic's duty input) at
        the present weights; returns the new parameter list, unwritten."""
        d_min, d_max = DUTY_LIMITS
        # chain rule through the affine duty map
        d_output = (dj_dduty * (d_max - d_min),)
        return self.action.kernels.step(p, acts, d_output, self.config.lr_action)

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
        pc, pa = lists
        # the normalized state as floats; critic inputs append the duty slot
        state = [m.v_o / V_SCALE, m.i_l / I_SCALE, m.e_v / V_SCALE, m.e_i / I_SCALE]
        acts = action_pass(pa, state)
        if learn:
            # the critic step leaves the action net as it is, so this one
            # action pass serves both the critic's target and the action step
            x_hat = state + [self._duty(acts[-1])]
            if self._prev is not None:
                # the stored transition lands in the present state; evaluate
                # it with the duty the current policy would command here
                state_prev, u_prev, pc_prev, duty_prev, x_prev = self._prev
                j_hat = critic_pass(pc, x_hat)[-1]
                # the last period's pass serves if it ran at this critic list
                # and at the duty the harness applied (a held list is never
                # written)
                if pc_prev is not pc or duty_prev is not m.duty_prev:
                    x_prev = critic_pass(pc, state_prev + [m.duty_prev])
                # td_update writes nothing; the hold writes params
                lists[0] = pc = td_update(
                    critic, pc, x_prev, j_hat, u_prev, cfg.gamma, cfg.lr_critic
                )
            dj_dx = critic.kernels.input_gradient(pc, critic_pass(pc, x_hat), (1.0,))
            lists[1] = pa = self._descend_action(pa, acts, dj_dx[-1])
            acts = action_pass(pa, state)
        duty = self._duty(acts[-1])
        x_est = critic_pass(pc, state + [duty])
        u = utility(m.e_v, m.e_i)
        self._prev = (state, u, pc, duty, x_est)
        return duty, x_est[-1]
