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

The online step builds no forward cache: every pass runs in a one-row
`PassWorkspace` (the same bits as a 1-D `Mlp.forward`) and each step
descends on its pass in place, as the offline sweeps in `sim` do.
`td_update` is the one critic step, on row 0 of a critic workspace; the
online step and the offline sweep both call it.

All network inputs are normalized by fixed scales so every feature is O(1);
the utility is computed on the normalized errors for the same reason, which
keeps the cost-to-go itself O(1) at the default discount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mlp import Mlp, PassWorkspace

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
    ws: PassWorkspace,
    target: float,
    u_now: float,
    gamma: float,
    learning_rate: float,
) -> float:
    """One semi-gradient step of the critic toward u_now + gamma * target.

    `ws` is a critic workspace whose last pass holds x_now in row 0, and
    `target` is J(x_next), both at the present weights; the caller runs
    those passes, so the step itself runs none.  The target is held fixed.
    Returns the residual before the step.  This is the only critic step:
    the offline sweep and the online control step both take it.
    """
    resid = td_error(ws.outputs.item(0), target, u_now, gamma)
    # loss 0.5*resid^2, so d(loss)/d(output) is the residual itself
    ws.descend(resid, learning_rate)
    return resid


@dataclass(frozen=True)
class ControllerInput:
    """One cycle's measurements, assembled by the harness.

    e_v and e_i are the setpoint errors exactly as the harness computed
    them.  duty_prev is the duty actually applied over the period that
    produced this measurement; the delayed critic update evaluates the
    previous cycle at this duty, so a harness that perturbs the command
    (probing noise during practice) must report the perturbed value."""

    v_o: float
    i_l: float
    e_v: float
    e_i: float
    duty_prev: float = 0.0

    def __post_init__(self) -> None:
        if not all(
            map(math.isfinite, (self.v_o, self.i_l, self.e_v, self.e_i, self.duty_prev))
        ):
            raise ValueError("controller inputs must be finite")


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
    measurements.  With learning enabled the critic is updated from the
    previous period's transition and the action net from the critic, before
    the period's duty command is formed.  Updates are plain arithmetic on
    fixed-seed nets, so a run is bit reproducible.
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
        # (normalized state inputs, utility, held pass) of the previous
        # period, None until one period has been observed; the duty slot of
        # the previous critic input is taken from the next measurement's
        # duty_prev, which is the duty actually applied (the harness may have
        # modified the command, e.g. probing noise during practice).  The
        # held pass is the learning step's critic pass at the committed duty,
        # left in the held workspace: (duty, that workspace, the critic's
        # params as bytes), or None.
        self._prev: tuple[list[float], float, tuple | None] | None = None
        # (critic, the controller's own one-row workspace on it), made anew
        # when the critic object changes
        self._held_ws: tuple[Mlp, PassWorkspace] | None = None

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
        ws = self.action.workspace(1)
        ws.inputs[0] = a
        duty = self._duty(ws.forward().item(0))
        x = np.concatenate((a, (duty / self.config.norm_scales[4],)))
        _, cache = self.critic.forward(x)
        self._descend_action(ws, self.critic.grad_input(cache, np.ones(1))[-1])

    def _descend_action(self, ws: PassWorkspace, dj_dduty: float) -> None:
        """One descent step of the action net on row 0 of its one-row
        workspace `ws`, given dJ/d(the critic's normalized duty input), both
        taken at the present weights."""
        cfg = self.config
        d_min, d_max = cfg.duty_limits
        # chain rule through the affine duty map and the normalization
        ws.descend(dj_dduty * (d_max - d_min) / cfg.norm_scales[4], cfg.lr_action)

    def _held_workspace(self) -> PassWorkspace:
        """The controller's one-row workspace on the present critic."""
        critic = self.critic
        if self._held_ws is None or self._held_ws[0] is not critic:
            if not isinstance(critic, Mlp):
                raise TypeError(
                    f"control_step needs an Mlp critic, got {type(critic).__name__}"
                )
            self._held_ws = (critic, PassWorkspace(critic, 1))
        return self._held_ws[1]

    def control_step(
        self, measurement: ControllerInput, learn: bool = True
    ) -> tuple[float, float]:
        """One switching period: returns (duty command, cost-to-go estimate).

        With learn set, first fits the critic on the buffered transition
        that lands in this measurement, then improves the action net through
        the critic, and only then forms the period's command.  Every pass
        runs in a one-row workspace (the same bits as a 1-D `Mlp.forward`),
        and every step descends on its pass in place.  The critic pass at
        the command is held in the controller's own workspace for the next
        learning step: when that step is told this duty was applied and the
        critic is the same net with the same weights, the pass is its x_prev
        pass, bit for bit, and is not run again.  The critic must be an
        `Mlp`.
        """
        held_ws = self._held_workspace()
        cfg = self.config
        s = cfg.norm_scales
        m = measurement
        # the normalized state as floats; critic inputs append the duty slot
        state = [m.v_o / s[0], m.i_l / s[1], m.e_v / s[2], m.e_i / s[3]]
        action_ws = self.action.workspace(1)
        action_ws.inputs[0] = state
        critic = self.critic
        if learn:
            # the critic step leaves the action net as it is, so this one
            # action pass serves both the critic's target and the action step
            critic_ws = critic.workspace(1)
            critic_ws.inputs[0] = state + [self._duty(action_ws.forward().item(0)) / s[4]]
            if self._prev is not None:
                # the stored transition lands in the present state; evaluate
                # it with the duty the current policy would command here
                state_prev, u_prev, held = self._prev
                # one-row passes: a batch would round differently in the
                # last bits and move the run's trace
                j_hat = critic_ws.forward().item(0)
                # the held pass is the x_prev pass only at the applied duty,
                # in this critic's workspace, at unchanged weights
                if held != (m.duty_prev, held_ws, critic.params.tobytes()):
                    held_ws.inputs[0] = state_prev + [m.duty_prev / s[4]]
                    held_ws.forward()
                td_update(held_ws, j_hat, u_prev, cfg.gamma, cfg.lr_critic)
            critic_ws.forward()
            self._descend_action(action_ws, critic_ws.grad_input(1.0)[-1])
        duty = self._duty(action_ws.forward().item(0))
        held_ws.inputs[0] = state + [duty / s[4]]
        j_est = held_ws.forward().item(0)
        u_now = utility(m.e_v / s[2], m.e_i / s[3], cfg.k_v, cfg.k_i)
        # the next learning step's x_prev pass, if that step sees this duty
        # applied and these weights
        held = (duty, held_ws, critic.params.tobytes()) if learn else None
        self._prev = (state, u_now, held)
        return duty, j_est
