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

All network inputs are normalized by fixed scales so every feature is O(1);
the utility is computed on the normalized errors for the same reason, which
keeps the cost-to-go itself O(1) at the default discount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mlp import ForwardCache, Mlp

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
    cache: ForwardCache,
    target: float,
    u_now: float,
    gamma: float,
    learning_rate: float,
    row: int | None = None,
) -> float:
    """One semi-gradient step of the critic toward u_now + gamma * target.

    `cache` is the critic's forward pass at x_now (row `row` of it, for a
    batched pass) and `target` is J(x_next), both at the present weights;
    the caller runs those passes, so the step itself runs none.  The target
    is held fixed.  Returns the residual before the step.
    """
    out = cache.activations[-1]
    j_now = out[0] if row is None else out[row, 0]
    resid = td_error(float(j_now), target, u_now, gamma)
    # loss 0.5*resid^2, so d(loss)/d(output) is the residual itself
    critic.descend(cache, np.array([resid]), learning_rate, row)
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
        # duck-typed critics (anything with forward/grad_input, plus descend
        # to learn) are allowed; shape-check only the real thing
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
        # (duty, critic, its params as bytes, cache), or None.
        self._prev: tuple[list[float], float, tuple | None] | None = None

    def reset_transition_buffer(self) -> None:
        """Forget the stored transition, e.g. across a simulation restart."""
        self._prev = None

    def duty_from_action(self, a: np.ndarray) -> float:
        """Map the policy output in (0,1) onto the duty limits."""
        y, _ = self.action.forward(a)
        return self._duty(y)

    def _duty(self, y: np.ndarray) -> float:
        d_min, d_max = self.config.duty_limits
        return d_min + float(y[0]) * (d_max - d_min)

    def action_update(self, a: np.ndarray) -> None:
        """One descent step of the critic's cost-to-go with respect to the
        policy weights."""
        self._action_step(a, *self.action.forward(a))

    def _held_cache(self, held: tuple | None, duty_prev: float) -> ForwardCache | None:
        """The held critic pass, if it is still the x_prev pass: the applied
        duty is the committed one, and the critic is the same net with the
        same weights.  None otherwise."""
        if held is None:
            return None
        duty, critic, params, cache = held
        if duty == duty_prev and critic is self.critic and critic.params.tobytes() == params:
            return cache
        return None

    def _action_step(self, a: np.ndarray, y: np.ndarray, cache: ForwardCache) -> None:
        """action_update on the action net's forward pass (y, cache) at a,
        taken at the present weights."""
        cfg = self.config
        d_min, d_max = cfg.duty_limits
        span = d_max - d_min
        d_scale = cfg.norm_scales[4]
        duty = d_min + float(y[0]) * span
        x = np.concatenate((a, (duty / d_scale,)))
        _, critic_cache = self.critic.forward(x)
        dj_dx = self.critic.grad_input(critic_cache, np.ones(1))
        # chain rule through the affine duty map and the normalization
        upstream = dj_dx[-1] * span / d_scale
        self.action.descend(cache, np.array([upstream]), cfg.lr_action)

    def control_step(
        self, measurement: ControllerInput, learn: bool = True
    ) -> tuple[float, float]:
        """One switching period: returns (duty command, cost-to-go estimate).

        With learn set, first fits the critic on the buffered transition
        that lands in this measurement, then improves the action net through
        the critic, and only then forms the period's command.  The critic
        pass at the command is held for the next learning step: when that
        step is told this duty was applied and the critic's weights have not
        changed, the pass is its x_prev pass, bit for bit, and is not run
        again.
        """
        cfg = self.config
        s = cfg.norm_scales
        m = measurement
        # the normalized state as floats; critic inputs append the duty slot
        state = [m.v_o / s[0], m.i_l / s[1], m.e_v / s[2], m.e_i / s[3]]
        a = np.array(state)
        if learn:
            # the critic step leaves the action net as it is, so this one
            # action pass serves both the critic's target and the action step
            y, action_cache = self.action.forward(a)
            if self._prev is not None:
                # the stored transition lands in the present state; evaluate
                # it with the duty the current policy would command here
                x_hat = np.array(state + [self._duty(y) / s[4]])
                state_prev, u_prev, held = self._prev
                # single-input passes: a batch would round differently in the
                # last bits and move the run's trace
                j_hat, _ = self.critic.forward(x_hat)
                cache = self._held_cache(held, m.duty_prev)
                if cache is None:
                    x_prev = np.array(state_prev + [m.duty_prev / s[4]])
                    _, cache = self.critic.forward(x_prev)
                td_update(self.critic, cache, float(j_hat[0]), u_prev, cfg.gamma,
                          cfg.lr_critic)
            self._action_step(a, y, action_cache)
        duty = self.duty_from_action(a)
        x = np.array(state + [duty / s[4]])
        j_now, cache = self.critic.forward(x)
        j_est = float(j_now[0])
        u_now = utility(m.e_v / s[2], m.e_i / s[3], cfg.k_v, cfg.k_i)
        # the next learning step's x_prev pass, if that step sees this duty
        # applied and these weights
        held = None
        if learn and isinstance(self.critic, Mlp):
            held = (duty, self.critic, self.critic.params.tobytes(), cache)
        self._prev = (state, u_now, held)
        return duty, j_est
