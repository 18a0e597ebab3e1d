"""Conventional single-loop voltage-mode PI controller.

Serves as the comparison baseline.  The law is

    duty = clamp(duty_ff + kp*e_v + ki*integ, [d_min, d_max])

with conditional anti-windup: the integrator only accumulates while the output
is unsaturated.  duty_ff is a constant feed-forward that lets the loop start
near the operating duty instead of ramping the integrator from zero.

Default gains come from loop-shaping the averaged CCM model at the nominal
point (60 V in, 200 V out, 80 ohm).  The lightly damped LC resonance
(~55 Hz) together with the right-half-plane zero near 1.3 kHz pins the gain
crossover below the resonance, so the loop is deliberately slow; see the
README for the derivation.  The shipped duty_ff is backed off from the full
volt-second value 0.7: kicking the undamped LC input filter with the full
operating duty at zero state rings the output past 2x the setpoint, while
0.5 keeps the startup peak near 255 V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["PiGains", "PiController", "DEFAULT_PI_GAINS"]


@dataclass(frozen=True)
class PiGains:
    kp: float       # duty per volt
    ki: float       # duty per volt-second
    duty_ff: float = 0.0


# Shipped defaults; derived offline, validated in the comparison tests.
DEFAULT_PI_GAINS = PiGains(kp=4e-4, ki=0.2, duty_ff=0.5)


@dataclass
class PiController:
    kp: float = DEFAULT_PI_GAINS.kp
    ki: float = DEFAULT_PI_GAINS.ki
    duty_ff: float = DEFAULT_PI_GAINS.duty_ff
    dt_ctrl: float = 50e-6
    duty_limits: tuple[float, float] = (0.05, 0.95)
    integ: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.dt_ctrl <= 0.0:
            raise ValueError("dt_ctrl must be positive")
        d_min, d_max = self.duty_limits
        if not 0.0 <= d_min < d_max <= 1.0:
            raise ValueError(f"bad duty limits {self.duty_limits}")

    def pi_step(self, e_v: float) -> float:
        """One control update from the voltage error; returns the duty command."""
        if not math.isfinite(e_v):
            raise ValueError("voltage error must be finite")
        d_min, d_max = self.duty_limits
        raw = self.duty_ff + self.kp * e_v + self.ki * self.integ
        duty = min(max(raw, d_min), d_max)
        if duty == raw:
            self.integ += e_v * self.dt_ctrl
        return duty

    def reset(self) -> None:
        """Zero the integrator; gains and limits are preserved."""
        self.integ = 0.0

    def copy(self) -> "PiController":
        return PiController(
            kp=self.kp,
            ki=self.ki,
            duty_ff=self.duty_ff,
            dt_ctrl=self.dt_ctrl,
            duty_limits=self.duty_limits,
            integ=self.integ,
        )
