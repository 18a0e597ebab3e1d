"""Unit tests for the PI baseline controller."""

import math

import numpy as np
import pytest

from boosthdp.baseline import DEFAULT_PI_GAINS, PiController, PiGains


class TestConstruction:
    def test_defaults_come_from_shipped_gains(self):
        ctl = PiController()
        assert ctl.kp == DEFAULT_PI_GAINS.kp
        assert ctl.ki == DEFAULT_PI_GAINS.ki
        assert ctl.duty_ff == DEFAULT_PI_GAINS.duty_ff
        assert ctl.integ == 0.0

    def test_gains_are_frozen(self):
        g = PiGains(kp=1e-3, ki=0.1)
        with pytest.raises(AttributeError):
            g.kp = 2e-3

    @pytest.mark.parametrize("gains, message", [
        ({"kp": -1.0, "ki": 0.2}, "kp must be >= 0"),
        ({"kp": 4e-4, "ki": -0.2}, "ki must be >= 0"),
        ({"kp": 4e-4, "ki": 0.2, "duty_ff": -0.1}, r"duty_ff must lie in \[0, 1\]"),
        ({"kp": 4e-4, "ki": 0.2, "duty_ff": 1.5}, r"duty_ff must lie in \[0, 1\]"),
        ({"kp": 4e-4, "ki": math.nan}, "ki must be >= 0"),
    ], ids=["kp-negative", "ki-negative", "duty_ff-low", "duty_ff-high", "ki-nan"])
    def test_bad_gains_rejected(self, gains, message):
        # the controller refuses what the gains refuse
        for make in (PiGains, PiController):
            with pytest.raises(ValueError, match=message):
                make(**gains)

    def test_bad_dt_rejected(self):
        for dt in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt_ctrl"):
                PiController(dt_ctrl=dt)

    def test_nonfinite_error_rejected(self):
        ctl = PiController()
        with pytest.raises(ValueError, match="finite"):
            ctl.pi_step(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            ctl.pi_step(float("inf"))


class TestLaw:
    def test_single_step_arithmetic(self):
        # duty = ff + kp*e + ki*integ with integ updated after the output
        ctl = PiController(kp=0.01, ki=1.0, duty_ff=0.3, dt_ctrl=1e-3)
        duty = ctl.pi_step(5.0)
        assert duty == pytest.approx(0.3 + 0.01 * 5.0)
        assert ctl.integ == pytest.approx(5.0 * 1e-3)

    def test_constant_error_ramp_matches_closed_form(self):
        # with constant error e and no saturation the n-th output is
        # ff + kp*e + ki*e*dt*(n-1): a straight ramp in n
        kp, ki, ff, dt, e = 2e-3, 0.5, 0.2, 50e-6, 40.0
        ctl = PiController(kp=kp, ki=ki, duty_ff=ff, dt_ctrl=dt)
        for n in range(1, 200):
            duty = ctl.pi_step(e)
            expect = ff + kp * e + ki * e * dt * (n - 1)
            assert duty == pytest.approx(expect, abs=1e-15)

    def test_output_linear_in_error_from_reset(self):
        for e in (1.0, -3.0, 17.5):
            a = PiController(kp=3e-4, ki=0.2, duty_ff=0.4)
            b = PiController(kp=3e-4, ki=0.2, duty_ff=0.4)
            d1 = a.pi_step(e) - 0.4
            d2 = b.pi_step(2.0 * e) - 0.4
            assert d2 == pytest.approx(2.0 * d1)

    def test_output_always_inside_limits(self):
        rng = np.random.default_rng(7)
        ctl = PiController(kp=1e-2, ki=5.0)
        for e in rng.uniform(-500.0, 500.0, size=1000):
            duty = ctl.pi_step(float(e))
            assert 0.05 <= duty <= 0.95


class TestAntiWindup:
    def test_integrator_frozen_while_saturated_high(self):
        ctl = PiController(kp=1e-2, ki=1.0, duty_ff=0.0)
        for _ in range(100):
            duty = ctl.pi_step(1000.0)
            assert duty == 0.95
        assert ctl.integ == 0.0

    def test_integrator_frozen_while_saturated_low(self):
        ctl = PiController(kp=1e-2, ki=1.0, duty_ff=0.5)
        for _ in range(100):
            duty = ctl.pi_step(-1000.0)
            assert duty == 0.05
        assert ctl.integ == 0.0

    def test_recovery_after_desaturation(self):
        # once the proportional term lets go, the integrator resumes
        ctl = PiController(kp=1e-2, ki=1.0, duty_ff=0.0, dt_ctrl=1e-3)
        ctl.pi_step(1000.0)             # pinned at d_max, integ untouched
        assert ctl.integ == 0.0
        ctl.pi_step(10.0)               # 0.1 raw: unsaturated
        assert ctl.integ == pytest.approx(10.0 * 1e-3)

    def test_no_windup_means_bounded_transient(self):
        # drive hard into saturation, then flip the error sign; without
        # windup the output must cross back inside the limits immediately
        ctl = PiController(kp=1e-2, ki=10.0, duty_ff=0.0)
        for _ in range(1000):
            ctl.pi_step(1000.0)
        duty = ctl.pi_step(-10.0)
        assert duty < 0.95


class TestShippedGains:
    def test_feed_forward_below_full_volt_second_duty(self):
        # full feed-forward (0.7) rings the LC past twice the setpoint at
        # startup; the shipped value trades a slower ramp for a safe peak
        assert 0.0 < DEFAULT_PI_GAINS.duty_ff < 0.7

    def test_proportional_kick_clears_lower_clamp(self):
        # at v=0 the raw output must exceed d_min or the conditional
        # anti-windup would freeze the integrator forever
        g = DEFAULT_PI_GAINS
        assert g.duty_ff + g.kp * 200.0 > 0.05
