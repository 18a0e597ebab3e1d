"""Unit tests for the actor-critic controller machinery."""

import math

import numpy as np
import pytest

from boosthdp.hdp import (
    ACTION_SIZES,
    CRITIC_SIZES,
    ControllerInput,
    HdpConfig,
    HdpController,
    make_action,
    make_critic,
    td_error,
    td_update,
    utility,
)
from boosthdp.mlp import Mlp


def net_bytes(net):
    return b"".join(w.tobytes() for w in net.weights) + b"".join(
        b.tobytes() for b in net.biases
    )


class QuadCritic:
    """Synthetic cost surface (duty - d_star)^2; exposes the same forward /
    grad_input interface the controller expects of a critic."""

    def __init__(self, d_star=0.7):
        self.d_star = d_star

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([(x[4] - self.d_star) ** 2]), x.copy()

    def grad_input(self, cache, d_out):
        g = np.zeros(5)
        g[4] = 2.0 * (cache[4] - self.d_star)
        return float(d_out[0]) * g


# the utility weights a run uses unless the config says otherwise
K_V, K_I = HdpConfig().k_v, HdpConfig().k_i


class TestUtility:
    def test_pythagorean_example(self):
        assert utility(3.0, 4.0, k_v=1.0, k_i=1.0) == pytest.approx(5.0)

    def test_weighted_example(self):
        # sqrt(1*9 + 0.25*16) = sqrt(13)
        assert utility(3.0, 4.0, k_v=1.0, k_i=0.25) == pytest.approx(math.sqrt(13.0))

    def test_zero_at_zero_error(self):
        assert utility(0.0, 0.0, K_V, K_I) == 0.0

    def test_sign_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for e_v, e_i in rng.normal(size=(50, 2)):
            u = utility(e_v, e_i, K_V, K_I)
            assert u >= 0.0
            assert u == pytest.approx(utility(-e_v, -e_i, K_V, K_I))


class TestTdError:
    def test_arithmetic(self):
        assert td_error(2.0, 1.0, 0.5, 0.9) == pytest.approx(2.0 - 0.9 - 0.5)

    def test_constant_cost_fixed_point(self):
        # J = u/(1-gamma) zeroes the residual when the value is flat
        for gamma, u in ((0.95, 0.05), (0.5, 1.0), (0.99, 2.0)):
            j = u / (1.0 - gamma)
            assert td_error(j, j, u, gamma) == pytest.approx(0.0, abs=1e-12)


def td_step(critic, x_now, x_next, u, gamma, lr):
    """td_update on the two forward passes it needs, taken unbatched."""
    j_next, _ = critic.forward(x_next)
    _, cache = critic.forward(x_now)
    return td_update(critic, cache, float(j_next[0]), u, gamma, lr)


class TestTdUpdate:
    def test_zero_learning_rate_is_a_no_op(self):
        critic = make_critic(seed=5)
        before = net_bytes(critic)
        x0, x1 = np.full(5, 0.2), np.full(5, -0.1)
        resid = td_step(critic, x0, x1, 0.3, 0.95, lr=0.0)
        assert net_bytes(critic) == before
        j0 = float(critic.forward(x0)[0][0])
        j1 = float(critic.forward(x1)[0][0])
        assert resid == pytest.approx(td_error(j0, j1, 0.3, 0.95))

    def test_update_shrinks_residual_on_frozen_pair(self):
        critic = make_critic(seed=8)
        x0, x1 = np.full(5, 0.4), np.full(5, -0.3)
        # the step returns the residual before it; re-evaluated against the
        # same frozen target after one update, the residual must shrink
        target = float(critic.forward(x1)[0][0])
        before = td_step(critic, x0, x1, 0.5, 0.95, lr=0.01)
        after = td_error(float(critic.forward(x0)[0][0]), target, 0.5, 0.95)
        assert abs(after) < abs(before)

    def test_two_state_chain_recovers_flat_value(self):
        # alternating A -> B -> A with constant utility: J = u/(1-gamma)
        gamma, u = 0.95, 0.05
        true_j = u / (1.0 - gamma)
        rng = np.random.default_rng(100)
        x_a = rng.uniform(-1.0, 1.0, 5)
        x_b = rng.uniform(-1.0, 1.0, 5)
        critic = make_critic(seed=0)
        for _ in range(2000):
            td_step(critic, x_a, x_b, u, gamma, 0.05)
            td_step(critic, x_b, x_a, u, gamma, 0.05)
        j_a = float(critic.forward(x_a)[0][0])
        j_b = float(critic.forward(x_b)[0][0])
        print(f"chain: J(a)={j_a:.6f} J(b)={j_b:.6f} true={true_j:.6f}")
        assert j_a == pytest.approx(true_j, abs=1e-2)
        assert j_b == pytest.approx(true_j, abs=1e-2)
        assert abs(td_error(j_a, j_b, u, gamma)) < 1e-3
        assert abs(td_error(j_b, j_a, u, gamma)) < 1e-3

    def test_runs_no_forward_pass(self, monkeypatch):
        critic = make_critic(seed=1)
        x0, x1 = np.full(5, 0.4), np.full(5, -0.3)
        target = float(critic.forward(x1)[0][0])
        _, cache = critic.forward(x0)

        def no_forward(*args):
            raise AssertionError("td_update ran a forward pass")

        monkeypatch.setattr(Mlp, "forward", no_forward)
        resid = td_update(critic, cache, target, 0.5, 0.95, 0.01)
        assert resid == td_error(float(cache.activations[-1][0]), target, 0.5, 0.95)

    def test_row_of_a_batch_steps_like_its_row_cache(self):
        critic = make_critic(seed=2)
        twin = critic.copy()
        xs = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 5))
        for row in range(3):
            _, cache = critic.forward(xs)
            _, twin_cache = twin.forward(xs)
            resid = td_update(critic, cache, 0.3, 0.5, 0.95, 0.01, row=row)
            twin_resid = td_update(twin, twin_cache.row(row), 0.3, 0.5, 0.95, 0.01)
            assert resid == twin_resid
            assert critic.params.tobytes() == twin.params.tobytes()


class TestConfig:
    def test_defaults_valid(self):
        cfg = HdpConfig()
        assert 0.0 < cfg.gamma < 1.0
        assert cfg.duty_limits == (0.05, 0.95)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0),
            dict(gamma=1.0),
            dict(lr_critic=-1e-3),
            dict(lr_action=-1e-3),
            dict(k_v=0.0, k_i=0.0),
            dict(k_v=-1.0),
            dict(k_i=-1.0),
            dict(norm_scales=(200.0, 10.0, 200.0, 10.0)),
            dict(norm_scales=(200.0, 0.0, 200.0, 10.0, 1.0)),
            dict(duty_limits=(0.9, 0.1)),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HdpConfig(**kwargs)

    def test_shape_checks_on_networks(self):
        with pytest.raises(ValueError, match="critic"):
            HdpController(Mlp.init([4, 3, 1]), make_action())
        with pytest.raises(ValueError, match="action"):
            HdpController(make_critic(), Mlp.init([5, 3, 1], "sigmoid"))
        with pytest.raises(ValueError, match="sigmoid"):
            HdpController(make_critic(), Mlp.init([4, 3, 1], "linear"))


class TestActionUpdate:
    def test_single_update_descends_the_cost(self):
        # whichever side of the optimum the policy starts on, one small step
        # must move the commanded duty toward it
        a = np.array([0.5, 0.3, 0.5, 0.2])
        for d_star in (0.3, 0.9):
            ctl = HdpController(
                QuadCritic(d_star), make_action(seed=2), HdpConfig(lr_action=1e-3)
            )
            before = ctl.duty_from_action(a)
            ctl.action_update(a)
            after = ctl.duty_from_action(a)
            assert abs(after - d_star) < abs(before - d_star)

    def test_policy_homes_onto_quadratic_minimum(self):
        a = np.array([0.5, 0.3, 0.5, 0.2])
        for seed in (0, 1):
            ctl = HdpController(
                QuadCritic(0.7), make_action(seed=seed), HdpConfig(lr_action=0.05)
            )
            for _ in range(2000):
                ctl.action_update(a)
            duty = ctl.duty_from_action(a)
            print(f"seed {seed}: duty={duty:.5f}")
            assert duty == pytest.approx(0.7, abs=0.01)


def meas(v_o, i_l, v_set=200.0, i_set=8.0, duty_prev=0.0):
    return ControllerInput(v_o, i_l, v_set - v_o, i_set - i_l, duty_prev)


class TestControlStep:
    def make(self, seed=0):
        return HdpController(make_critic(seed=seed), make_action(seed=seed + 50))

    def test_duty_always_inside_limits(self):
        ctl = self.make()
        rng = np.random.default_rng(11)
        for _ in range(200):
            v, i = rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)
            duty, _ = ctl.control_step(meas(v, i), learn=False)
            assert 0.05 <= duty <= 0.95

    def test_learn_false_touches_no_weights(self):
        ctl = self.make()
        c0, a0 = net_bytes(ctl.critic), net_bytes(ctl.action)
        for k in range(20):
            ctl.control_step(meas(50.0 + k, 2.0), learn=False)
        assert net_bytes(ctl.critic) == c0
        assert net_bytes(ctl.action) == a0

    def test_first_step_updates_action_but_not_critic(self):
        # no stored transition yet, so there is nothing to fit the critic on
        ctl = self.make()
        c0, a0 = net_bytes(ctl.critic), net_bytes(ctl.action)
        ctl.control_step(meas(50.0, 2.0))
        assert net_bytes(ctl.critic) == c0
        assert net_bytes(ctl.action) != a0

    def test_second_step_updates_critic(self):
        ctl = self.make()
        ctl.control_step(meas(50.0, 2.0))
        c1 = net_bytes(ctl.critic)
        ctl.control_step(meas(60.0, 2.5))
        assert net_bytes(ctl.critic) != c1

    def test_reset_transition_buffer_skips_one_critic_update(self):
        ctl = self.make()
        ctl.control_step(meas(50.0, 2.0))
        ctl.reset_transition_buffer()
        c = net_bytes(ctl.critic)
        ctl.control_step(meas(60.0, 2.5))
        assert net_bytes(ctl.critic) == c

    def test_bit_reproducible(self):
        ctl1, ctl2 = self.make(), self.make()
        rng = np.random.default_rng(4)
        inputs = rng.uniform([0.0, 0.0], [250.0, 12.0], size=(50, 2))
        out1 = [ctl1.control_step(meas(v, i)) for v, i in inputs]
        out2 = [ctl2.control_step(meas(v, i)) for v, i in inputs]
        assert out1 == out2
        assert ctl1.critic.dumps() == ctl2.critic.dumps()
        assert ctl1.action.dumps() == ctl2.action.dumps()

    def test_nonfinite_measurements_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ControllerInput(float("nan"), 2.0, 150.0, 6.0)
        with pytest.raises(ValueError, match="finite"):
            ControllerInput(50.0, 2.0, float("inf"), 6.0)

    def test_topology_constants(self):
        assert CRITIC_SIZES == [5, 5, 5, 1]
        assert ACTION_SIZES == [4, 5, 5, 1]
        assert make_critic().layer_sizes == CRITIC_SIZES
        assert make_action().layer_sizes == ACTION_SIZES


class DelegatingCritic:
    """A duck-typed critic: it passes every call to a real net but is no
    Mlp, so the controller recomputes its x_prev pass on every step."""

    def __init__(self, net):
        self.net = net

    def forward(self, x):
        return self.net.forward(x)

    def grad_input(self, cache, d_out):
        return self.net.grad_input(cache, d_out)

    def descend(self, *args, **kwargs):
        self.net.descend(*args, **kwargs)


def critic_net(ctl):
    return getattr(ctl.critic, "net", ctl.critic)


def write_params(ctl, duty):
    critic_net(ctl).params[0] += 1e-3
    return duty


def perturb_duty(ctl, duty):
    return duty + 1e-3


def reset(ctl, duty):
    ctl.reset_transition_buffer()
    return duty


def swap_critic(ctl, duty):
    if isinstance(ctl.critic, Mlp):
        ctl.critic = ctl.critic.copy()
    else:
        ctl.critic = DelegatingCritic(ctl.critic.net.copy())
    return duty


class TestHeldCriticPass:
    """A learning step reuses the previous step's critic pass at the
    committed duty as its x_prev pass, and must give the same bits as
    recomputing it."""

    STEPS = 40
    HOOK_AT = 20

    def drive(self, ctl, monkeypatch, hook=None):
        """A closed-loop-like run feeding back each returned duty; returns
        the (duty, j_est) pairs and the forward passes each step made."""
        calls = []
        forward = Mlp.forward

        def counted(net, x):
            calls.append(None)
            return forward(net, x)

        monkeypatch.setattr(Mlp, "forward", counted)
        rng = np.random.default_rng(4)
        duty, outputs, passes = 0.0, [], []
        for k, (v, i) in enumerate(rng.uniform([150.0, 4.0], [250.0, 12.0], (self.STEPS, 2))):
            if k == self.HOOK_AT and hook is not None:
                duty = hook(ctl, duty)
            before = len(calls)
            duty, j_est = ctl.control_step(meas(v, i, duty_prev=duty))
            passes.append(len(calls) - before)
            outputs.append((duty, j_est))
        monkeypatch.undo()
        return np.array(outputs).tobytes(), passes

    def make(self, critic_wrapper=lambda net: net):
        cfg = HdpConfig(lr_critic=1e-2, lr_action=1e-3)
        return HdpController(critic_wrapper(make_critic(seed=3)), make_action(seed=53), cfg)

    @pytest.mark.parametrize("hook", [None, write_params, perturb_duty, reset, swap_critic])
    def test_same_bits_as_recomputing_the_pass(self, monkeypatch, hook):
        held = self.make()
        recomputed = self.make(DelegatingCritic)
        held_out, held_passes = self.drive(held, monkeypatch, hook)
        ref_out, ref_passes = self.drive(recomputed, monkeypatch, hook)
        assert held_out == ref_out
        assert critic_net(held).params.tobytes() == critic_net(recomputed).params.tobytes()
        assert held.action.params.tobytes() == recomputed.action.params.tobytes()
        # 4 passes without a stored transition, 6 with the x_prev pass run
        # and 5 with it reused; the duck-typed critic never reuses
        recomputing = [4] + [6] * (self.STEPS - 1)
        if hook is reset:
            recomputing[self.HOOK_AT] = 4
        assert ref_passes == recomputing
        expected = [4] + [5] * (self.STEPS - 1)
        if hook is reset:
            expected[self.HOOK_AT] = 4
        elif hook is not None:
            expected[self.HOOK_AT] = 6
        assert held_passes == expected
