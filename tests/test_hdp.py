"""Unit tests for the actor-critic controller machinery."""

import math

import numpy as np
import pytest

from boosthdp import hdp
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
from boosthdp.mlp import ForwardCache, Mlp
from td_reference import td_step_1d


def net_bytes(net):
    return b"".join(w.tobytes() for w in net.weights) + b"".join(
        b.tobytes() for b in net.biases
    )


class QuadCritic:
    """Synthetic cost surface (duty - d_star)^2; exposes the forward /
    grad_input interface action_update expects of a critic (control_step
    needs an Mlp)."""

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
    """td_update on kernel passes at the critic's parameters: the target
    pass, then the x_now pass it steps on; writes the new list into
    critic.params and returns it."""
    p = critic.params.tolist()
    target = critic.kernels.forward(p, list(x_next))[-1]
    new = td_update(critic, p, critic.kernels.forward(p, list(x_now)), target, u, gamma, lr)
    critic.params[:] = new
    return new


class TestTdUpdate:
    def test_zero_learning_rate_is_a_no_op(self):
        critic = make_critic(seed=5)
        before = net_bytes(critic)
        x0, x1 = np.full(5, 0.2), np.full(5, -0.1)
        new = td_step(critic, x0, x1, 0.3, 0.95, lr=0.0)
        assert net_bytes(critic) == before
        assert new == critic.params.tolist()

    def test_update_shrinks_residual_on_frozen_pair(self):
        critic = make_critic(seed=8)
        x0, x1 = np.full(5, 0.4), np.full(5, -0.3)
        # re-evaluated against the same frozen target after one update, the
        # residual must shrink
        target = float(critic.forward(x1)[0][0])
        before = td_error(float(critic.forward(x0)[0][0]), target, 0.5, 0.95)
        td_step(critic, x0, x1, 0.5, 0.95, lr=0.01)
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
        critic, ref = make_critic(seed=1), make_critic(seed=1)
        x = np.full(5, 0.4)
        p = critic.params.tolist()
        acts = critic.kernels.forward(p, x.tolist())
        target = float(critic.forward(np.full(5, -0.3))[0][0])

        def no_forward(*args):
            raise AssertionError("td_update ran a forward pass")

        monkeypatch.setattr(Mlp, "forward", no_forward)
        critic.kernels = critic.kernels._replace(forward=no_forward)
        critic.params[:] = td_update(critic, p, acts, target, 0.5, 0.95, 0.01)
        monkeypatch.undo()
        _, cache = ref.forward(x)
        td_step_1d(ref, cache, target, 0.5, 0.95, 0.01)
        assert critic.params.tobytes() == ref.params.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_same_bits_as_the_1d_step_on_row_0(self, k):
        critic, ref = make_critic(seed=4), make_critic(seed=4)
        rng = np.random.default_rng(k)
        p = critic.params.tolist()
        for _ in range(10):
            xs = rng.uniform(-1.0, 1.0, (k, 5))
            target, u = float(rng.normal()), float(rng.uniform(0.0, 1.0))
            # row 0 of a batched pass (a batch rounds differently from a
            # kernel pass in the last bits)
            _, cache = critic.forward(xs)
            acts = np.concatenate([a[0] for a in cache.activations]).tolist()
            critic.params[:] = p = td_update(critic, p, acts, target, u, 0.85, 0.05)
            _, cache = ref.forward(xs)
            row0 = ForwardCache([a[0] for a in cache.activations])
            td_step_1d(ref, row0, target, u, 0.85, 0.05)
            assert critic.params.tobytes() == ref.params.tobytes()


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
        # 5 -> 1, but too large for the kernels the step runs on
        with pytest.raises(ValueError, match="per-sample kernels"):
            HdpController(Mlp.init([5, 200, 1]), make_action())


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

    @pytest.mark.parametrize("make_critic_", [QuadCritic, make_critic])
    def test_same_bits_as_the_step_on_a_1d_pass(self, make_critic_):
        # a duck-typed critic still drives action_update
        cfg = HdpConfig(lr_action=1e-2)
        a = np.array([0.5, 0.3, 0.5, 0.2])
        ctl = HdpController(make_critic_(), make_action(seed=2), cfg)
        ref = make_action(seed=2)
        d_min, d_max = cfg.duty_limits
        d_scale = cfg.norm_scales[4]
        for _ in range(5):
            ctl.action_update(a)
            y, cache = ref.forward(a)
            x = np.append(a, (d_min + float(y[0]) * (d_max - d_min)) / d_scale)
            _, critic_cache = ctl.critic.forward(x)
            dj_dx = ctl.critic.grad_input(critic_cache, np.ones(1))
            grads = ref.grad_weights(cache, [dj_dx[-1] * (d_max - d_min) / d_scale])
            ref.apply_update(grads, cfg.lr_action)
            assert ctl.action.params.tobytes() == ref.params.tobytes()


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

    def test_critic_steps_through_td_update(self, monkeypatch):
        # one td_update per stored transition; none on the first step, after
        # a reset or while frozen
        calls = []
        td_step_ = hdp.td_update

        def counted(*args):
            calls.append(None)
            return td_step_(*args)

        monkeypatch.setattr(hdp, "td_update", counted)
        ctl = self.make()
        for k in range(5):
            ctl.control_step(meas(50.0 + k, 2.0))
        assert len(calls) == 4
        ctl.reset_transition_buffer()
        ctl.control_step(meas(60.0, 2.5))
        ctl.control_step(meas(61.0, 2.5), learn=False)
        assert len(calls) == 4

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

    def test_make_and_replace_check_finiteness_too(self):
        m = ControllerInput(50.0, 2.0, 150.0, 6.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            ControllerInput._make([float("nan"), 2.0, 150.0, 6.0, 0.5])
        with pytest.raises(ValueError, match="finite"):
            m._replace(v_o=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            m._replace(duty_prev=float("inf"))
        assert type(m._replace(v_o=60.0)) is ControllerInput
        assert m._replace(v_o=60.0) == (60.0, 2.0, 150.0, 6.0, 0.5)

    @pytest.mark.parametrize("learn", [True, False])
    def test_needs_an_mlp_critic(self, learn):
        ctl = HdpController(QuadCritic(), make_action())
        with pytest.raises(TypeError, match="control_step needs an Mlp critic"):
            ctl.control_step(meas(50.0, 2.0), learn=learn)

    def test_topology_constants(self):
        assert CRITIC_SIZES == [5, 5, 5, 1]
        assert ACTION_SIZES == [4, 5, 5, 1]
        assert make_critic().layer_sizes == CRITIC_SIZES
        assert make_action().layer_sizes == ACTION_SIZES


class TestHold:
    """Inside a hold the steps carry the parameter lists and leave `params`
    alone; the hold writes the lists back when it ends."""

    def test_params_written_once_when_the_hold_ends(self):
        held = HdpController(make_critic(seed=2), make_action(seed=52))
        per_call = HdpController(make_critic(seed=2), make_action(seed=52))
        start = net_bytes(held.critic), net_bytes(held.action)
        inputs = [meas(50.0 + k, 2.0 + 0.1 * k) for k in range(6)]
        with held.hold():
            out = [held.control_step(m) for m in inputs]
            assert (net_bytes(held.critic), net_bytes(held.action)) == start
        assert out == [per_call.control_step(m) for m in inputs]
        assert net_bytes(held.critic) == net_bytes(per_call.critic) != start[0]
        assert net_bytes(held.action) == net_bytes(per_call.action) != start[1]

    def test_holds_do_not_nest(self):
        ctl = HdpController(make_critic(), make_action())
        with ctl.hold():
            with pytest.raises(RuntimeError, match="already held"):
                with ctl.hold():
                    pass
        # the refused inner hold leaves the outer one's end intact
        with ctl.hold():
            ctl.control_step(meas(50.0, 2.0))


class RecomputingController:
    """The learning control step written from the public forward,
    grad_input, grad_weights and apply_update: the reference for
    HdpController.control_step, which runs its passes and steps on the
    nets' kernels."""

    def __init__(self, critic, action, config):
        self.critic, self.action, self.config = critic, action, config
        self.prev = None

    def reset_transition_buffer(self):
        self.prev = None

    def duty(self, y):
        d_min, d_max = self.config.duty_limits
        return d_min + float(y[0]) * (d_max - d_min)

    def control_step(self, m):
        cfg = self.config
        s = cfg.norm_scales
        state = [m.v_o / s[0], m.i_l / s[1], m.e_v / s[2], m.e_i / s[3]]
        a = np.array(state)
        y, action_cache = self.action.forward(a)
        x_hat = np.array(state + [self.duty(y) / s[4]])
        if self.prev is not None:
            state_prev, u_prev = self.prev
            j_hat, _ = self.critic.forward(x_hat)
            _, cache = self.critic.forward(np.array(state_prev + [m.duty_prev / s[4]]))
            td_step_1d(self.critic, cache, float(j_hat[0]), u_prev, cfg.gamma, cfg.lr_critic)
        _, cache = self.critic.forward(x_hat)
        dj_dx = self.critic.grad_input(cache, np.ones(1))
        d_min, d_max = cfg.duty_limits
        grads = self.action.grad_weights(action_cache, [dj_dx[-1] * (d_max - d_min) / s[4]])
        self.action.apply_update(grads, cfg.lr_action)
        duty = self.duty(self.action.forward(a)[0])
        j_now, _ = self.critic.forward(np.array(state + [duty / s[4]]))
        self.prev = (state, utility(m.e_v / s[2], m.e_i / s[3], cfg.k_v, cfg.k_i))
        return duty, float(j_now[0])


def write_params(ctl, duty):
    ctl.critic.params[0] += 1e-3
    return duty


def perturb_duty(ctl, duty):
    return duty + 1e-3


def reset(ctl, duty):
    ctl.reset_transition_buffer()
    return duty


def swap_critic(ctl, duty):
    ctl.critic = ctl.critic.copy()
    return duty


class TestHeldCriticPass:
    """A learning step on kernel passes, with the parameter lists it takes
    from the nets and carries between its steps, must give the same bits as
    the step written with the public 1-D API, including across a parameter
    write, a perturbed applied duty, a reset and a swapped critic."""

    STEPS = 40
    HOOK_AT = 20

    def drive(self, ctl, monkeypatch, hook=None):
        """A closed-loop-like run feeding back each returned duty; returns
        the (duty, j_est) pairs as bytes and the number of calls to the 1-D
        Mlp.forward, grad_input and grad_weights."""
        calls = []

        def counted(method):
            def wrapper(*args):
                calls.append(method.__name__)
                return method(*args)
            return wrapper

        for name in ("forward", "grad_input", "grad_weights"):
            monkeypatch.setattr(Mlp, name, counted(getattr(Mlp, name)))
        rng = np.random.default_rng(4)
        duty, outputs = 0.0, []
        for k, (v, i) in enumerate(rng.uniform([150.0, 4.0], [250.0, 12.0], (self.STEPS, 2))):
            if k == self.HOOK_AT and hook is not None:
                duty = hook(ctl, duty)
            duty, j_est = ctl.control_step(meas(v, i, duty_prev=duty))
            outputs.append((duty, j_est))
        monkeypatch.undo()
        return np.array(outputs).tobytes(), len(calls)

    def nets(self):
        return make_critic(seed=3), make_action(seed=53), HdpConfig(lr_critic=1e-2, lr_action=1e-3)

    @pytest.mark.parametrize("hook", [None, write_params, perturb_duty, reset, swap_critic])
    def test_same_bits_as_recomputing_the_pass(self, monkeypatch, hook):
        held = HdpController(*self.nets())
        recomputed = RecomputingController(*self.nets())
        held_out, held_calls = self.drive(held, monkeypatch, hook)
        ref_out, ref_calls = self.drive(recomputed, monkeypatch, hook)
        assert held_out == ref_out
        # the learning step runs no 1-D Mlp pass and builds no ForwardCache
        assert held_calls == 0 and ref_calls > 0
        assert held.critic.params.tobytes() == recomputed.critic.params.tobytes()
        assert held.action.params.tobytes() == recomputed.action.params.tobytes()
