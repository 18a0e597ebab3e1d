"""Unit tests for the actor-critic controller machinery."""

import copy
import math

import numpy as np
import pytest

from boosthdp import sim
from boosthdp.hdp import (
    ACTION_SIZES,
    CRITIC_SIZES,
    I_SCALE,
    K_I,
    K_V,
    V_SCALE,
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
from boosthdp.plant import DUTY_LIMITS, PlantParams, PlantState
from run_reference import RecomputingController, per_call_periods
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


class TestUtility:
    def test_pythagorean_example(self):
        # errors of 3 and 4 in the nets' coordinates
        assert utility(3.0 * V_SCALE, 4.0 * I_SCALE) == pytest.approx(
            math.sqrt(9.0 * K_V + 16.0 * K_I)
        )

    def test_weighted_example(self):
        # each weight applies to its own error's square
        assert utility(3.0 * V_SCALE, 0.0) == pytest.approx(3.0 * math.sqrt(K_V))
        assert utility(0.0, 4.0 * I_SCALE) == pytest.approx(4.0 * math.sqrt(K_I))
        assert (K_V, K_I) == (1.0, 0.1)

    def test_divides_first_then_weights(self):
        rng = np.random.default_rng(4)
        for e_v, e_i in rng.normal(scale=(50.0, 5.0), size=(50, 2)):
            e_v, e_i = float(e_v), float(e_i)
            v, i = e_v / V_SCALE, e_i / I_SCALE
            assert utility(e_v, e_i) == math.sqrt(K_V * v * v + K_I * i * i)

    def test_zero_at_zero_error(self):
        assert utility(0.0, 0.0) == 0.0

    def test_sign_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        for e_v, e_i in rng.normal(size=(50, 2)):
            u = utility(e_v, e_i)
            assert u >= 0.0
            assert u == pytest.approx(utility(-e_v, -e_i))


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
        assert DUTY_LIMITS == (0.05, 0.95)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=0.0),
            dict(gamma=1.0),
            dict(lr_critic=-1e-3),
            dict(lr_action=-1e-3),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HdpConfig(**kwargs)

    @pytest.mark.parametrize("key", ["lr_critic", "lr_action"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rate_rejected(self, key, rate):
        with pytest.raises(ValueError, match="learning rates must be finite"):
            HdpConfig(**{key: rate})

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
        d_min, d_max = DUTY_LIMITS
        for _ in range(5):
            ctl.action_update(a)
            y, cache = ref.forward(a)
            x = np.append(a, d_min + float(y[0]) * (d_max - d_min))
            _, critic_cache = ctl.critic.forward(x)
            dj_dx = ctl.critic.grad_input(critic_cache, np.ones(1))
            grads = ref.grad_weights(cache, [dj_dx[-1] * (d_max - d_min)])
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

    def test_critic_steps_through_td_update(self):
        # one TD step per stored transition, each writing the critic's
        # params; none on the first step, after a reset or while frozen
        ctl = self.make()
        steps = []

        def step(m, learn=True):
            before = ctl.critic.params.tobytes()
            ctl.control_step(m, learn)
            steps.append(ctl.critic.params.tobytes() != before)

        for k in range(5):
            step(meas(50.0 + k, 2.0))
        assert steps == [False] + [True] * 4
        ctl.reset_transition_buffer()
        step(meas(60.0, 2.5))
        step(meas(61.0, 2.5), learn=False)
        assert steps[5:] == [False, False]

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
        with pytest.raises(TypeError, match="control_step needs an Mlp critic"):
            ctl.run_periods(learn, PlantState(), 0.0, [], None, ([],) * 6, 1.0, 1.0, None)

    def test_topology_constants(self):
        assert CRITIC_SIZES == [5, 5, 5, 1]
        assert ACTION_SIZES == [4, 5, 5, 1]
        assert make_critic().layer_sizes == CRITIC_SIZES
        assert make_action().layer_sizes == ACTION_SIZES


class TestCopy:
    def test_a_copy_steps_on_alone(self):
        # a copy goes on from the original's nets and stored transition, as
        # a second controller that had run the same steps would, on nets of
        # its own: the original then goes on as if never copied
        ctl = HdpController(make_critic(seed=2), make_action(seed=52))
        twin = HdpController(make_critic(seed=2), make_action(seed=52))
        alone = HdpController(make_critic(seed=2), make_action(seed=52))
        first = [meas(50.0 + k, 2.0 + 0.1 * k) for k in range(3)]
        then = [meas(60.0 - k, 3.0 - 0.1 * k) for k in range(3)]
        step_all = lambda ctl, inputs: [ctl.control_step(m) for m in inputs]
        assert step_all(ctl, first) == step_all(twin, first)
        copied = copy.copy(ctl)
        start = net_bytes(ctl.critic), net_bytes(ctl.action)
        assert step_all(copied, then) == step_all(twin, then)
        assert (net_bytes(ctl.critic), net_bytes(ctl.action)) == start
        out = step_all(ctl, first)
        assert out == step_all(alone, first + first)[3:]
        assert net_bytes(ctl.critic) == net_bytes(alone.critic)
        assert net_bytes(ctl.action) == net_bytes(alone.action)


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


def keep(ctl, duty):
    return duty


class TestStoredCriticPass:
    """A learning run reruns the stored transition's critic pass once,
    before its first period, at the duty applied, and each later period
    reuses the cost-to-go pass of the period before; a control_step call
    is a run of one period.  The bits are those of recomputing every pass,
    across a nudged duty, a written critic and a reset between runs."""

    # tanh calls of one pass of either shipped net: two hidden layers of 5
    TANH_PER_PASS = 10

    def drive(self, ctl, parts, monkeypatch):
        """From the nominal equilibrium, for each (hook, learn, n) of
        `parts` in turn, run hook(ctl, duty) and then n periods: one
        run_periods call (`sim._run_periods`), or, for a reference, one
        control_step per period (`per_call_periods`).  Returns the run's
        columns as bytes and the passes of each period, critic and action,
        counted in tanh calls of the generated run (HdpControllers only;
        the passes that open a run count to its first period)."""
        run, tanhs, counts = per_call_periods, [0], []
        if isinstance(ctl, HdpController):
            run, names = sim._run_periods, ctl._generated("run").__globals__

            def counted(z, tanh=names["tanh"]):
                tanhs[0] += 1
                return tanh(z)

            monkeypatch.setitem(names, "tanh", counted)
        plant_step = sim.step

        def step(state, duty, params):
            counts.append(tanhs[0] / self.TANH_PER_PASS)
            tanhs[0] = 0
            return plant_step(state, duty, params)

        monkeypatch.setattr(sim, "step", step)
        params = PlantParams()
        state = sim.builtin_scenario("load_change", "HDP", params).initial_state
        duty, start, columns = 0.0, 0, ([], [], [], [], [], [])
        for hook, learn, n in parts:
            duty = hook(ctl, duty)
            segments = [(range(start, start + n), params.v_s, params.r_load)]
            state, duty = run(ctl, learn, state, duty, segments, params, columns)
            start += n
        monkeypatch.undo()
        return [np.array(column).tobytes() for column in columns[:5]], counts

    def run_both(self, monkeypatch, parts):
        """The passes of each period of the HdpController, after checking
        its bits against the reference's."""
        nets = lambda: (make_critic(seed=3), make_action(seed=53),
                        HdpConfig(lr_critic=1e-2, lr_action=1e-3))
        ctl, ref = HdpController(*nets()), RecomputingController(*nets())
        out, counts = self.drive(ctl, parts, monkeypatch)
        ref_out, _ = self.drive(ref, parts, monkeypatch)
        assert out == ref_out
        assert ctl.critic.params.tobytes() == ref.critic.params.tobytes()
        assert ctl.action.params.tobytes() == ref.action.params.tobytes()
        return counts

    def test_three_critic_passes_per_period_after_the_first(self, monkeypatch):
        # every learning period: the action pass before and after its step;
        # the first period also the critic's input-gradient pass and the
        # cost-to-go; then also the critic's target J(x_hat), while the
        # transition's pass is the period before's cost-to-go
        counts = self.run_both(monkeypatch, [(keep, True, 12)])
        assert counts == [2 + 2] + [3 + 2] * 11

    @pytest.mark.parametrize("hook", [keep, perturb_duty, write_params, swap_critic])
    def test_a_run_that_starts_with_a_transition_reruns_its_pass(self, monkeypatch, hook):
        counts = self.run_both(monkeypatch, [(keep, True, 6), (hook, True, 6)])
        assert counts == [2 + 2] + [3 + 2] * 5 + [4 + 2] + [3 + 2] * 5

    def test_a_reset_stores_no_pass_and_a_frozen_period_stores_its_own(self, monkeypatch):
        # after a reset the first period has no transition, so it runs
        # only its two critic passes; a frozen period runs just its action
        # pass and its cost-to-go pass, and stores its transition, whose
        # pass the learning run after it reruns
        counts = self.run_both(monkeypatch, [
            (keep, True, 6), (reset, True, 2), (keep, False, 2), (keep, True, 2),
        ])
        assert counts == [2 + 2] + [3 + 2] * 5 + [2 + 2, 3 + 2] + [1 + 1] * 2 + [4 + 2, 3 + 2]

    def test_a_control_step_reruns_the_stored_pass(self, monkeypatch):
        ctl = HdpController(make_critic(seed=3), make_action(seed=53))
        names, counts = ctl._generated("period").__globals__, []

        def counted(z, tanh=names["tanh"]):
            counts[-1] += 1
            return tanh(z)

        monkeypatch.setitem(names, "tanh", counted)
        for k in range(4):
            if k == 2:
                ctl.reset_transition_buffer()
            counts.append(0)
            ctl.control_step(meas(190.0 + k, 8.0, duty_prev=0.7))
        assert [n / self.TANH_PER_PASS for n in counts] == [2 + 2, 4 + 2, 2 + 2, 4 + 2]
