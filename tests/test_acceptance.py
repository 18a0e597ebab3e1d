"""Acceptance battery: ten end-to-end checks on the shipped package.

Each test prints one `criterion N: PASS/FAIL` line carrying the measured
numbers next to the fixed tolerances, then asserts on the same booleans.
The first six check component physics and learning mechanics against
independent oracles; the last four run the full offline pipeline at the
shipped defaults and hold the closed-loop results to fixed bars.
"""

import math
import time

import numpy as np
import pytest

from boosthdp import cli
from boosthdp.baseline import PiController
from boosthdp.hdp import HdpConfig, HdpController, make_action, make_critic
from boosthdp.mlp import Mlp
from boosthdp.plant import PlantParams, PlantState, step, step_averaged
from boosthdp.sim import (
    baseline_for_scenario,
    builtin_scenario,
    clone_action,
    generate_excitation_log,
    make_reference_law,
    pretrain_critic,
    run_scenario,
    train_critic_on_log,
)


def report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# full-budget pipeline shared by criteria 7-10

SCENARIOS = ("startup", "load_change", "input_change")


@pytest.fixture(scope="module")
def shipped():
    """Offline pipeline at shipped defaults plus all six scenario runs."""
    params = PlantParams()
    cfg = HdpConfig()
    teacher = make_reference_law(params, hdp_config=cfg)
    t0 = time.perf_counter()
    log = generate_excitation_log(teacher, params, cfg, seed=0)
    critic, history = pretrain_critic(log, cfg, seed=0)
    action = make_action(seed=0)
    clone_mse = clone_action(action, log, cfg, seed=2)
    train_wall = time.perf_counter() - t0
    print(
        f"pipeline: {len(log)} transitions, {len(history) - 1} critic epochs, "
        f"clone mse {clone_mse:.2e}, {train_wall:.0f} s"
    )
    metrics = {}
    for scenario in SCENARIOS:
        for tag in ("PI", "HDP"):
            spec = builtin_scenario(scenario, tag, params)
            if tag == "PI":
                controller = baseline_for_scenario(spec, params)
            else:
                controller = HdpController(critic.copy(), action.copy(), cfg)
            _, m = run_scenario(spec, controller, params, cfg)
            metrics[scenario, tag] = m
    return {"history": history, "metrics": metrics}


# ---------------------------------------------------------------------------
# component criteria


def test_criterion_01_lossless_converter_steady_state():
    # fixed duty 0.7 on the lossless plant must settle onto the ideal
    # conversion ratio 60 / (1 - 0.7) = 200 V, with the waveform-average
    # energy books balancing once storage change is accounted for
    params = PlantParams(r_l=0.0)
    state = PlantState()
    n, tail = 8000, 1000  # 400 ms total, measure the last 50 ms
    e_in = e_out = store_0 = 0.0
    means = []
    t0 = time.perf_counter()
    for k in range(n):
        if k == n - tail:
            store_0 = (
                0.5 * params.l_ind * state.i_l**2 + 0.5 * params.c_out * state.v_o**2
            )
        state, (m_i, m_v, m_v2) = step_averaged(state, 0.7, params)
        if k >= n - tail:
            e_in += params.v_s * m_i * params.t_sw
            e_out += m_v2 / params.r_load * params.t_sw
            means.append(m_v)
    wall = time.perf_counter() - t0
    store_1 = 0.5 * params.l_ind * state.i_l**2 + 0.5 * params.c_out * state.v_o**2
    mean_v = sum(means) / len(means)
    imbalance = abs(e_in - e_out - (store_1 - store_0)) / e_in
    rate = wall / (n * params.t_sw / 0.1)  # seconds per 100 ms simulated
    ok = abs(mean_v - 200.0) <= 4.0 and imbalance <= 0.01 and rate < 1.0
    report(
        1, ok,
        f"mean v_o {mean_v:.2f} V (200 +/- 4), energy imbalance "
        f"{imbalance * 100:.3f}% (<= 1%), {rate:.2f} s per 100 ms (< 1)",
    )


def test_criterion_02_integrator_convergence_order():
    # Richardson triplet on a strictly continuous-conduction segment; the
    # base dt is coarse so truncation error dominates roundoff
    def run(dt):
        p = PlantParams(dt=dt)
        s = PlantState(i_l=25.0 / 3.0, v_o=200.0)
        min_i = s.i_l
        for _ in range(200):  # 10 ms
            s = step(s, 0.7, p)
            min_i = min(min_i, s.i_l)
        return s, min_i

    base = PlantParams().t_sw / 10.0
    (s1, m1), (s2, m2), (s4, m4) = run(base), run(base / 2.0), run(base / 4.0)
    assert min(m1, m2, m4) > 1.0  # stayed clear of the zero-current clamp
    e1 = math.hypot(s1.i_l - s2.i_l, s1.v_o - s2.v_o)
    e2 = math.hypot(s2.i_l - s4.i_l, s2.v_o - s4.v_o)
    order = math.log2(e1 / e2)
    report(2, order >= 3.5, f"observed convergence order {order:.2f} (>= 3.5)")


def _loss(net, x, dldy):
    y, _ = net.forward(x)
    return float(np.dot(dldy, y))


def test_criterion_03_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 2)]
        act = "sigmoid" if trial % 2 == 0 else "linear"
        net = Mlp.init(sizes, act, seed=int(rng.integers(0, 2**31)))
        net.biases = [rng.normal(0.0, 0.3, size=b.shape) for b in net.biases]
        x = rng.normal(0.0, 1.0, size=sizes[0])
        dldy = rng.normal(0.0, 1.0, size=sizes[-1])
        _, cache = net.forward(x)
        grads = net.grad_weights(cache, dldy)
        analytic = grads.d_weights + grads.d_biases
        scale = max(max(np.max(np.abs(g)) for g in analytic), 1e-6)
        for arr, g in zip(net.weights + net.biases, analytic):
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + h
                up = _loss(net, x, dldy)
                arr[idx] = keep - h
                down = _loss(net, x, dldy)
                arr[idx] = keep
                fd[idx] = (up - down) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(g - fd)) / scale))
        gi = net.grad_input(cache, dldy)
        fd_x = np.zeros_like(x)
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd_x[i] = (_loss(net, xp, dldy) - _loss(net, xm, dldy)) / (2.0 * h)
        iscale = max(float(np.max(np.abs(gi))), 1e-6)
        worst = max(worst, float(np.max(np.abs(gi - fd_x)) / iscale))
    report(3, worst < 1e-6, f"max relative gradient error {worst:.2e} (< 1e-6)")


def test_criterion_04_critic_reaches_tabular_fixed_point():
    # two mutually-linked states with constant cost: the discounted sum is
    # the geometric series u / (1 - gamma) at both states
    cfg = HdpConfig(gamma=0.85, lr_critic=0.05)
    u = 0.3
    x_a = np.array([0.2, 0.1, 0.1, 0.0, 0.5])
    x_b = np.array([0.8, 0.4, -0.1, 0.1, 0.7])
    log = [(x_a, x_b, u), (x_b, x_a, u)]
    critic = make_critic(seed=0)
    hist = train_critic_on_log(
        critic, log, cfg, max_epochs=400,
        require_initial_decrease=False, plateau_rtol=0.0, lr_decay_epochs=0.0,
    )
    target = u / (1.0 - cfg.gamma)
    j_a = float(critic.forward(x_a)[0][0])
    j_b = float(critic.forward(x_b)[0][0])
    value_err = max(abs(j_a - target), abs(j_b - target))
    ok = value_err <= 1e-2 and hist[-1] < 1e-3
    report(
        4, ok,
        f"J=({j_a:.4f}, {j_b:.4f}) vs {target:.4f} (+/- 1e-2), "
        f"final residual {hist[-1]:.2e} (< 1e-3)",
    )


class _QuadraticCritic:
    """Frozen synthetic cost (duty - 0.7)^2 with the critic interface."""

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([(x[4] - 0.7) ** 2]), x.copy()

    def grad_input(self, cache, d_out):
        g = np.zeros(5)
        g[4] = 2.0 * (cache[4] - 0.7)
        return float(d_out[0]) * g


def test_criterion_05_action_descends_to_known_optimum():
    controller = HdpController(
        _QuadraticCritic(), make_action(seed=0), HdpConfig(lr_action=0.05)
    )
    probe = np.array([0.5, 0.3, 0.5, 0.2])
    first_inside = None
    for k in range(10_000):
        controller.action_update(probe)
        if first_inside is None and abs(controller.duty_from_action(probe) - 0.7) <= 0.01:
            first_inside = k + 1
    duty = controller.duty_from_action(probe)
    ok = abs(duty - 0.7) <= 0.01
    report(
        5, ok,
        f"duty {duty:.4f} (0.7 +/- 0.01), inside after "
        f"{first_inside if first_inside is not None else '>10000'} updates",
    )


FAST_PIPELINE = """\
[pretrain]
n_episodes = 1
n_holds = 3
max_epochs = 8
clone_epochs = 3
"""


def test_criterion_06_seeded_runs_reproduce_bytes(tmp_path):
    config = tmp_path / "fast.ini"
    config.write_text(FAST_PIPELINE)
    snapshot_names = ("critic.mlp", "action.mlp", "pretrain_residuals.csv")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli.main(
            ["pretrain", "--config", str(config), "--out", str(out), "--seed", "5"]
        )
        assert rc == 0
        rc = cli.main(
            ["run", "load_change", "HDP", "--config", str(config),
             "--out", str(out), "--seed", "5"]
        )
        assert rc == 0
        outs.append(out)
    same = {
        name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in snapshot_names + ("load_change_HDP.csv",)
    }
    trace_len = (outs[0] / "load_change_HDP.csv").stat().st_size
    report(
        6, all(same.values()),
        f"snapshots and {trace_len}-byte trace byte-identical across "
        f"repeated seeded runs: {same}",
    )


# ---------------------------------------------------------------------------
# closed-loop criteria at shipped defaults


def test_criterion_07_startup(shipped):
    hdp = shipped["metrics"]["startup", "HDP"]
    pi = shipped["metrics"]["startup", "PI"]
    ok = (
        hdp.settling_time <= 10e-3
        and hdp.overshoot <= 6.0
        and pi.settling_time >= 1.5 * hdp.settling_time
        and pi.overshoot > hdp.overshoot
    )
    report(
        7, ok,
        f"HDP settles {hdp.settling_time * 1e3:.2f} ms (<= 10) overshoot "
        f"{hdp.overshoot:.2f}% (<= 6); PI {pi.settling_time * 1e3:.2f} ms "
        f"(>= {1.5 * hdp.settling_time * 1e3:.2f}) overshoot {pi.overshoot:.2f}%"
        f" (> HDP)",
    )


def test_criterion_08_load_step(shipped):
    hdp = shipped["metrics"]["load_change", "HDP"]
    pi = shipped["metrics"]["load_change", "PI"]
    ok = (
        hdp.settling_time <= 10e-3
        and not hdp.oscillation
        and not hdp.unsettled
        and hdp.iae < pi.iae
    )
    report(
        8, ok,
        f"HDP back in band {hdp.settling_time * 1e3:.2f} ms after the step "
        f"(<= 10), oscillation {hdp.oscillation}; IAE {hdp.iae:.4f} < PI "
        f"{pi.iae:.4f}",
    )


def test_criterion_09_source_step(shipped):
    hdp = shipped["metrics"]["input_change", "HDP"]
    pi = shipped["metrics"]["input_change", "PI"]
    recovered = (
        not hdp.unsettled
        and not pi.unsettled
        and abs(hdp.steady_state_error) <= 4.0
        and abs(pi.steady_state_error) <= 4.0
    )
    ok = recovered and hdp.iae < pi.iae and hdp.peak_deviation <= pi.peak_deviation
    report(
        9, ok,
        f"recovered to 200 +/- 4 V (HDP {hdp.steady_state_error:+.2f}, PI "
        f"{pi.steady_state_error:+.2f}); IAE {hdp.iae:.4f} < {pi.iae:.4f}; "
        f"peak {hdp.peak_deviation:.2f} <= {pi.peak_deviation:.2f} V",
    )


def test_criterion_10_pretraining_residual_trend(shipped):
    hist = shipped["history"]
    longest = run = 0
    for a, b in zip(hist, hist[1:]):
        run = run + 1 if b < a else 0
        longest = max(longest, run)
    ratio = hist[0] / hist[-1]
    ok = longest >= 5 and ratio >= 10.0
    report(
        10, ok,
        f"residual {hist[0]:.4f} -> {hist[-1]:.5f} over {len(hist) - 1} "
        f"epochs, ratio {ratio:.1f} (>= 10), longest decreasing run "
        f"{longest} (>= 5)",
    )
