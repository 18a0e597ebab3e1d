"""Network tests: forward algebra, finite-difference gradient oracle, SGD
updates and the kernels' descent step, the flat parameter layout and its
views, a bit-level plain-Python reference, and snapshot round-trips."""

import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boosthdp.mlp import (
    MAX_KERNEL_PARAMS,
    ForwardCache,
    Mlp,
    MlpFormatError,
    MlpGradients,
    NonFiniteUpdateError,
)


def loss_given_upstream(net, x, dldy):
    """Scalar loss L = dldy . y(x); its exact gradients are what backprop returns."""
    y, _ = net.forward(x)
    return float(dldy @ y)


def fd_weight_grads(net, x, dldy, h=1e-5):
    grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            w[idx] = keep + h
            lp = loss_given_upstream(net, x, dldy)
            w[idx] = keep - h
            lm = loss_given_upstream(net, x, dldy)
            w[idx] = keep
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    for b in net.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            keep = b[idx]
            b[idx] = keep + h
            lp = loss_given_upstream(net, x, dldy)
            b[idx] = keep - h
            lm = loss_given_upstream(net, x, dldy)
            b[idx] = keep
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def fd_input_grad(net, x, dldy, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (loss_given_upstream(net, xp, dldy) - loss_given_upstream(net, xm, dldy)) / (2 * h)
    return g


class TestInit:
    def test_same_seed_bit_identical(self):
        a = Mlp.init([5, 5, 5, 1], "linear", seed=3)
        b = Mlp.init([5, 5, 5, 1], "linear", seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.dumps() == b.dumps()

    def test_critic_topology_shapes(self):
        net = Mlp.init([5, 5, 5, 1], "linear", seed=0)
        assert [w.shape for w in net.weights] == [(5, 5), (5, 5), (1, 5)]
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_action_topology_shapes(self):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=0)
        assert [w.shape for w in net.weights] == [(5, 4), (5, 5), (1, 5)]

    def test_weight_bound_respects_fan_in(self):
        net = Mlp.init([16, 8, 1], "linear", seed=1)
        assert np.max(np.abs(net.weights[0])) <= 1.0 / 4.0
        assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(8.0)

    def test_rejects_bad_sizes(self):
        for sizes in ([], [3], [3, 0, 1]):
            with pytest.raises(ValueError):
                Mlp.init(sizes, "linear", seed=0)
        with pytest.raises(ValueError):
            Mlp.init([2, 1], "relu", seed=0)


class TestForward:
    def test_zero_net_linear_outputs_zero(self):
        net = Mlp.init([3, 4, 2], "linear", seed=0)
        net.weights = [np.zeros_like(w) for w in net.weights]
        y, _ = net.forward([1.0, -2.0, 3.0])
        assert np.all(y == 0.0)

    def test_zero_net_sigmoid_outputs_half(self):
        net = Mlp.init([3, 4, 2], "sigmoid", seed=0)
        net.weights = [np.zeros_like(w) for w in net.weights]
        y, _ = net.forward([5.0, 5.0, 5.0])
        assert np.allclose(y, 0.5)

    def test_single_linear_layer_is_affine(self):
        net = Mlp.init([1, 1], "linear", seed=0)
        net.weights = [np.array([[2.5]])]
        net.biases = [np.array([0.0])]
        y, _ = net.forward([3.0])
        assert y[0] == pytest.approx(7.5)

    def test_rejects_dimension_mismatch(self):
        net = Mlp.init([3, 2], "linear", seed=0)
        with pytest.raises(ValueError):
            net.forward([1.0, 2.0])

    def test_rejects_bad_batches(self):
        net = Mlp.init([3, 4, 1], "linear", seed=0)
        for x in (np.ones((2, 2, 3)), np.ones((4, 2)), np.ones((3, 1)), 1.0):
            with pytest.raises(ValueError, match="input shape"):
                net.forward(x)

    @pytest.mark.parametrize("sizes, activation", [
        ([5, 5, 5, 1], "linear"), ([4, 5, 5, 1], "sigmoid"), ([3, 4, 2], "linear"),
    ])
    def test_batched_rows_match_single_passes(self, sizes, activation):
        # a batch is one matrix-matrix product per layer, a single input a
        # matrix-vector one; they may round differently in the last bits.
        # Each activation is compared relative to max(1, |value|), since an
        # output near zero comes from cancelling terms of order one.
        worst = 0.0
        for seed in range(20):
            net = Mlp.init(sizes, activation, seed=seed)
            xs = np.random.default_rng(seed).uniform(-3.0, 3.0, (6, sizes[0]))
            ys, cache = net.forward(xs)
            assert ys.shape == (6, sizes[-1])
            for k, x in enumerate(xs):
                _, single = net.forward(x)
                for batched, one in zip(cache.activations, single.activations):
                    dev = np.abs(batched[k] - one) / np.maximum(1.0, np.abs(one))
                    worst = max(worst, float(dev.max()))
        print(f"largest batched-vs-single deviation {worst:.2e}")
        assert worst <= 1e-15

    def test_sigmoid_overflow_gives_zero(self):
        # exp(-z) overflows for z below about -709.8: numpy's 1/(1+inf) is
        # 0.0, and the kernel maps math.exp's OverflowError to the same
        net = Mlp.init([2, 3, 1], "sigmoid", seed=0)
        net.biases = [np.zeros(3), np.array([-1000.0])]
        y, _ = net.forward([0.5, -0.5])
        assert y.tolist() == [0.0]
        with np.errstate(over="ignore"):
            ys, _ = net.forward(np.array([[0.5, -0.5], [1.0, 2.0]]))
        assert ys.tolist() == [[0.0], [0.0]]

    def test_sigmoid_output_bounded(self):
        net = Mlp.init([2, 5, 1], "sigmoid", seed=9)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-1e6, 1e6, size=2)
            y, _ = net.forward(x)
            assert 0.0 < y[0] < 1.0


class TestGradients:
    def test_zero_upstream_gives_zero_grads(self):
        net = Mlp.init([4, 5, 1], "linear", seed=2)
        x = np.array([0.3, -0.1, 0.7, 0.2])
        _, cache = net.forward(x)
        grads = net.grad_weights(cache, [0.0])
        assert all(np.all(g == 0.0) for g in grads.d_weights + grads.d_biases)
        assert np.all(net.grad_input(cache, [0.0]) == 0.0)

    def test_hand_computed_chain_rule(self):
        # two stacked affine maps: composite gradient must follow the product rule
        w1 = np.array([[1.0, 2.0], [3.0, -1.0]])
        w2 = np.array([[0.5, -2.0], [1.0, 4.0]])
        first = Mlp([2, 2], [w1.copy()], [np.zeros(2)], "linear")
        second = Mlp([2, 2], [w2.copy()], [np.zeros(2)], "linear")
        x = np.array([1.0, -1.0])
        dldy = np.array([1.0, 2.0])
        h, cache1 = first.forward(x)
        _, cache2 = second.forward(h)
        dldh = second.grad_input(cache2, dldy)
        assert np.allclose(dldh, w2.T @ dldy)
        grads1 = first.grad_weights(cache1, dldh)
        assert np.allclose(grads1.d_weights[0], np.outer(w2.T @ dldy, x))
        assert np.allclose(first.grad_input(cache1, dldh), w1.T @ w2.T @ dldy)

    def test_single_layer_input_grad_is_w_transpose(self):
        net = Mlp.init([3, 1], "linear", seed=4)
        x = np.array([0.1, 0.2, 0.3])
        _, cache = net.forward(x)
        g = net.grad_input(cache, [2.0])
        assert np.allclose(g, net.weights[0].T @ np.array([2.0]))

    def test_matches_finite_differences_on_random_nets(self):
        # the acceptance-grade oracle: 100 random (net, input, upstream) triples
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(100):
            depth = rng.integers(1, 4)
            sizes = [5] + [int(rng.integers(2, 7)) for _ in range(depth)] + [
                int(rng.integers(1, 4))
            ]
            act = "sigmoid" if trial % 3 == 0 else "linear"
            net = Mlp.init(sizes, act, seed=int(rng.integers(0, 2**31)))
            net.weights = [w * 2.0 for w in net.weights]
            net.biases = [rng.normal(0, 0.3, size=b.shape) for b in net.biases]
            x = rng.normal(0, 1.0, size=sizes[0])
            dldy = rng.normal(0, 1.0, size=sizes[-1])
            _, cache = net.forward(x)
            grads = net.grad_weights(cache, dldy)
            analytic = grads.d_weights + grads.d_biases
            numeric = fd_weight_grads(net, x, dldy)
            scale = max(max(np.max(np.abs(a)) for a in analytic), 1e-6)
            for a, n in zip(analytic, numeric):
                worst = max(worst, float(np.max(np.abs(a - n)) / scale))
            gi = net.grad_input(cache, dldy)
            ni = fd_input_grad(net, x, dldy)
            iscale = max(np.max(np.abs(gi)), 1e-6)
            worst = max(worst, float(np.max(np.abs(gi - ni)) / iscale))
        print(f"worst gradient deviation vs finite differences: {worst:.3e}")
        assert worst < 1e-6

    def test_rejects_foreign_cache(self):
        net = Mlp.init([3, 4, 1], "linear", seed=0)
        other = Mlp.init([3, 5, 1], "linear", seed=0)
        _, cache = other.forward([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            net.grad_weights(cache, [1.0])


class TestApplyUpdate:
    def test_zero_learning_rate_is_identity(self):
        net = Mlp.init([2, 3, 1], "linear", seed=5)
        x = np.array([0.4, -0.6])
        _, cache = net.forward(x)
        grads = net.grad_weights(cache, [1.0])
        before = net.dumps()
        net.apply_update(grads, 0.0)
        assert net.dumps() == before

    def test_quadratic_hand_arithmetic(self):
        # scalar net y = w*x at x=1; loss y^2 from w=1 with lr=0.1 -> w=0.8
        net = Mlp.init([1, 1], "linear", seed=0)
        net.weights = [np.array([[1.0]])]
        y, cache = net.forward([1.0])
        grads = net.grad_weights(cache, [2.0 * y[0]])
        net.apply_update(grads, 0.1)
        assert net.weights[0][0, 0] == pytest.approx(0.8)

    def test_quadratic_converges_monotonically(self):
        # loss (y - 3)^2 with y = w*x + b, x=2: curvature on y is 2(x^2+1) = 10,
        # lr=0.05 contracts the error by exactly 1/2 per step
        net = Mlp.init([1, 1], "linear", seed=0)
        net.weights = [np.array([[0.0]])]
        errs = []
        for _ in range(40):
            y, cache = net.forward([2.0])
            errs.append(abs(y[0] - 3.0))
            grads = net.grad_weights(cache, [2.0 * (y[0] - 3.0)])
            net.apply_update(grads, 0.05)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6

    def test_refuses_non_finite_update(self):
        net = Mlp.init([2, 2, 1], "linear", seed=6)
        _, cache = net.forward([1.0, 1.0])
        grads = net.grad_weights(cache, [1.0])
        grads.d_weights[0][0, 0] = np.inf
        before = net.dumps()
        with pytest.raises(NonFiniteUpdateError):
            net.apply_update(grads, 0.01)
        assert net.dumps() == before


def two_step_update(net, cache, d_output, learning_rate):
    """The reference descent step: the gradient object, then the update."""
    net.apply_update(net.grad_weights(cache, d_output), learning_rate)


def row_cache(cache, row):
    """The 1-D cache of row `row` of a batched pass."""
    return ForwardCache([a[row] for a in cache.activations])


def flat(cache):
    """The activations of a 1-D cache as the one list a kernel takes."""
    return np.concatenate(cache.activations).tolist()


def same_nets(sizes, activation, seed):
    """Two identical nets: one to step with Mlp.step, one to update in two
    steps."""
    net = Mlp.init(sizes, activation, seed=seed)
    net.biases = [
        np.random.default_rng(seed).normal(0.0, 0.3, size=b.shape) for b in net.biases
    ]
    return net, net.copy()


NET_SHAPES = st.tuples(
    st.lists(st.integers(1, 6), min_size=2, max_size=4),
    st.sampled_from(["linear", "sigmoid"]),
    st.integers(0, 2**16),
)


class TestDescend:
    """Mlp.step on a kernel pass is the gradient object of the pass's 1-D
    cache, then the update, bit for bit, for any net shape."""

    @settings(max_examples=80, deadline=None)
    @given(shape=NET_SHAPES, batch=st.integers(1, 4),
           rates=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_bit_identical_to_grad_weights_then_apply_update(self, shape, batch, rates):
        sizes, activation, seed = shape
        net, ref = same_nets(sizes, activation, seed)
        rng = np.random.default_rng(seed + 1)
        for lr in rates:
            d_out = rng.normal(0.0, 1.0, size=sizes[-1])
            # a kernel pass against a 1-D pass
            x = rng.uniform(-2.0, 2.0, size=sizes[0])
            p = net.params.tolist()
            new = net.step(p, net.kernels.forward(p, x.tolist()), d_out.tolist(), lr)
            net.params[:] = new
            _, ref_cache = ref.forward(x)
            two_step_update(ref, ref_cache, d_out, lr)
            assert net.params.tobytes() == ref.params.tobytes()
            assert new == net.params.tolist()
            # row 0 of a batched pass against that row's 1-D cache
            xs = rng.uniform(-2.0, 2.0, size=(batch, sizes[0]))
            _, cache = net.forward(xs)
            net.params[:] = net.step(new, flat(row_cache(cache, 0)), d_out.tolist(), lr)
            _, ref_cache = ref.forward(xs)
            two_step_update(ref, row_cache(ref_cache, 0), d_out, lr)
            assert net.params.tobytes() == ref.params.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=NET_SHAPES, bad=st.sampled_from(["inf output", "nan output", "inf rate"]))
    def test_refused_step_leaves_net_and_workspace_clean(self, shape, bad):
        sizes, activation, seed = shape
        net, ref = same_nets(sizes, activation, seed)
        rng = np.random.default_rng(seed + 2)
        x = rng.uniform(-2.0, 2.0, size=sizes[0])
        d_bad = [{"inf output": np.inf, "nan output": np.nan}.get(bad, 1.0)] * sizes[-1]
        lr = np.inf if bad == "inf rate" else 0.1
        before = net.params.tobytes()
        _, cache = net.forward(x)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdateError):
            two_step_update(net, cache, d_bad, lr)
        assert net.params.tobytes() == before
        p = net.params.tolist()
        acts = net.kernels.forward(p, x.tolist())
        with pytest.raises(NonFiniteUpdateError):
            net.step(p, acts, d_bad, lr)
        assert net.params.tobytes() == before
        # the next valid step on the same pass is the reference step, not
        # one mixed with the refused step's leftovers
        d_out = rng.normal(0.0, 1.0, size=sizes[-1])
        net.params[:] = net.step(p, acts, d_out.tolist(), 0.1)
        _, ref_cache = ref.forward(x)
        two_step_update(ref, ref_cache, d_out, 0.1)
        assert net.params.tobytes() == ref.params.tobytes()

    def test_rejects_foreign_caches_and_shapes(self):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=3)
        _, single = net.forward(np.zeros(4))
        _, batch = net.forward(np.zeros((3, 4)))
        _, foreign = Mlp.init([4, 3, 1], "sigmoid").forward(np.zeros(4))
        before = net.params.tobytes()
        for backward in (net.grad_weights, net.grad_input):
            for cache in (batch, foreign):
                with pytest.raises(ValueError, match="cache"):
                    backward(cache, [1.0])
            with pytest.raises(ValueError, match="d_output"):
                backward(single, [1.0, 2.0])
        assert net.params.tobytes() == before


class TestStep:
    """`Mlp.params` is the one source of truth: the kernels read it as a
    list, and Mlp.step returns a step as a list, which its caller writes
    back into it."""

    def test_sees_every_parameter_write(self):
        net = Mlp.init([5, 5, 5, 1], "linear", seed=7)
        x = np.random.default_rng(7).uniform(-1.0, 1.0, 5)
        p = net.params.tolist()
        acts = net.kernels.forward(p, x.tolist())
        new = net.step(p, acts, [0.5], 0.1)
        assert net.params.tolist() == p != new
        net.params[:] = new
        assert net.forward(x)[0].tolist() == net.kernels.forward(new, x.tolist())[-1:]
        net.params[...] += 0.125
        y, _ = net.forward(x)
        assert y.tolist() == net.kernels.forward(net.params.tolist(), x.tolist())[-1:]
        assert y.tolist() != acts[-1:]

    def test_one_kernel_set_per_topology(self):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=1)
        # the same compiled functions; a different topology shares none
        def same(a, b):
            return [fa is fb for fa, fb in zip(a.kernels, b.kernels)]

        assert same(Mlp.init([4, 5, 5, 1], "sigmoid", seed=2), net) == [True] * 4
        assert same(net.copy(), net) == [True] * 4
        assert same(Mlp.init([4, 5, 5, 1], "linear"), net) == [False] * 4
        assert same(Mlp.init([4, 5, 1], "sigmoid"), net) == [False] * 4

    def test_net_too_large_for_kernels_still_loads_and_runs_batched(self):
        # a layer a few thousand units wide: its sums would nest too deep
        # for CPython's compiler, and the kernels are generated on first use
        net = Mlp.loads(Mlp.init([5, 4000, 1], "linear", seed=0).dumps())
        assert net.params.size == 28001 > MAX_KERNEL_PARAMS
        xs = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 5))
        assert net.forward(xs)[0].shape == (3, 1)
        with pytest.raises(ValueError, match="5-4000-1 net has 28001 parameters"):
            net.forward(xs[0])


def per_sample_fit(net, order, xs, goals, lr):
    """Mlp.fit_epoch as a loop over the per-sample kernels and Mlp.step,
    written into params at the end."""
    p, sq_sum = net.params.tolist(), 0.0
    for k in order:
        acts = net.kernels.forward(p, xs[k])
        err = acts[-1] - goals[k]
        p = net.step(p, acts, (err,), lr)
        sq_sum += err * err
    net.params[:] = p
    return sq_sum


def per_sample_td(net, order, xs, xs_next, us, gamma, lr):
    """Mlp.td_epoch as a loop over the per-sample kernels and Mlp.step,
    written into params at the end."""
    p, sq_sum = net.params.tolist(), 0.0
    for k in order:
        target = net.kernels.forward(p, xs_next[k])[-1]
        acts = net.kernels.forward(p, xs[k])
        p = net.step(p, acts, (acts[-1] - gamma * target - us[k],), lr)
        resid = net.kernels.forward(p, xs[k])[-1] - gamma * target - us[k]
        sq_sum += resid * resid
    net.params[:] = p
    return sq_sum


class TestEpochKernels:
    """Mlp.fit_epoch and Mlp.td_epoch run a whole sweep in one generated
    function; each must give the bits of the per-sample loop."""

    @pytest.mark.parametrize("sizes", [[1, 1], [4, 5, 5, 1], [5, 5, 5, 1], [3, 4, 2, 1]])
    @pytest.mark.parametrize("activation", ["linear", "sigmoid"])
    def test_bit_identical_to_the_per_sample_loop(self, sizes, activation):
        self.check_both_sweeps(sizes, activation, n=40)

    def test_largest_kernel_net_compiles_and_runs(self):
        # 5-140-1 has 981 parameters: its finiteness sum is 981 terms long
        assert 981 <= MAX_KERNEL_PARAMS
        self.check_both_sweeps([5, 140, 1], "sigmoid", n=3)
        self.check_both_sweeps([5, 140, 1], "linear", n=3)

    def check_both_sweeps(self, sizes, activation, n):
        rng = np.random.default_rng(len(sizes))
        xs = rng.uniform(-1.0, 1.0, (n, sizes[0])).tolist()
        xs_next = rng.uniform(-1.0, 1.0, (n, sizes[0])).tolist()
        goals = rng.uniform(0.1, 0.9, n).tolist()
        order = rng.permutation(n).tolist()
        net, ref = Mlp.init(sizes, activation, seed=1), Mlp.init(sizes, activation, seed=1)
        assert net.fit_epoch(order, xs, goals, 0.3) == per_sample_fit(ref, order, xs, goals, 0.3)
        assert net.params.tobytes() == ref.params.tobytes()
        assert (net.td_epoch(order, xs, xs_next, goals, 0.85, 0.05)
                == per_sample_td(ref, order, xs, xs_next, goals, 0.85, 0.05))
        assert net.params.tobytes() == ref.params.tobytes()

    def test_multi_output_net_rejected(self):
        with pytest.raises(ValueError, match="single-output"):
            Mlp.init([2, 3, 2], "linear").fit_epoch([0], [[0.0, 0.0]], [0.0], 0.1)


def overflowing_net():
    """A 1-1 linear net of two finite parameters whose sum overflows."""
    net = Mlp.init([1, 1], "linear")
    net.params[:] = [1e308, 1e308]
    return net


def opposite_infinities_net():
    """A 2-1 linear net and an input on which a step at rate 1e10 makes one
    weight +inf and the other -inf, whose sum is NaN."""
    net = Mlp.init([2, 1], "linear")
    net.params[:] = [0.5, 0.25, 0.0]
    return net, [1e308, -1e308]


class TestFiniteness:
    """A step is refused exactly when a new parameter is not finite, on the
    per-sample step and on both epoch kernels."""

    def test_step_accepts_parameters_whose_sum_overflows(self):
        net = overflowing_net()
        p = net.params.tolist()
        assert net.step(p, net.kernels.forward(p, [0.0]), [0.0], 0.1) == [1e308, 1e308]

    def test_epoch_kernels_accept_parameters_whose_sum_overflows(self):
        net = overflowing_net()
        # zero error, so each step writes the same two parameters
        assert net.fit_epoch([0], [[0.0]], [1e308], 0.1) == 0.0
        assert net.td_epoch([0], [[0.0]], [[0.0]], [0.5 * 1e308], 0.5, 0.1) == 0.0
        assert net.params.tolist() == [1e308, 1e308]

    def test_step_refuses_opposite_infinities(self):
        net, x = opposite_infinities_net()
        before = net.params.tobytes()
        p = net.params.tolist()
        acts = net.kernels.forward(p, x)
        grads = net.kernels.gradient(p, acts, [1.0])
        assert math.isnan(sum(pk - gk * 1e10 for pk, gk in zip(p, grads)))
        assert net.kernels.step(p, acts, [1.0], 1e10) is None
        with pytest.raises(NonFiniteUpdateError):
            net.step(p, net.kernels.forward(p, x), [1.0], 1e10)
        assert net.params.tobytes() == before

    def test_epoch_kernels_refuse_opposite_infinities(self):
        net, x = opposite_infinities_net()
        before = net.params.tobytes()
        with pytest.raises(NonFiniteUpdateError):
            net.fit_epoch([0], [x], [0.0], 1e10)
        assert net.params.tobytes() == before
        with pytest.raises(NonFiniteUpdateError):
            net.td_epoch([0], [x], [[0.0, 0.0]], [0.0], 0.5, 1e10)
        assert net.params.tobytes() == before

    def test_refused_step_mid_sweep_keeps_the_last_accepted_step(self):
        net, x = opposite_infinities_net()
        ref = net.copy()
        with pytest.raises(NonFiniteUpdateError):
            net.fit_epoch([0, 1, 0], [[0.5, 0.5], x], [0.2, 0.0], 0.1)
        per_sample_fit(ref, [0], [[0.5, 0.5]], [0.2], 0.1)
        assert net.params.tobytes() == ref.params.tobytes()


# --- per-layer reference ---------------------------------------------------
# A direct per-layer transcription of forward, backward and the SGD step in
# plain Python floats: every unit's sum runs left to right over its inputs
# and adds the bias last, the summation order of the generated kernels.
# The Mlp must agree with it bit for bit.


def ordered_sum(terms):
    """terms[0] + terms[1] + ..., left to right (builtin sum starts from 0
    and may compensate)."""
    return reduce(operator.add, terms)


def ref_forward(weights, biases, output_activation, x):
    a = [float(v) for v in x]
    activations = [a]
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = [ordered_sum([wij * aj for wij, aj in zip(row, a)] + [bias])
             for row, bias in zip(w, b)]
        if layer < last:
            a = [math.tanh(v) for v in z]
        elif output_activation == "sigmoid":
            a = [1.0 / (1.0 + math.exp(-v)) for v in z]
        else:
            a = z
        activations.append(a)
    return a, activations


def ref_backward(weights, output_activation, activations, d_output):
    delta = [float(d) for d in d_output]
    if output_activation == "sigmoid":
        delta = [d * y * (1.0 - y) for d, y in zip(delta, activations[-1])]
    d_weights = [None] * len(weights)
    d_biases = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        d_weights[layer] = [[d * a for a in activations[layer]] for d in delta]
        d_biases[layer] = delta
        w = weights[layer]
        back = [ordered_sum([w[i][j] * d for i, d in enumerate(delta)])
                for j in range(len(w[0]))]
        if layer > 0:
            back = [g * (1.0 - h * h) for g, h in zip(back, activations[layer])]
        delta = back
    return d_weights, d_biases, delta


def ref_update(values, grads, lr):
    """v - g*lr over nested lists."""
    if isinstance(values, list):
        return [ref_update(v, g, lr) for v, g in zip(values, grads)]
    return values - grads * lr


class TestPerLayerReference:
    @pytest.mark.parametrize("output_activation", ["linear", "sigmoid"])
    @pytest.mark.parametrize("sizes", [[5, 5, 5, 1], [4, 5, 5, 1]])
    def test_bit_identical_over_sgd_steps(self, sizes, output_activation):
        rng = np.random.default_rng(sum(sizes) + len(output_activation))
        for seed in range(5):
            net = Mlp.init(sizes, output_activation, seed=seed)
            net.biases = [rng.normal(0.0, 0.3, size=b.shape) for b in net.biases]
            ref_w = [w.tolist() for w in net.weights]
            ref_b = [b.tolist() for b in net.biases]
            for _ in range(20):
                x = rng.normal(0.0, 1.0, size=sizes[0])
                dldy = rng.normal(0.0, 1.0, size=sizes[-1])
                lr = float(rng.uniform(0.0, 0.5))
                y, cache = net.forward(x)
                ref_y, ref_acts = ref_forward(ref_w, ref_b, output_activation, x)
                assert y.tolist() == ref_y
                assert [a.tolist() for a in cache.activations] == ref_acts
                grads = net.grad_weights(cache, dldy)
                ref_dw, ref_db, ref_dx = ref_backward(ref_w, output_activation, ref_acts, dldy)
                for got, want in zip(grads.d_weights + grads.d_biases, ref_dw + ref_db):
                    assert got.tolist() == want
                assert net.grad_input(cache, dldy).tolist() == ref_dx
                net.apply_update(grads, lr)
                ref_w, ref_b = ref_update(ref_w, ref_dw, lr), ref_update(ref_b, ref_db, lr)
                for got, want in zip(net.weights + net.biases, ref_w + ref_b):
                    assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.sampled_from([[5, 5, 5, 1], [4, 5, 5, 1]]),
                           st.sampled_from(["linear", "sigmoid"]),
                           st.integers(0, 2**16)),
           k=st.sampled_from([1, 3]))
    def test_input_gradient_bit_identical_on_every_row(self, shape, k):
        sizes, activation, seed = shape
        net, _ = same_nets(sizes, activation, seed)
        rng = np.random.default_rng(seed + 5)
        xs = rng.uniform(-2.0, 2.0, size=(k, sizes[0]))
        # the rows of a batched pass, each run backward as a 1-D cache
        _, cache = net.forward(xs)
        weights = [w.tolist() for w in net.weights]
        for row in range(k):
            d_out = float(rng.normal(0.0, 1.0))
            acts = [a[row].tolist() for a in cache.activations]
            ref_dx = ref_backward(weights, activation, acts, [d_out])[2]
            assert net.grad_input(row_cache(cache, row), [d_out]).tolist() == ref_dx
            p = net.params.tolist()
            assert net.kernels.input_gradient(p, sum(acts, []), [d_out]) == ref_dx


class TestFlatParameters:
    def test_layout_is_snapshot_row_order(self):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=3)
        net.biases = [b + 0.25 for b in net.biases]
        rows = [[float(v) for v in ln.split()] for ln in net.dumps().splitlines()[3:]]
        assert net.params.tolist() == [v for row in rows for v in row]

    def test_views_write_through(self):
        net = Mlp.init([5, 5, 5, 1], "linear", seed=1)
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.params)
        net.weights[1][2, 3] = 7.0
        net.biases[2][0] = -3.0
        assert net.params[5 * 5 + 5 + 2 * 5 + 3] == 7.0
        assert net.params[-1] == -3.0

    def test_gradient_views_share_flat_vector(self):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=2)
        _, cache = net.forward(np.ones(4))
        grads = net.grad_weights(cache, [1.0])
        assert grads.flat.shape == net.params.shape
        for view, param in zip(grads.d_weights + grads.d_biases, net.weights + net.biases):
            assert view.shape == param.shape
            assert np.shares_memory(view, grads.flat)

    def test_copy_shares_no_memory(self):
        net = Mlp.init([5, 5, 5, 1], "linear", seed=4)
        dup = net.copy()
        assert np.array_equal(dup.params, net.params)
        for a in [net.params] + net.weights + net.biases:
            for b in [dup.params] + dup.weights + dup.biases:
                assert not np.shares_memory(a, b)
        dup.weights[0][0, 0] += 1.0
        assert dup.dumps() != net.dumps()

    def test_constructor_copies_its_arrays(self):
        w = [np.array([[2.0, -1.0]])]
        b = [np.array([0.5])]
        net = Mlp([2, 1], w, b, "linear")
        w[0][0, 0] = 99.0
        b[0][0] = 99.0
        assert net.params.tolist() == [2.0, -1.0, 0.5]

    def test_refused_update_leaves_params_and_views_unchanged(self):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=6)
        _, cache = net.forward(np.full(4, 0.5))
        grads = net.grad_weights(cache, [1.0])
        grads.d_biases[1][2] = np.nan
        params, views = net.params, net.weights + net.biases
        before = [a.copy() for a in [params] + views]
        with pytest.raises(NonFiniteUpdateError):
            net.apply_update(grads, 0.1)
        assert net.params is params
        for arr, keep in zip([net.params] + net.weights + net.biases, before):
            assert np.array_equal(arr, keep)
        for view in views:
            assert np.shares_memory(view, net.params)

    def test_setters_reject_wrong_shape(self):
        net = Mlp.init([5, 5, 5, 1], "linear", seed=8)
        before = net.params.copy()
        with pytest.raises(ValueError, match="layer 2"):
            net.weights = [np.zeros((5, 5)), np.zeros((5, 5)), np.zeros((5, 1))]
        with pytest.raises(ValueError, match="layer 0"):
            net.biases = [np.zeros(4), np.zeros(5), np.zeros(1)]
        with pytest.raises(ValueError):
            net.weights = [np.zeros((5, 5)), np.zeros((5, 5))]
        assert np.array_equal(net.params, before)

    def test_update_rejects_foreign_gradients(self):
        net = Mlp.init([3, 4, 1], "linear", seed=0)
        other = Mlp.init([3, 5, 1], "linear", seed=0)
        _, cache = other.forward([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            net.apply_update(other.grad_weights(cache, [1.0]), 0.1)


class TestSnapshot:
    def test_round_trip_identity(self, tmp_path):
        net = Mlp.init([4, 5, 5, 1], "sigmoid", seed=7)
        net.biases = [b + 0.123456789123456789 for b in net.biases]
        path = tmp_path / "net.mlp"
        net.save(path)
        back = Mlp.load(path)
        assert back.layer_sizes == net.layer_sizes
        assert back.output_activation == net.output_activation
        for w1, w2 in zip(net.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(net.biases, back.biases):
            assert np.array_equal(b1, b2)
        assert back.dumps() == net.dumps()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "net.mlp"
        Mlp.init([3, 4, 1], "linear", seed=1).save(path)
        before = path.read_bytes()

        def broken_dumps(self):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(Mlp, "dumps", broken_dumps)
        with pytest.raises(RuntimeError, match="serializer failed"):
            Mlp.init([3, 4, 1], "linear", seed=2).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.mlp"]

    def test_load_save_matches_fresh_init(self, tmp_path):
        path = tmp_path / "net.mlp"
        Mlp.init([5, 5, 5, 1], "linear", seed=7).save(path)
        assert Mlp.load(path).dumps() == Mlp.init([5, 5, 5, 1], "linear", seed=7).dumps()

    def test_truncated_file_rejected(self, tmp_path):
        net = Mlp.init([3, 4, 1], "linear", seed=1)
        text = net.dumps()
        lines = text.splitlines()
        path = tmp_path / "broken.mlp"
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MlpFormatError, match="parameter rows"):
            Mlp.load(path)

    def test_bad_header_and_values_rejected(self):
        with pytest.raises(MlpFormatError, match="line 1"):
            Mlp.loads("nope\n")
        net = Mlp.init([2, 1], "linear", seed=0)
        text = net.dumps().replace(repr(float(net.weights[0][0, 0])), "bogus", 1)
        with pytest.raises(MlpFormatError, match="line 4"):
            Mlp.loads(text)

    def test_non_finite_value_rejected(self):
        net = Mlp.init([2, 1], "linear", seed=0)
        text = net.dumps().replace(repr(float(net.weights[0][0, 1])), "nan", 1)
        with pytest.raises(MlpFormatError, match="line 4: non-finite"):
            Mlp.loads(text)

    def test_load_error_names_file(self, tmp_path):
        path = tmp_path / "critic.mlp"
        path.write_text(Mlp.init([3, 4, 1], "linear", seed=1).dumps()[:40])
        with pytest.raises(MlpFormatError, match="critic.mlp: line"):
            Mlp.load(path)
        path.write_bytes(b"mlp v1\n\xff\xfe\n")
        with pytest.raises(MlpFormatError, match="not a text snapshot"):
            Mlp.load(path)

    def test_wrong_row_length_rejected(self):
        net = Mlp.init([2, 1], "linear", seed=0)
        lines = net.dumps().splitlines()
        lines[3] = lines[3] + " 0.5"
        with pytest.raises(MlpFormatError, match="expected 3 values"):
            Mlp.loads("\n".join(lines) + "\n")


class TestDeterminism:
    def test_outputs_and_grads_reproducible(self):
        results = []
        for _ in range(2):
            net = Mlp.init([5, 5, 5, 1], "linear", seed=11)
            x = np.linspace(-1.0, 1.0, 5)
            y, cache = net.forward(x)
            grads = net.grad_weights(cache, [1.0])
            results.append((y.tobytes(), grads.d_weights[0].tobytes(), net.dumps()))
        assert results[0] == results[1]
