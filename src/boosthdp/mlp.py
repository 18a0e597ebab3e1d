"""Minimal fully connected feedforward network.

Just enough machinery for the neuro-controller: tanh hidden layers, a linear
or sigmoid output, exact reverse-mode gradients with respect to both the
parameters and the input, plain SGD updates, and a text snapshot format.
Everything is double precision numpy.  Nets are small (a handful of units per
layer); `forward` also takes a batch of inputs as rows, so that callers
evaluating several points at the same weights pay numpy's per-call overhead
once, and `ForwardCache.row` (or `descend`'s `row`) hands one row of such a
pass to the backward pass.  Gradients are per sample.

Parameter layout: every parameter of a net lives in one contiguous vector,
`Mlp.params`.  Layer by layer it holds the weight matrix row-major (shape
fan_out x fan_in), then the bias vector - the same order as the snapshot's
parameter rows.  `Mlp.weights` and `Mlp.biases` are per-layer views of that
vector, and `MlpGradients.flat` uses the same layout, so an SGD step is one
vector operation followed by one finiteness check.

At these sizes numpy's per-call overhead costs more than the arithmetic, so
the hot paths make as few numpy calls as they can: all weight and bias
gradients are gathered by one elementwise product, and `grad_input` runs its
own backward pass without them.  `descend` is one SGD step in a per-net
workspace: it builds no gradient object, row cache or concatenated array,
and `grad_weights` / `apply_update` share its backward pass and commit.
Every product and sum is still the one a per-layer implementation computes,
so results are bit-identical to it (tests/test_mlp.py keeps such an
implementation as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atomic import atomic_write

__all__ = [
    "Mlp",
    "MlpGradients",
    "ForwardCache",
    "MlpFormatError",
    "NonFiniteUpdateError",
]

_ACTIVATIONS = ("linear", "sigmoid")


class MlpFormatError(ValueError):
    """Raised when a network snapshot cannot be parsed; message carries the line."""


class NonFiniteUpdateError(ArithmeticError):
    """Raised when an SGD step would write a NaN/inf parameter; net is untouched."""


def _layer_views(flat: np.ndarray, layer_sizes: list[int]):
    """Per-layer (weights, biases) views of a vector in the flat layout."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        stop = start + fan_out * fan_in
        weights.append(flat[start:stop].reshape(fan_out, fan_in))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _gradient_gather(layer_sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Index vectors (rows, cols) such that src[rows] * src[cols] is the
    parameter gradient in the flat layout, for
    src = [delta_0, ..., delta_{L-1}, a_0, ..., a_{L-1}, 1.0]
    (delta_l: d_loss/d_pre-activation of layer l, a_l: its input).  A weight's
    gradient is delta_i * a_j, a bias's is delta_i * 1.0 - exactly the
    products an outer-product backward pass computes."""
    fan_ins, fan_outs = layer_sizes[:-1], layer_sizes[1:]
    one_at = sum(fan_outs) + sum(fan_ins)
    rows: list[int] = []
    cols: list[int] = []
    delta_at, act_at = 0, sum(fan_outs)
    for fan_in, fan_out in zip(fan_ins, fan_outs):
        for i in range(fan_out):  # weights, row-major
            rows += [delta_at + i] * fan_in
            cols += range(act_at, act_at + fan_in)
        rows += range(delta_at, delta_at + fan_out)  # biases
        cols += [one_at] * fan_out
        delta_at += fan_out
        act_at += fan_in
    return np.array(rows), np.array(cols)


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by the backward pass."""

    activations: list[np.ndarray]   # a_0 = input, ..., a_L = output

    def row(self, i: int) -> "ForwardCache":
        """The cache of row i of a batched pass, as views of this one; it
        feeds grad_weights / grad_input like the cache of a 1-D pass."""
        return ForwardCache([a[i] for a in self.activations])


class MlpGradients:
    """Parameter gradients in one flat vector laid out like `Mlp.params`.

    `d_weights` and `d_biases` are per-layer views of `flat`, shaped like the
    network's weights and biases; writing to them writes to `flat`.
    """

    def __init__(self, flat: np.ndarray, layer_sizes: list[int]):
        self.flat = flat
        self.layer_sizes = layer_sizes

    @cached_property
    def d_weights(self) -> list[np.ndarray]:
        return _layer_views(self.flat, self.layer_sizes)[0]

    @cached_property
    def d_biases(self) -> list[np.ndarray]:
        return _layer_views(self.flat, self.layer_sizes)[1]


class Mlp:
    """Feedforward net with tanh hidden layers and a configurable output layer.

    `output_activation` is "linear" (unbounded, for value estimates) or
    "sigmoid" (outputs in (0,1), for duty-cycle policies).  The given weights
    and biases are copied into the net's own parameter vector.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        output_activation: str,
    ):
        if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
            raise ValueError(f"need >= 2 layers of size >= 1, got {layer_sizes}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"output_activation must be one of {_ACTIVATIONS}")
        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        self._gather_rows, self._gather_cols = _gradient_gather(self.layer_sizes)
        # never rebound: the views below stay valid for the net's lifetime
        self._params = np.zeros(len(self._gather_rows))
        self._w, self._b = _layer_views(self._params, self.layer_sizes)
        # backward workspace: the gather source [deltas, activations, 1.0]
        # with per-layer views of its delta and activation slots, and the
        # candidate parameters of a step
        fan_ins, fan_outs = layer_sizes[:-1], layer_sizes[1:]
        self._src = np.empty(sum(fan_outs) + sum(fan_ins) + 1)
        self._src[-1] = 1.0
        bounds = np.cumsum([0, *fan_outs, *fan_ins])
        slots = [self._src[i:j] for i, j in zip(bounds, bounds[1:])]
        self._src_deltas, self._src_acts = slots[:len(fan_outs)], slots[len(fan_outs):]
        self._candidate = np.empty_like(self._params)
        self._all_finite = np.ones(self._params.shape, bool).tobytes()
        self._wT = [w.T for w in self._w]
        self._hidden = list(zip(self._wT[:-1], self._b[:-1]))
        self._sigmoid = output_activation == "sigmoid"
        self._output_shape = (layer_sizes[-1],)
        self._activation_shapes = [(n,) for n in layer_sizes]
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(
        cls, layer_sizes: list[int], output_activation: str = "linear", seed: int = 0
    ) -> "Mlp":
        """Fresh network: weights uniform in +-1/sqrt(fan_in), biases zero."""
        if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
            raise ValueError(f"need >= 2 layers of size >= 1, got {layer_sizes}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(layer_sizes, weights, biases, output_activation)

    @property
    def params(self) -> np.ndarray:
        """Every parameter in one vector (see the module docstring for the
        layout).  Writes to it change the net."""
        return self._params

    @property
    def weights(self) -> list[np.ndarray]:
        """Per-layer weight matrices, as views of `params`."""
        return list(self._w)

    @weights.setter
    def weights(self, values: list[np.ndarray]) -> None:
        self._assign(self._w, values, "weight")

    @property
    def biases(self) -> list[np.ndarray]:
        """Per-layer bias vectors, as views of `params`."""
        return list(self._b)

    @biases.setter
    def biases(self, values: list[np.ndarray]) -> None:
        self._assign(self._b, values, "bias")

    def _assign(self, views: list[np.ndarray], values, kind: str) -> None:
        """Copy per-layer values into the views; all shapes are checked
        before anything is written."""
        values = [np.asarray(v, dtype=float) for v in values]
        if len(values) != len(views):
            raise ValueError(
                f"got {len(values)} {kind} arrays for {len(views)} layers"
            )
        for layer, (view, value) in enumerate(zip(views, values)):
            if value.shape != view.shape:
                raise ValueError(
                    f"layer {layer}: {kind} shape {value.shape} inconsistent "
                    f"with sizes {self.layer_sizes}"
                )
        for view, value in zip(views, values):
            view[...] = value

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self._w, self._b, self.output_activation)

    def forward(self, x) -> tuple[np.ndarray, ForwardCache]:
        """Evaluate the network on one input of shape (n_inputs,), or on a
        batch of inputs as the rows of a (k, n_inputs) array; the output has
        the matching shape (n_outputs,) or (k, n_outputs).  The cache feeds
        descend / grad_weights / grad_input; a batch's feeds them one row at
        a time, through descend's `row` or `ForwardCache.row`.

        A 1-D input runs the same products as W.dot(a), bit for bit; a row
        of a batch (one matrix-matrix product) may differ from the 1-D pass
        of that row in the last bits.
        """
        a = np.asarray(x, dtype=float)
        if a.ndim not in (1, 2) or a.shape[-1] != self.layer_sizes[0]:
            n = self.layer_sizes[0]
            raise ValueError(f"input shape {a.shape} is neither ({n},) nor (k, {n})")
        activations = [a]
        for wT, b in self._hidden:
            a = np.tanh(a.dot(wT) + b)
            activations.append(a)
        a = a.dot(self._wT[-1]) + self._b[-1]
        if self._sigmoid:
            a = 1.0 / (1.0 + np.exp(-a))
        activations.append(a)
        return a, ForwardCache(activations)

    def _output_delta(self, acts: list[np.ndarray], d_output) -> np.ndarray:
        """d_loss/d_(output pre-activation) for the activations `acts` of one
        pass."""
        delta = np.asarray(d_output, dtype=float)
        if delta.shape != self._output_shape:
            raise ValueError(f"d_output shape {delta.shape} != ({self.n_outputs},)")
        if self._sigmoid:
            y = acts[-1]
            delta = delta * y * (1.0 - y)
        return delta

    def _activations(self, cache: ForwardCache, row: int | None) -> list[np.ndarray]:
        """The activations of one pass: the cache of a 1-D pass, or row `row`
        of a batched one; raises if the cache does not fit this net."""
        acts = cache.activations
        if row is None:
            shapes = [a.shape for a in acts]
        else:
            shapes = [a.shape[1:] for a in acts]
        if shapes != self._activation_shapes:
            raise ValueError("cache does not match this network (stale or foreign)")
        return acts if row is None else [a[row] for a in acts]

    def _backward(self, cache: ForwardCache, d_output, row: int | None) -> np.ndarray:
        """Fill the workspace's gather source with every layer's delta and
        input, and return it: src[rows] * src[cols] is the parameter
        gradient."""
        acts = self._activations(cache, row)
        delta = self._output_delta(acts, d_output)
        for slot, a in zip(self._src_acts, acts):
            slot[...] = a
        deltas = self._src_deltas
        deltas[-1][...] = delta
        for layer in range(len(self._w) - 1, 0, -1):
            # derivative of tanh via the stored hidden activation
            h = self._src_acts[layer]
            delta = np.multiply(
                self._wT[layer].dot(delta), 1.0 - h * h, out=deltas[layer - 1]
            )
        return self._src

    def _commit(self, flat: np.ndarray, learning_rate: float) -> None:
        """params <- params - learning_rate * flat, unless a parameter would
        turn non-finite; then nothing is written."""
        new = np.subtract(self._params, learning_rate * flat, out=self._candidate)
        # compared as bytes: isfinite().all() pays for a reduction
        if np.isfinite(new).tobytes() != self._all_finite:
            raise NonFiniteUpdateError("update would produce non-finite parameters")
        self._params[...] = new

    def descend(
        self, cache: ForwardCache, d_output, learning_rate: float, row: int | None = None
    ) -> None:
        """One gradient-descent step on the pass in `cache` (row `row` of it
        for a batched pass): the same bits as
        apply_update(grad_weights(cache or cache.row(row), d_output),
        learning_rate), with no gradient object in between.  A step that
        would write a non-finite parameter is refused and the net left
        unchanged."""
        src = self._backward(cache, d_output, row)
        self._commit(src[self._gather_rows] * src[self._gather_cols], learning_rate)

    def grad_weights(self, cache: ForwardCache, d_output) -> MlpGradients:
        """Gradients of the scalar loss w.r.t. every weight and bias, given
        d_loss/d_output."""
        src = self._backward(cache, d_output, None)
        return MlpGradients(src[self._gather_rows] * src[self._gather_cols], self.layer_sizes)

    def grad_input(self, cache: ForwardCache, d_output) -> np.ndarray:
        """Gradient of the scalar loss w.r.t. the network input."""
        acts = self._activations(cache, None)
        delta = self._output_delta(acts, d_output)
        for layer in range(len(self._w) - 1, 0, -1):
            h = acts[layer]
            delta = self._wT[layer].dot(delta) * (1.0 - h * h)
        return self._wT[0].dot(delta)

    def apply_update(self, grads: MlpGradients, learning_rate: float) -> None:
        """Plain gradient descent: W <- W - lr * dW.  If any resulting
        parameter would be non-finite the update is refused and the network
        left unchanged."""
        if grads.flat.shape != self._params.shape:
            raise ValueError("gradients do not match this network")
        self._commit(grads.flat, learning_rate)

    # --- snapshot format -------------------------------------------------
    # line 1: "mlp v1"
    # line 2: layer sizes
    # line 3: hidden and output activation tags
    # line 4..: one row per layer, weights row-major then biases

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.dumps())

    def dumps(self) -> str:
        lines = [
            "mlp v1",
            " ".join(str(n) for n in self.layer_sizes),
            f"tanh {self.output_activation}",
        ]
        for w, b in zip(self._w, self._b):
            row = [repr(float(v)) for v in w.ravel()] + [repr(float(v)) for v in b]
            lines.append(" ".join(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path) -> "Mlp":
        """Read a snapshot; format errors name the file."""
        try:
            with open(path) as fh:
                return cls.loads(fh.read())
        except UnicodeDecodeError:
            raise MlpFormatError(f"{path}: not a text snapshot") from None
        except MlpFormatError as exc:
            raise MlpFormatError(f"{path}: {exc}") from None

    @classmethod
    def loads(cls, text: str) -> "Mlp":
        lines = text.splitlines()

        def fail(lineno, msg):
            raise MlpFormatError(f"line {lineno}: {msg}")

        if not lines or lines[0].strip() != "mlp v1":
            fail(1, "expected header 'mlp v1'")
        if len(lines) < 3:
            fail(len(lines), "truncated snapshot: missing sizes/activations")
        try:
            sizes = [int(tok) for tok in lines[1].split()]
        except ValueError:
            fail(2, f"bad layer sizes: {lines[1]!r}")
        if len(sizes) < 2 or any(n < 1 for n in sizes):
            fail(2, f"invalid layer sizes {sizes}")
        tags = lines[2].split()
        if len(tags) != 2 or tags[0] != "tanh" or tags[1] not in _ACTIVATIONS:
            fail(3, f"bad activation line: {lines[2]!r}")
        n_layers = len(sizes) - 1
        param_lines = [ln for ln in lines[3:] if ln.strip()]
        if len(param_lines) != n_layers:
            fail(len(lines), f"expected {n_layers} parameter rows, got {len(param_lines)}")
        params: list[float] = []
        for layer, ln in enumerate(param_lines):
            fan_in, fan_out = sizes[layer], sizes[layer + 1]
            try:
                vals = [float(tok) for tok in ln.split()]
            except ValueError:
                fail(4 + layer, "non-numeric parameter")
            if not all(map(math.isfinite, vals)):
                fail(4 + layer, "non-finite parameter")
            if len(vals) != fan_out * fan_in + fan_out:
                fail(
                    4 + layer,
                    f"expected {fan_out * fan_in + fan_out} values, got {len(vals)}",
                )
            params.extend(vals)
        weights, biases = _layer_views(np.array(params), sizes)
        return cls(sizes, weights, biases, tags[1])
