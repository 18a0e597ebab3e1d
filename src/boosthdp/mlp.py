"""Minimal fully connected feedforward network.

Just enough machinery for the neuro-controller: tanh hidden layers, a linear
or sigmoid output, exact reverse-mode gradients with respect to both the
parameters and the input, plain SGD updates, and a text snapshot format.
Everything is double precision numpy.  Nets are small (a handful of units per
layer); `forward` also takes a batch of inputs as rows, so that callers
evaluating several points at the same weights pay numpy's per-call overhead
once.  Gradients are per sample.

Parameter layout: every parameter of a net lives in one contiguous vector,
`Mlp.params`.  Layer by layer it holds the weight matrix row-major (shape
fan_out x fan_in), then the bias vector - the same order as the snapshot's
parameter rows.  `Mlp.weights` and `Mlp.biases` are per-layer views of that
vector, and `MlpGradients.flat` uses the same layout, so an SGD step is one
vector operation followed by one finiteness check.

At these sizes numpy's per-call overhead costs more than the arithmetic, so
the hot paths make as few numpy calls as they can.  Each net owns one
preallocated `PassWorkspace` per row count k: a k-row forward pass writes
every activation into it, and the backward pass of row 0 reads them in
place and gathers all weight and bias gradients with one elementwise
product, or ends in the input gradient.  A caller that steps on one point
of a batched pass puts that point in row 0.  This is the only backward
pass and commit: `grad_weights` and `grad_input` copy a 1-D cache into the
one-row workspace and run it, and `apply_update` shares the commit.  Every
product and sum is still the one a per-layer implementation computes, so
results are bit-identical to it (tests/test_mlp.py keeps such an
implementation as the reference).

The offline sweeps and the online control step run on workspaces.  The
1-D entry points `grad_weights`, `grad_input` and `apply_update` (and
`MlpGradients`) serve `HdpController.action_update`, and the tests, which
use them as the reference for the workspace; perfbench/tracing.py wraps
them by name.
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
    "PassWorkspace",
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


def _gradient_gather(layer_sizes: list[int], k: int = 1):
    """Index vectors (rows, cols) such that src[rows] * src[cols] is the
    parameter gradient in the flat layout, for the workspace layout
    src = [delta_0, ..., delta_{L-1}, a_0, ..., a_L, 1.0]
    with each a_l (the input of layer l; a_L the output) held for k rows,
    and the activations read from row 0 (delta_l: d_loss/d_pre-activation
    of layer l).  A weight's gradient is delta_i * a_j, a bias's is
    delta_i * 1.0 - exactly the products an outer-product backward pass
    computes.  `rows` does not depend on k."""
    fan_ins, fan_outs = layer_sizes[:-1], layer_sizes[1:]
    one_at = sum(fan_outs) + k * sum(layer_sizes)
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
        act_at += k * fan_in
    return np.array(rows), np.array(cols)


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by the backward pass."""

    activations: list[np.ndarray]   # a_0 = input, ..., a_L = output


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
        n_params = sum(n_out * (n_in + 1) for n_in, n_out in zip(layer_sizes, layer_sizes[1:]))
        # never rebound: the views below stay valid for the net's lifetime
        self._params = np.zeros(n_params)
        self._w, self._b = _layer_views(self._params, self.layer_sizes)
        # the candidate parameters of a step and its finiteness mask
        self._candidate = np.empty_like(self._params)
        self._finite = np.empty(self._params.shape, bool)
        self._all_finite = np.ones(self._params.shape, bool).tobytes()
        self._wT = [w.T for w in self._w]
        self._hidden = list(zip(self._wT[:-1], self._b[:-1]))
        self._sigmoid = output_activation == "sigmoid"
        self._output_shape = (layer_sizes[-1],)
        self._activation_shapes = [(n,) for n in layer_sizes]
        self._workspaces: dict[int, PassWorkspace] = {}
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
        the matching shape (n_outputs,) or (k, n_outputs).  The cache of a
        1-D pass feeds grad_weights / grad_input.

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

    def workspace(self, k: int = 1) -> "PassWorkspace":
        """The net's preallocated workspace for k-row passes, made on first
        use and kept for the net's lifetime.  `grad_weights` and
        `grad_input` load their cache into the one-row workspace,
        overwriting its pass."""
        ws = self._workspaces.get(k)
        if ws is None:
            ws = self._workspaces[k] = PassWorkspace(self, k)
        return ws

    def _loaded(self, cache: ForwardCache, d_output) -> tuple["PassWorkspace", np.ndarray]:
        """The one-row workspace holding the pass in `cache`, and the checked
        d_output; raises if either does not fit this net."""
        acts = cache.activations
        if [a.shape for a in acts] != self._activation_shapes:
            raise ValueError("cache does not match this network (stale or foreign)")
        delta = np.asarray(d_output, dtype=float)
        if delta.shape != self._output_shape:
            raise ValueError(f"d_output shape {delta.shape} != ({self.n_outputs},)")
        ws = self.workspace(1)
        ws._load(acts)
        return ws, delta

    def _commit(self, step: np.ndarray) -> None:
        """params <- params - step, unless a parameter would turn
        non-finite; then nothing is written."""
        new = np.subtract(self._params, step, self._candidate)
        # compared as bytes: isfinite().all() pays for a reduction
        if np.isfinite(new, self._finite).tobytes() != self._all_finite:
            raise NonFiniteUpdateError("update would produce non-finite parameters")
        self._params[...] = new

    def grad_weights(self, cache: ForwardCache, d_output) -> MlpGradients:
        """Gradients of the scalar loss w.r.t. every weight and bias, given
        d_loss/d_output."""
        ws, delta = self._loaded(cache, d_output)
        return MlpGradients(ws.gradient(delta), self.layer_sizes)

    def grad_input(self, cache: ForwardCache, d_output) -> np.ndarray:
        """Gradient of the scalar loss w.r.t. the network input."""
        ws, delta = self._loaded(cache, d_output)
        return ws.grad_input(delta)

    def apply_update(self, grads: MlpGradients, learning_rate: float) -> None:
        """Plain gradient descent: W <- W - lr * dW.  If any resulting
        parameter would be non-finite the update is refused and the network
        left unchanged."""
        if grads.flat.shape != self._params.shape:
            raise ValueError("gradients do not match this network")
        self._commit(learning_rate * grads.flat)

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


class PassWorkspace:
    """Preallocated buffers for k-row forward passes of one net and for SGD
    steps on row 0 of them; get the net's own from `Mlp.workspace(k)`, or
    make a private one with `PassWorkspace(net, k)`.

    Write the inputs into `inputs` (a (k, n_inputs) view), call `forward`,
    read `outputs` (a (k, n_outputs) view), then `descend` on row 0 or take
    its `grad_input`.  The buffer is laid out as the gradient gather source,
    [deltas, a_0 for k rows, ..., a_L for k rows, 1.0], so the backward pass
    and the commit read row 0's activations in place, through fixed gather
    indices.  Nothing is allocated or shape-checked per pass
    but the returned gradient.  The forward pass makes the products and sums
    of `Mlp.forward` on a (k, n_inputs) batch, writing into the buffer, so
    its outputs are the same bits.
    """

    def __init__(self, net: Mlp, k: int):
        if k < 1:
            raise ValueError(f"need k >= 1 rows, got {k}")
        sizes = net.layer_sizes
        fan_outs = sizes[1:]
        src = np.empty(sum(fan_outs) + k * sum(sizes) + 1)
        src[-1] = 1.0
        bounds = np.cumsum([0, *fan_outs, *(k * n for n in sizes)])
        slots = [src[i:j] for i, j in zip(bounds, bounds[1:])]
        deltas = slots[:len(fan_outs)]
        acts = [slot.reshape(k, n) for slot, n in zip(slots[len(fan_outs):], sizes)]
        self._net = net
        self._src = src
        # row 0 of every activation the backward pass reads: the layer
        # inputs, and the output of a sigmoid net
        self._row0 = [a[0] for a in (acts if net._sigmoid else acts[:-1])]
        self._inputs, self._outputs = acts[0], acts[-1]
        self._sigmoid = net._sigmoid
        self._one_output = fan_outs[-1] == 1
        # Each layer's bias for k rows.  An add that broadcasts a bias over
        # the rows costs three times a plain one, so a k-row pass first
        # gathers every bias k times from the parameters.
        if k == 1:
            self._bias_rows = None
            biases = [b.reshape(1, -1) for b in net._b]
        else:
            index: list[int] = []
            at = 0
            for fan_in, fan_out in zip(sizes, fan_outs):
                at += fan_out * fan_in
                index += [*range(at, at + fan_out)] * k
                at += fan_out
            tiled = np.empty(len(index))
            self._bias_rows = (np.array(index), tiled)
            parts = np.split(tiled, np.cumsum([k * n for n in fan_outs])[:-1])
            biases = [part.reshape(k, -1) for part in parts]
        layers = list(zip(net._wT, biases, acts[1:]))
        self._hidden, self._output = layers[:-1], layers[-1]
        # the output layer runs through two scratch buffers, not in place:
        # numpy's in-place ufuncs are slow on one-element arrays
        self._z = np.empty((2, k, fan_outs[-1]))
        self._ones_out = np.ones((k, fan_outs[-1]))
        self._d_out = deltas[-1]
        # from the last hidden layer down: W^T, row 0 of the hidden
        # activation, the delta slot it feeds, and scratch and ones vectors
        self._hidden_back = [
            (net._wT[layer], acts[layer][0], deltas[layer - 1],
             np.empty(sizes[layer]), np.ones(sizes[layer]))
            for layer in range(len(fan_outs) - 1, 0, -1)
        ]
        self._wT0 = net._wT[0]
        self._gather_rows, self._gather_cols = _gradient_gather(sizes, k)
        self._rate = np.zeros(())

    @property
    def inputs(self) -> np.ndarray:
        """The (k, n_inputs) rows the next `forward` reads; write into it."""
        return self._inputs

    @property
    def outputs(self) -> np.ndarray:
        """The (k, n_outputs) result of the last `forward`."""
        return self._outputs

    def forward(self) -> np.ndarray:
        """Evaluate the net on the k rows of `inputs`; returns `outputs`."""
        if self._bias_rows is not None:
            index, tiled = self._bias_rows
            self._net._params.take(index, None, tiled, "wrap")
        a = self._inputs
        for wT, b, h in self._hidden:
            a.dot(wT, out=h)
            np.add(h, b, h)
            np.tanh(h, h)
            a = h
        wT, b, out = self._output
        z, z2 = self._z
        if self._sigmoid:
            ones = self._ones_out
            a.dot(wT, out=z)
            np.add(z, b, z2)
            np.negative(z2, z)
            np.exp(z, z2)
            np.add(ones, z2, z)
            np.divide(ones, z, out)
        else:
            a.dot(wT, out=z)
            np.add(z, b, out)
        return out

    def _load(self, acts: list[np.ndarray]) -> None:
        """Copy the activations of one 1-D pass that the backward pass reads
        into row 0."""
        for slot, a in zip(self._row0, acts):
            slot[...] = a

    def _backward(self, d_output) -> np.ndarray:
        """Fill the delta slots for row 0 of the last pass, given
        d_loss/d_output; returns the first layer's delta slot."""
        delta = self._d_out
        if self._sigmoid:
            # one output is read as a float: three float operations, the
            # same IEEE ones as three ufunc calls on arrays
            y = self._outputs.item(0) if self._one_output else self._outputs[0]
            delta[...] = d_output * y * (1.0 - y)
        else:
            delta[...] = d_output
        for wT, h, out, back, ones in self._hidden_back:
            # W^T delta times the derivative of tanh, 1 - h*h, from the
            # stored hidden activation
            wT.dot(delta, out=back)
            np.subtract(ones, np.multiply(h, h, out), out)
            delta = np.multiply(back, out, out)
        return delta

    def gradient(self, d_output) -> np.ndarray:
        """The parameter gradient of row 0 of the last pass, given
        d_loss/d_output (a float, or shaped (n_outputs,)), as a new array."""
        self._backward(d_output)
        src = self._src
        grad = src[self._gather_rows]
        return np.multiply(grad, src[self._gather_cols], grad)

    def grad_input(self, d_output) -> np.ndarray:
        """d_loss/d_input of row 0 of the last pass, given d_loss/d_output
        (a float, or shaped (n_outputs,)), as a new array."""
        return self._wT0.dot(self._backward(d_output))

    def descend(self, d_output, learning_rate: float) -> None:
        """One gradient-descent step on row 0 of the last pass.  A step that
        would write a non-finite parameter is refused and the net left
        unchanged; the workspace's pass stays as it was."""
        grad = self.gradient(d_output)
        # a float operand costs a conversion per call; a 0-d array does not
        rate = self._rate
        rate[()] = learning_rate
        self._net._commit(np.multiply(grad, rate, grad))
