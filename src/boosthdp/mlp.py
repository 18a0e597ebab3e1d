"""Minimal fully connected feedforward network.

Just enough machinery for the neuro-controller: tanh hidden layers, a linear
or sigmoid output, exact reverse-mode gradients with respect to both the
parameters and the input, plain SGD updates, and a text snapshot format.
Nets are small (a handful of units per layer); gradients are per sample.

Parameter layout: every parameter of a net lives in one contiguous numpy
vector, `Mlp.params`, the one source of truth for the net's weights.  Layer
by layer it holds the weight matrix row-major (shape fan_out x fan_in), then
the bias vector - the same order as the snapshot's parameter rows.
`Mlp.weights` and `Mlp.biases` are per-layer views of that vector, and
`MlpGradients.flat` uses the same layout.

Per-sample arithmetic: at these sizes numpy's per-call overhead costs more
than the arithmetic, so every single-input pass and step runs in plain
Python floats, in code generated once per topology with `exec`, as
`dataclasses` builds its methods, on first use.  Kernels are generated
only for nets of at most `MAX_KERNEL_PARAMS` parameters: a unit's sum is
one chained expression, which CPython's compiler nests a level per term,
and the source grows with the parameter count; a larger net still loads,
saves and runs batched passes.  One emitter (`_Text`) writes every
generated function, and `_generate` compiles each one by name: each
function unpacks the parameter list into locals, every sum runs left to
right with the bias last, and one descent step, `_Text.step`, serves both
kinds of function:
- per sample, `Mlp.kernels`, which take the parameters as a list in the
  flat layout and a pass's activations as one flat list.  A loop takes
  `params.tolist()` once, carries the list that `kernels.step` returns,
  runs `kernels.forward` on it, and writes it into `params` when it is
  done.  The 1-D `forward`, `grad_weights` and `grad_input` run the same
  kernels behind numpy arrays and a `ForwardCache`, and `apply_update`
  subtracts lr * g as `kernels.step` does, so forward, `grad_weights` and
  `apply_update` give the bits of one `kernels.step`;
- per epoch, `Mlp.fit_epoch` and `Mlp.td_epoch`, one function each that
  sweeps a whole sample order with the parameters in local variables,
  each step assigning the new values in place, unchecked, and writes them
  into `params` once, at the end.  They give the bits of the same loop
  over `kernels.forward` and `kernels.step` whenever that loop accepts
  every step.
A step is refused when a new parameter is not finite: the generated code
raises NonFiniteUpdateError, so a refused `kernels.step` returns nothing
and a refused epoch writes nothing, leaving `params` as the epoch found
them.  One rule decides: a finite C `sum` of the list proves every
element finite, and only a sum that is not gets the per-element check.
`kernels.step` applies it to the list it would return, a sweep once, to
its list at the end: a parameter that is not finite stays so under
p - g*lr, so that list fails exactly when some step would have.  A
batched `forward` ((k, n_inputs) rows) stays numpy, one matrix product
per layer, and may differ from the single-input passes in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .atomic import atomic_write

__all__ = [
    "Mlp",
    "MlpGradients",
    "ForwardCache",
    "Kernels",
    "MAX_KERNEL_PARAMS",
    "MlpFormatError",
    "NonFiniteUpdateError",
]

_ACTIVATIONS = ("linear", "sigmoid")

# about 30 times the controller's nets; a sum of this many terms compiles
# well inside CPython's nesting limit (some 3000 at the default recursion
# limit)
MAX_KERNEL_PARAMS = 1000


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


class Kernels(NamedTuple):
    """Straight-line float code for one topology.  `p` is the parameter
    list in the flat layout, `acts` every activation of one pass as one flat
    list (the input first, the output last), `d` d_loss/d_output as a
    sequence of floats.  `step` writes nothing: it returns the new list, or
    raises NonFiniteUpdateError if an element of it is not finite."""

    forward: Callable        # (p, x) -> acts
    gradient: Callable       # (p, acts, d) -> the parameter gradient, flat layout
    step: Callable           # (p, acts, d, lr) -> [p[k] - g_k*lr for every k]
    input_gradient: Callable  # (p, acts, d) -> d_loss/d_input


class _Text:
    """The source text of one topology's passes and step.  Every generated
    function opens with `p0, p1, ..., = p` and reads the parameters as
    locals.  Names: p{k} is flat parameter k; a{l}_{j} is unit j of
    activation l (a0 the input); e{l}_{i} the delta (d_loss/d_pre-activation)
    of unit i of layer l; d{i} d_loss/d_output i; `new` the list of a
    step's new parameters.  Raises ValueError for a net of more than
    MAX_KERNEL_PARAMS parameters."""

    def __init__(self, layer_sizes: tuple[int, ...], sigmoid: bool):
        self.sigmoid = sigmoid
        self.acts = [[f"a{l}_{j}" for j in range(n)] for l, n in enumerate(layer_sizes)]
        self.deltas = [[f"e{l}_{i}" for i in range(n)] for l, n in enumerate(layer_sizes[1:])]
        # flat indices of layer l's weights, w[l][i][j], and biases, b[l][i]
        self.w, self.b, at = [], [], 0
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            self.w.append([[at + i * fan_in + j for j in range(fan_in)] for i in range(fan_out)])
            at += fan_out * fan_in
            self.b.append(list(range(at, at + fan_out)))
            at += fan_out
        if at > MAX_KERNEL_PARAMS:
            raise ValueError(
                f"{'-'.join(map(str, layer_sizes))} net has {at} parameters; "
                f"per-sample kernels take at most {MAX_KERNEL_PARAMS}"
            )
        self.params = [f"p{k}" for k in range(at)]
        self.outputs = [f"d{i}" for i in range(layer_sizes[-1])]
        # (flat index, gradient) in the flat layout
        self.grads: list[tuple[int, str]] = []
        for l, (deltas, rows) in enumerate(zip(self.deltas, self.w)):
            self.grads += [
                (k, f"{e}*{a}") for e, row in zip(deltas, rows) for k, a in zip(row, self.acts[l])
            ]
            self.grads += list(zip(self.b[l], deltas))

    def forward(self) -> list[str]:
        """A pass from the input names to the output names; every sum runs
        left to right with the bias last."""
        lines, last = [], len(self.w) - 1
        for l, (rows, biases) in enumerate(zip(self.w, self.b)):
            for row, bias, out in zip(rows, biases, self.acts[l + 1]):
                z = " + ".join([f"p{k}*{a}" for k, a in zip(row, self.acts[l])] + [f"p{bias}"])
                if l < last:
                    lines.append(f"{out} = tanh({z})")
                elif self.sigmoid:
                    # math.exp raises where numpy's gives inf, and 1/(1+inf) = 0
                    lines += [
                        "try:",
                        f"    {out} = 1.0 / (1.0 + exp(-({z})))",
                        "except OverflowError:",
                        f"    {out} = 0.0",
                    ]
                else:
                    lines.append(f"{out} = {z}")
        return lines

    def backward(self) -> list[str]:
        """Every delta, from the output names and d0, d1, ..."""
        lines = [
            f"{e} = {d} * {y} * (1.0 - {y})" if self.sigmoid else f"{e} = {d}"
            for e, d, y in zip(self.deltas[-1], self.outputs, self.acts[-1])
        ]
        for l in range(len(self.w) - 1, 0, -1):
            # W^T delta, times the derivative of tanh from the stored activation
            for j, (e, h) in enumerate(zip(self.deltas[l - 1], self.acts[l])):
                back = " + ".join(f"p{self.w[l][i][j]}*{d}" for i, d in enumerate(self.deltas[l]))
                lines.append(f"{e} = ({back}) * (1.0 - {h}*{h})")
        return lines

    def step(self, in_place: bool) -> list[str]:
        """One descent step at rate lr: the deltas, formed from the present
        parameters, then the new value p{k} - g_k*lr of every parameter in
        the flat layout.  No g_k reads a parameter (a weight's is
        delta*activation, a bias's its delta), so in place each new value
        replaces its parameter as soon as it is formed, unchecked, and a
        sweep carries them on in its locals; otherwise they form the list
        `new`, which `refuse` checks."""
        new = [f"p{k} - {g}*lr" for k, g in self.grads]
        if in_place:
            return [*self.backward(), *(f"p{k} = {v}" for (k, _), v in zip(self.grads, new))]
        return [*self.backward(), f"new = [{', '.join(new)}]", *self.refuse()]

    @staticmethod
    def refuse() -> list[str]:
        """The one finiteness rule, on the list `new`: NonFiniteUpdateError
        when an element is not finite.  A finite C `sum` proves them all
        finite, so only a sum that is not (a non-finite element, or finite
        ones that overflow) gets the per-element check."""
        return [
            "if not isfinite(sum(new)) and not all(map(isfinite, new)):",
            '    raise NonFiniteUpdateError("update would produce non-finite parameters")',
        ]

    def input_gradient(self) -> list[str]:
        return [
            " + ".join(f"p{self.w[0][i][j]}*{e}" for i, e in enumerate(self.deltas[0]))
            for j in range(len(self.acts[0]))
        ]


def _indent(lines: list[str], depth: int) -> list[str]:
    return [" " * (4 * depth) + line for line in lines]


@lru_cache(maxsize=None)
def _generate(layer_sizes: tuple[int, ...], sigmoid: bool, name: str) -> Callable:
    """Generate and compile one function of one topology, on first use:
    a `Kernels` field, or an epoch sweep.  Every function that steps or
    runs backward starts from the same text, so their deltas and steps are
    the same bits.  Raises ValueError for a net of more than
    MAX_KERNEL_PARAMS parameters.

    The sweeps run a whole sample order for a single-output net with the
    parameters in locals from the first sample to the last, each step in
    place and unchecked, so a sweep gives the bits of the same loop over
    `Kernels.forward` and `Kernels.step` while that loop accepts every
    step.  A sweep returns (parameter list, sq_sum), after the finiteness
    rule on the list at the end: a parameter that is not finite stays so
    under p - g*lr, and nothing in a sweep raises on inf or NaN (the
    sigmoid catches exp's OverflowError), so the sweep raises
    NonFiniteUpdateError exactly when the loop would have refused a step.
    "fit_epoch"(p, order, xs, goals, lr): per sample k the pass at xs[k],
    err = y - goals[k], one step on d_loss/d_output = err; sq_sum adds
    err*err.
    "td_epoch"(p, order, xs, xs_next, us, gamma, lr): per sample k the
    target J(xs_next[k]) and the value J(xs[k]), the residual
    resid = J - gamma*target - us[k] as `hdp.td_error` forms it, one step on
    it as `hdp.td_update` takes it, then the value pass again; sq_sum adds
    the square of the residual after the step."""
    text = _Text(layer_sizes, sigmoid)
    params = ", ".join(text.params)
    every_act = ", ".join(sum(text.acts, []))
    x, y = ", ".join(text.acts[0]), text.acts[-1][0]
    backward = [f"{every_act}, = acts", f"{', '.join(text.outputs)}, = d"]
    if name == "forward":
        args, body = "x", [f"{x}, = x", *text.forward(), f"return [{every_act}]"]
    elif name == "gradient":
        args = "acts, d"
        body = [*backward, *text.backward(), f"return [{', '.join(g for _, g in text.grads)}]"]
    elif name == "step":
        args, body = "acts, d, lr", [*backward, *text.step(in_place=False), "return new"]
    elif name == "input_gradient":
        args = "acts, d"
        body = [*backward, *text.backward(), f"return [{', '.join(text.input_gradient())}]"]
    else:
        if layer_sizes[-1] != 1:
            raise ValueError(f"epoch kernels need a single-output net, got {layer_sizes}")
        step = text.step(in_place=True)
        if name == "fit_epoch":
            args = "order, xs, goals, lr"
            sample = [f"{x}, = xs[k]", *text.forward(), f"d0 = {y} - goals[k]", *step,
                      "sq_sum += d0*d0"]
        else:
            args = "order, xs, xs_next, us, gamma, lr"
            sample = [
                f"{x}, = xs_next[k]", *text.forward(), f"target = {y}",
                f"{x}, = xs[k]", *text.forward(), "u = us[k]",
                f"d0 = {y} - gamma*target - u", *step,
                *text.forward(), f"resid = {y} - gamma*target - u", "sq_sum += resid*resid",
            ]
        body = ["sq_sum = 0.0", "for k in order:", *_indent(sample, 1), f"new = [{params}]",
                *text.refuse(), "return new, sq_sum"]
    source = "\n".join([f"def {name}(p, {args}):", f"    {params}, = p", *_indent(body, 1)])
    namespace = {"tanh": math.tanh, "exp": math.exp, "isfinite": math.isfinite,
                 "NonFiniteUpdateError": NonFiniteUpdateError}
    exec(source, namespace)
    return namespace[name]


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
        self._sigmoid = output_activation == "sigmoid"
        # where each layer's activations start in a flattened pass
        self._act_splits = np.cumsum(layer_sizes)[:-1]
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

    @cached_property
    def kernels(self) -> Kernels:
        """The per-sample kernels of this net's topology, generated on first
        use; ValueError if the net is too large for them."""
        return Kernels._make(
            _generate(tuple(self.layer_sizes), self._sigmoid, name) for name in Kernels._fields
        )

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

        A 1-D input runs `kernels.forward` (ValueError for a net too large
        for kernels); a batch runs one matrix-matrix product per layer,
        whose rows may differ from the 1-D passes in the last bits.
        """
        a = np.asarray(x, dtype=float)
        if a.ndim not in (1, 2) or a.shape[-1] != self.layer_sizes[0]:
            n = self.layer_sizes[0]
            raise ValueError(f"input shape {a.shape} is neither ({n},) nor (k, {n})")
        if a.ndim == 1:
            flat = np.array(self.kernels.forward(self._params.tolist(), a.tolist()))
            activations = np.split(flat, self._act_splits)
            return activations[-1], ForwardCache(activations)
        activations = [a]
        for w, b in zip(self._w[:-1], self._b[:-1]):
            a = np.tanh(a.dot(w.T) + b)
            activations.append(a)
        a = a.dot(self._w[-1].T) + self._b[-1]
        if self._sigmoid:
            a = 1.0 / (1.0 + np.exp(-a))
        activations.append(a)
        return a, ForwardCache(activations)

    def _kernel_args(self, cache: ForwardCache, d_output) -> tuple[list, list, list]:
        """(params, flat activations, d_output) as lists for a backward
        kernel; raises if the cache or d_output does not fit this net."""
        acts = cache.activations
        if [a.shape for a in acts] != [(n,) for n in self.layer_sizes]:
            raise ValueError("cache does not match this network (stale or foreign)")
        delta = np.asarray(d_output, dtype=float)
        if delta.shape != (self.n_outputs,):
            raise ValueError(f"d_output shape {delta.shape} != ({self.n_outputs},)")
        return self._params.tolist(), np.concatenate(acts).tolist(), delta.tolist()

    def grad_weights(self, cache: ForwardCache, d_output) -> MlpGradients:
        """Gradients of the scalar loss w.r.t. every weight and bias, given
        d_loss/d_output."""
        flat = np.array(self.kernels.gradient(*self._kernel_args(cache, d_output)))
        return MlpGradients(flat, self.layer_sizes)

    def grad_input(self, cache: ForwardCache, d_output) -> np.ndarray:
        """Gradient of the scalar loss w.r.t. the network input."""
        return np.array(self.kernels.input_gradient(*self._kernel_args(cache, d_output)))

    def apply_update(self, grads: MlpGradients, learning_rate: float) -> None:
        """Plain gradient descent: W <- W - lr * dW.  If any resulting
        parameter would be non-finite the update is refused and the network
        left unchanged."""
        if grads.flat.shape != self._params.shape:
            raise ValueError("gradients do not match this network")
        new = self._params - learning_rate * grads.flat
        if not np.isfinite(new).all():
            raise NonFiniteUpdateError("update would produce non-finite parameters")
        self._params[...] = new

    def fit_epoch(self, order: list[int], xs, goals, learning_rate: float) -> float:
        """One sweep of squared-error descent over the samples in `order`:
        per sample k the pass at xs[k], err = y - goals[k], and one
        `kernels.step` on d_loss/d_output = err.  Returns the sum of
        err*err, each taken before its step.  `xs` is a list of input
        lists, `goals` of floats; the net must have one output."""
        return self._sweep("fit_epoch", order, (xs, goals), learning_rate)

    def td_epoch(
        self, order: list[int], xs, xs_next, us, gamma: float, learning_rate: float
    ) -> float:
        """One temporal-difference sweep over the transitions in `order`:
        per transition k the target J(xs_next[k]) and the value J(xs[k]) at
        the present parameters, one `hdp.td_update` step toward
        us[k] + gamma * target, and J(xs[k]) again after the step.  Returns
        the sum of the squared residuals after the steps.  `xs` and
        `xs_next` are lists of input lists, `us` of floats; the net must
        have one output."""
        return self._sweep("td_epoch", order, (xs, xs_next, us, gamma), learning_rate)

    def _sweep(self, name: str, order: list[int], data: tuple, learning_rate: float) -> float:
        """Run the generated sweep `name` over `order` on `data` from
        `params`, write its end list into `params` and return its sum.  A
        refused step raises NonFiniteUpdateError before anything is
        written."""
        kernel = _generate(tuple(self.layer_sizes), self._sigmoid, name)
        new, sq_sum = kernel(self._params.tolist(), order, *data, learning_rate)
        self._params[:] = new
        return sq_sum

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
