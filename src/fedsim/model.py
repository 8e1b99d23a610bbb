"""Feedforward classifier with analytic gradients and local SGD training.

Parameters live in one flat float64 vector; (weight, bias) views into it are
built once from the recorded layer shapes. The vector may carry leading
axes, shape (..., d): that is a stack of models, and every function here that
takes a stack works on each of its models independently, bit for bit as on
that model alone. Hidden layers use ReLU, so the inputs to the final linear
layer are non-negative -- a property the server-side label inference relies
on. All functions are pure and deterministic given (params, data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .data import LabeledDataset
from .errors import ShapeError, TrainingError

Shapes = Tuple[Tuple[int, int], ...]
Layers = Tuple[Tuple[np.ndarray, np.ndarray], ...]


def param_dim(shapes: Sequence[Tuple[int, int]]) -> int:
    """Total parameter count: sum of out*in + out over layers."""
    return int(sum(out * inp + out for out, inp in shapes))


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector, or a stack of them, plus the (out, in) shape of every layer.

    Frozen, so the layer views cannot go stale: `.flat` cannot be rebound,
    and writes into it land in the views. `shapes` is kept as a tuple of
    (out, in) pairs, so models can share it without copying.
    """

    flat: np.ndarray
    shapes: Shapes
    _layers: Layers = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        need = param_dim(self.shapes)
        if flat.ndim < 1 or flat.shape[-1] != need:
            raise ShapeError(
                f"flat vector of shape {flat.shape} does not match "
                f"shapes {self.shapes} (need a last axis of {need})"
            )
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "shapes", tuple(map(tuple, self.shapes)))
        object.__setattr__(self, "_layers", _layer_views(flat, self.shapes))

    @property
    def dim(self) -> int:
        return self.flat.shape[-1]

    @property
    def num_classes(self) -> int:
        return self.shapes[-1][0]

    def layers(self) -> Layers:
        """(weight, bias) views into the flat vector, in layer order, with its leading axes."""
        return self._layers


def _layer_views(flat: np.ndarray, shapes: Sequence[Tuple[int, int]]) -> Layers:
    """(weight, bias) views into `flat`, in layer order, with its leading axes."""
    lead = flat.shape[:-1]
    layers = []
    off = 0
    for rows, cols in shapes:
        w = flat[..., off:off + rows * cols].reshape(lead + (rows, cols))
        off += rows * cols
        layers.append((w, flat[..., off:off + rows]))
        off += rows
    return tuple(layers)


def init_model(layer_dims: Sequence[int], seed: int, zero_last: bool = False) -> ModelParams:
    """Seeded Glorot-uniform weights (U[-s, s], s = sqrt(6/(in+out))), zero biases.

    layer_dims lists widths input-first, e.g. [32, 64, 10] for one hidden
    layer of 64 units and 10 output classes. zero_last zeroes the final
    layer's weights as well, making the untrained model's predictions
    exactly uniform -- useful when the server reads class information out
    of early updates.
    """
    rng = np.random.default_rng(seed)
    shapes = tuple(zip(layer_dims[1:], layer_dims[:-1]))
    params = ModelParams(np.zeros(param_dim(shapes)), shapes)
    layers = params.layers()
    for w, _ in layers[:-1] if zero_last else layers:
        s = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-s, s, size=w.shape)
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety, in one fresh array."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _forward(layers: Layers, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Logits plus the input of every layer: x, then each hidden ReLU output.

    Each layer's product is the one array it allocates; the bias and the ReLU
    are applied to it in place.
    """
    acts = [x]
    for w, b in layers[:-1]:
        h = np.matmul(acts[-1], w.mT)
        h += b[..., None, :]
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    w_last, b_last = layers[-1]
    logits = np.matmul(acts[-1], w_last.mT)
    logits += b_last[..., None, :]
    return logits, acts


def forward(params: ModelParams, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run the network on (n, width) inputs; returns (logits, penultimate activation).

    The penultimate activation is the input to the final linear layer: ReLU
    output of the last hidden layer, or the raw inputs for a one-layer net.
    """
    logits, acts = _forward(params.layers(), inputs)
    return logits, acts[-1]


def loss_and_grad(params: ModelParams, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch (x, y) and its exact analytic gradient.

    Backprop through the ReLU stack; the logits-layer gradient per sample is
    softmax(logits) - onehot(label), averaged over the batch. Each layer's
    gradient is written into its view of one flat vector. For a stack of
    models, shape (..., d), x is (..., n, width) and y is (..., n): one batch
    per model, all of one size n. The loss then has the leading shape and the
    gradient the stack's shape. Unchecked: `sgd_train` checks its stack once per call.
    """
    n = x.shape[-2]
    layers = params.layers()
    logits, acts = _forward(layers, x)

    dz = softmax(logits)
    m = dz.shape[-1]
    # each label's entry in the flat (C-ordered) probabilities
    at_label = np.arange(0, y.size * m, m) + y.reshape(-1)
    flat = dz.reshape(-1)
    # clip only inside the log; the gradient uses the exact probabilities.
    # add.reduce then / n is how np.mean takes the mean, so the loss keeps its bits
    log_picked = flat[at_label].reshape(y.shape)
    np.maximum(log_picked, 1e-300, out=log_picked)
    np.log(log_picked, out=log_picked)
    loss = -(np.add.reduce(log_picked, axis=-1) / n)
    flat[at_label] -= 1.0  # dz is edited in place: the loss has been read
    dz /= n  # not *= 1 / n, which rounds differently

    grad = np.empty(params.flat.shape)
    grads = _layer_views(grad, params.shapes)
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(dz.mT, acts[li], out=gw)
        np.add.reduce(dz, axis=-2, out=gb)
        if li > 0:
            # a ReLU output is positive exactly where its pre-activation is; once the
            # mask is read, the layer's input is spent, and its buffer takes the next dz
            positive = acts[li] > 0.0
            dz = np.matmul(dz, layers[li][0], out=acts[li])
            dz *= positive
    return (float(loss) if loss.ndim == 0 else loss), grad


def epoch_batches(n: int, batch_size: int, rng: Sequence[np.random.Generator] | None
                  ) -> List[slice | Tuple[np.ndarray, np.ndarray]]:
    """One epoch's batches of a stack of models with n records each: the data as given,
    `slice(None)`, leaving `rng` untouched, when they fit one batch; else each of the K
    generators, one per model, draws its own `permutation(n)`, and a batch is the
    (models, records) pair that gathers model k's records from row k of the stack.
    """
    if n <= batch_size:
        return [slice(None)]
    order = np.stack([g.permutation(n) for g in rng])
    models = np.arange(len(order))[:, None]
    return [(models, order[:, start:start + batch_size]) for start in range(0, n, batch_size)]


def sgd_train(params: ModelParams, x: np.ndarray, y: np.ndarray, epochs: int, lr: float,
              batch_size: int, rng: Sequence[np.random.Generator] | None,
              anchor: np.ndarray | None = None, pull: float = 0.0,
              delta: np.ndarray | None = None) -> np.ndarray:
    """Plain minibatch SGD (no momentum) of a stack of models from `params`; returns the
    (K, d) delta = theta_after - theta_before.

    x is a (K, n, width) stack of K datasets of one size n with (K, n) labels, and `rng` one
    generator per model; row k of the delta is byte for byte the update of its k-th dataset
    alone with the k-th generator. Data that fit in one batch draw nothing, so `rng` may then
    be None. After each step a positive `pull` moves the delta that fraction of the way to
    `anchor`. Theta starts at params + delta, where delta is zero or, resuming an earlier call,
    a copy of the delta it returned. The stack is checked here, once per call and before the
    first step, so `loss_and_grad` and `epoch_batches` check nothing; the finiteness check is
    left to the caller, which knows whom to name.
    """
    if x.ndim != 3 or y.shape != x.shape[:2]:
        raise ShapeError(f"a training stack is (K, n, width) inputs with (K, n) labels, "
                         f"not {x.shape} and {y.shape}")
    k, n, width = x.shape
    if k < 1 or n < 1:
        raise TrainingError("cannot train on an empty dataset")
    if width != params.shapes[0][1]:
        raise ShapeError(f"inputs of width {width} do not match the model input width "
                         f"{params.shapes[0][1]}")
    if y.min() < 0 or y.max() >= params.num_classes:
        raise ShapeError("labels out of range for the model's class count")
    if rng is not None or n > batch_size:
        count = 0 if rng is None else len(rng)
        if count != k:
            raise ShapeError(f"a stack of {k} models trains with one generator per model, "
                             f"not {count}")
    delta = np.zeros((k, params.dim)) if delta is None else delta.copy()
    theta = ModelParams(params.flat + delta, params.shapes)
    for _ in range(epochs):
        for idx in epoch_batches(n, batch_size, rng):
            grad = loss_and_grad(theta, x[idx], y[idx])[1]
            grad *= lr  # scaling in place gives the same doubles as lr * grad
            delta -= grad
            del grad  # freed before the next gradient exists
            if pull > 0.0:
                delta -= pull * (delta - anchor)
            np.add(params.flat, delta, out=theta.flat)
    return delta


def local_train(
    params: ModelParams,
    data: LabeledDataset,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """`sgd_train` of one dataset as a stack of one, with one generator seeded by `seed`;
    returns the (d,) delta, unchecked like every row `sgd_train` returns.

    epochs, lr and batch_size are taken as SimConfig checked them.
    """
    return sgd_train(params, data.samples[None], data.labels[None], epochs, lr, batch_size,
                     [np.random.default_rng(seed)])[0]


def representation(params: ModelParams, aux: LabeledDataset) -> np.ndarray:
    """Mean penultimate activation over the auxiliary samples, one row per model of a stack."""
    _, pen = forward(params, aux.samples)
    return pen.mean(axis=-2)


def last_layer_weight_block(flat: np.ndarray, shapes: Sequence[Tuple[int, int]]) -> np.ndarray:
    """View of the final layer's weight matrix inside a flat vector."""
    return _layer_views(flat, shapes)[-1][0]
