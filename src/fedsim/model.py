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

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.shapes)


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
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(layers: Layers, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Logits plus the input of every layer: x, then each hidden ReLU output."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.mT + b[..., None, :], 0.0))
    w_last, b_last = layers[-1]
    return acts[-1] @ w_last.mT + b_last[..., None, :], acts


def forward(params: ModelParams, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run the network; returns (logits, penultimate activation).

    The penultimate activation is the input to the final linear layer: ReLU
    output of the last hidden layer, or the raw inputs for a one-layer net.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.shapes[0][1]:
        raise ShapeError(
            f"inputs of width {x.shape[-1] if x.ndim else '?'} do not match "
            f"first layer input width {params.shapes[0][1]}"
        )
    logits, acts = _forward(params.layers(), x)
    return logits, acts[-1]


def loss_and_grad(params: ModelParams, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch (x, y) and its exact analytic gradient.

    Backprop through the ReLU stack; the logits-layer gradient per sample is
    softmax(logits) - onehot(label), averaged over the batch. Each layer's
    gradient is written into its view of one flat vector. For a stack of
    models, shape (..., d), x is (..., n, width) and y is (..., n): one batch
    per model, all of one size n. The loss then has the leading shape and the
    gradient the stack's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    lead = params.flat.shape[:-1]
    if x.ndim != len(lead) + 2 or y.ndim != len(lead) + 1:
        raise ShapeError("inputs must be 2-D and labels 1-D for each model of the stack")
    n = x.shape[-2]
    if x.shape[:-1] != y.shape or y.shape[:-1] != lead:
        raise ShapeError("inputs and labels disagree on batch size")
    if n < 1:
        raise ShapeError("batch must contain at least one sample")
    if y.min() < 0 or y.max() >= params.num_classes:
        raise ShapeError("labels out of range for the model's class count")
    if x.shape[-1] != params.shapes[0][1]:
        raise ShapeError("batch width does not match the model input width")
    layers = params.layers()
    logits, acts = _forward(layers, x)

    probs = softmax(logits)
    m = probs.shape[-1]
    rows, labels = np.arange(y.size), y.reshape(-1)
    # clip only inside the log; the gradient uses the exact probabilities
    picked = probs.reshape(-1, m)[rows, labels].reshape(y.shape)
    loss = -np.mean(np.log(np.maximum(picked, 1e-300)), axis=-1)
    dz = probs  # edited in place: the loss has been read
    dz.reshape(-1, m)[rows, labels] -= 1.0
    dz /= n

    grad = np.empty(params.flat.shape)
    grads = _layer_views(grad, params.shapes)
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(dz.mT, acts[li], out=gw)
        dz.sum(axis=-2, out=gb)
        if li > 0:
            # a ReLU output is positive exactly where its pre-activation is
            dz = (dz @ layers[li][0]) * (acts[li] > 0.0)
    return (float(loss) if loss.ndim == 0 else loss), grad


def finite_update(delta: np.ndarray) -> np.ndarray:
    """`delta` itself, once every entry is known to be finite."""
    if not np.all(np.isfinite(delta)):
        raise TrainingError("non-finite update")
    return delta


def epoch_batches(n: int, batch_size: int,
                  rng: np.random.Generator | Sequence[np.random.Generator] | None
                  ) -> List[slice | np.ndarray | Tuple[np.ndarray, np.ndarray]]:
    """One epoch's batches of n records: the data as given, `slice(None)`, leaving `rng`
    untouched, when they fit one batch; else consecutive slices of a fresh permutation.

    With one generator a batch indexes the first axis of one model's data. With a sequence
    of K, one per model of a stack, each draws its own `permutation(n)`, and a batch is the
    (models, records) pair that gathers model k's records from row k of the stack.
    """
    if n <= batch_size:
        return [slice(None)]
    if isinstance(rng, np.random.Generator):
        order = rng.permutation(n)
        return [order[start:start + batch_size] for start in range(0, n, batch_size)]
    order = np.stack([g.permutation(n) for g in rng])
    models = np.arange(len(order))[:, None]
    return [(models, order[:, start:start + batch_size]) for start in range(0, n, batch_size)]


def sgd_step(params: ModelParams, theta: ModelParams, delta: np.ndarray, grad: np.ndarray,
             lr: float, anchor: np.ndarray | None = None, pull: float = 0.0) -> None:
    """One step in place: delta -= lr * grad, then theta = params + delta.

    The update is accumulated directly, so one step yields -lr*grad exactly;
    scaling `grad` in place gives the same doubles as lr * grad. Before theta
    is written, a positive `pull` moves delta that fraction of the way to `anchor`.
    """
    grad *= lr
    delta -= grad
    if pull > 0.0:
        delta -= pull * (delta - anchor)
    np.add(params.flat, delta, out=theta.flat)


def sgd_train(params: ModelParams, x: np.ndarray, y: np.ndarray, epochs: int, lr: float,
              batch_size: int,
              rng: np.random.Generator | Sequence[np.random.Generator] | None) -> np.ndarray:
    """Plain minibatch SGD (no momentum) from `params`; returns delta = theta_after - theta_before.

    x is one model's (n, width) data with (n,) labels and `rng` one generator, or a
    (K, n, width) stack with (K, n) labels and one generator per model; `params` is tiled
    to x's leading shape, and row k of a stack's (K, d) delta is byte for byte the update
    of its k-th dataset alone with the k-th generator. Each epoch's batches come from
    `epoch_batches`. Data that fit in one batch draw nothing, so `rng` may then be None.
    The finiteness check is left to the caller, which knows whom to name.
    """
    lead, n = x.shape[:-2], x.shape[-2]
    if n < 1:
        raise TrainingError("cannot train on an empty dataset")
    if lead and (rng is not None or n > batch_size):
        count = 0 if rng is None else len(rng)
        if lead != (count,):
            raise ShapeError(f"a stack of shape {lead} trains with one generator per model, "
                             f"not {count}")
    theta = ModelParams(np.tile(params.flat, lead + (1,)), params.shapes)
    delta = np.zeros(theta.flat.shape)
    for _ in range(epochs):
        for idx in epoch_batches(n, batch_size, rng):
            # the gradient is left unbound, so it is freed before the next one exists
            sgd_step(params, theta, delta, loss_and_grad(theta, x[idx], y[idx])[1], lr)
    return delta


def local_train(
    params: ModelParams,
    data: LabeledDataset,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """`sgd_train` of one dataset, with one generator seeded by `seed`; returns the finite delta.

    epochs, lr and batch_size are taken as SimConfig checked them.
    """
    return finite_update(sgd_train(params, data.samples, data.labels, epochs, lr, batch_size,
                                   np.random.default_rng(seed)))


def representation(params: ModelParams, aux: LabeledDataset) -> np.ndarray:
    """Mean penultimate activation over the auxiliary samples, one row per model of a stack."""
    if aux.size < 1:
        raise ShapeError("auxiliary batch must be non-empty")
    _, pen = forward(params, aux.samples)
    return pen.mean(axis=-2)


def last_layer_weight_block(flat: np.ndarray, shapes: Sequence[Tuple[int, int]]) -> np.ndarray:
    """View of the final layer's weight matrix inside a flat vector."""
    return ModelParams(flat, shapes).layers()[-1][0]
