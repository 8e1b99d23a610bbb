"""Feedforward classifier with analytic gradients and local SGD training.

Parameters live in one flat float64 vector; (weight, bias) views are
reconstructed on demand from the recorded layer shapes. Hidden layers use
ReLU, so the inputs to the final linear layer are non-negative -- a property
the server-side label inference relies on. All functions are pure and
deterministic given (params, data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .data import LabeledDataset
from .errors import ShapeError, TrainingError

Shapes = List[Tuple[int, int]]


def param_dim(shapes: Sequence[Tuple[int, int]]) -> int:
    """Total parameter count: sum of out*in + out over layers."""
    return int(sum(out * inp + out for out, inp in shapes))


@dataclass
class ModelParams:
    """Flat parameter vector plus the (out, in) shape of every layer."""

    flat: np.ndarray
    shapes: Shapes

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.ndim != 1 or self.flat.size != param_dim(self.shapes):
            raise ShapeError(
                f"flat vector of length {self.flat.size} does not match "
                f"shapes {self.shapes} (need {param_dim(self.shapes)})"
            )

    @property
    def dim(self) -> int:
        return self.flat.size

    @property
    def num_classes(self) -> int:
        return self.shapes[-1][0]

    def layers(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into the flat vector, in layer order."""
        out = []
        off = 0
        for rows, cols in self.shapes:
            w = self.flat[off:off + rows * cols].reshape(rows, cols)
            off += rows * cols
            b = self.flat[off:off + rows]
            off += rows
            out.append((w, b))
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), list(self.shapes))


def init_model(layer_dims: Sequence[int], seed: int, zero_last: bool = False) -> ModelParams:
    """Seeded Glorot-uniform weights (U[-s, s], s = sqrt(6/(in+out))), zero biases.

    layer_dims lists widths input-first, e.g. [32, 64, 10] for one hidden
    layer of 64 units and 10 output classes. zero_last zeroes the final
    layer's weights as well, making the untrained model's predictions
    exactly uniform -- useful when the server reads class information out
    of early updates.
    """
    rng = np.random.default_rng(seed)
    shapes = [(layer_dims[i + 1], layer_dims[i]) for i in range(len(layer_dims) - 1)]
    parts = []
    for li, (rows, cols) in enumerate(shapes):
        s = np.sqrt(6.0 / (rows + cols))
        w = rng.uniform(-s, s, size=rows * cols)
        if zero_last and li == len(shapes) - 1:
            w = np.zeros(rows * cols)
        parts.append(w)
        parts.append(np.zeros(rows))
    return ModelParams(np.concatenate(parts), shapes)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(
    layers: List[Tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Logits plus the input of every layer: x, then each hidden ReLU output."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    w_last, b_last = layers[-1]
    return acts[-1] @ w_last.T + b_last, acts


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
    gradient is written into its view of one flat vector.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.ndim != 1:
        raise ShapeError("inputs must be 2-D and labels 1-D")
    n = x.shape[0]
    if n != y.shape[0]:
        raise ShapeError("inputs and labels disagree on batch size")
    if n < 1:
        raise ShapeError("batch must contain at least one sample")
    if y.min() < 0 or y.max() >= params.num_classes:
        raise ShapeError("labels out of range for the model's class count")
    if x.shape[1] != params.shapes[0][1]:
        raise ShapeError("batch width does not match the model input width")
    layers = params.layers()
    logits, acts = _forward(layers, x)

    probs = softmax(logits)
    # clip only inside the log; the gradient uses the exact probabilities
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), y], 1e-300))))
    dz = probs  # edited in place: the loss has been read
    dz[np.arange(n), y] -= 1.0
    dz /= n

    grad = np.empty(params.dim)
    grads = ModelParams(grad, params.shapes).layers()
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(dz.T, acts[li], out=gw)
        dz.sum(axis=0, out=gb)
        if li > 0:
            # a ReLU output is positive exactly where its pre-activation is
            dz = (dz @ layers[li][0]) * (acts[li] > 0.0)
    return loss, grad


def finite_update(delta: np.ndarray) -> np.ndarray:
    """`delta` itself, once every entry is known to be finite."""
    if not np.all(np.isfinite(delta)):
        raise TrainingError("non-finite update")
    return delta


def local_train(
    params: ModelParams,
    data: LabeledDataset,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
) -> np.ndarray:
    """Plain minibatch SGD (no momentum); returns delta = theta_after - theta_before.

    Batches are drawn by a seeded per-epoch shuffle. An epoch that fits in a
    single batch skips the shuffle, so the one-batch case reduces exactly to
    one gradient step on the data as given. epochs, lr and batch_size are
    taken as SimConfig checked them; only the data is checked here.
    """
    if data.size < 1:
        raise TrainingError("cannot train on an empty dataset")
    rng = np.random.default_rng(seed)
    theta = params.copy()
    # the update is accumulated directly so one step yields -lr*grad exactly
    delta = np.zeros(params.dim)
    n = data.size
    for _ in range(epochs):
        if batch_size >= n:
            order = np.arange(n)
        else:
            order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grad = loss_and_grad(theta, data.samples[idx], data.labels[idx])
            delta -= lr * grad
            theta.flat = params.flat + delta
    return finite_update(delta)


def representation(params: ModelParams, aux: LabeledDataset) -> np.ndarray:
    """Mean penultimate activation over the auxiliary samples."""
    if aux.size < 1:
        raise ShapeError("auxiliary batch must be non-empty")
    _, pen = forward(params, aux.samples)
    return pen.mean(axis=0)


def last_layer_weight_block(flat: np.ndarray, shapes: Sequence[Tuple[int, int]]) -> np.ndarray:
    """View of the final layer's weight matrix inside a flat vector."""
    return ModelParams(flat, list(shapes)).layers()[-1][0]
