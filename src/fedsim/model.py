"""Feedforward classifier with analytic gradients and local SGD training.

Parameters live in one flat float64 vector; (weight, bias) views are
reconstructed on demand from the recorded layer shapes. Hidden layers use
ReLU, so the inputs to the final linear layer are non-negative -- a property
the server-side label inference relies on. All functions are pure and
deterministic given (params, data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ShapeError, TrainingError

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


def flatten(layers: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Pack (weight, bias) pairs into a single flat vector."""
    parts = []
    for w, b in layers:
        parts.append(np.asarray(w, dtype=np.float64).ravel())
        parts.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(parts)


@dataclass
class ModelUpdate:
    """Difference between a locally trained model and the global model."""

    delta: np.ndarray
    client_id: int = -1
    round_index: int = -1

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if not np.all(np.isfinite(self.delta)):
            raise TrainingError(f"non-finite update from client {self.client_id}")


@dataclass
class Batch:
    """A batch of samples with integer labels in [0, num_classes)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeError("inputs and labels disagree on batch size")
        if self.inputs.shape[0] < 1:
            raise ShapeError("batch must contain at least one sample")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def init_model(layer_dims: Sequence[int], seed: int, zero_last: bool = False) -> ModelParams:
    """Seeded Glorot-uniform weights (U[-s, s], s = sqrt(6/(in+out))), zero biases.

    layer_dims lists widths input-first, e.g. [32, 64, 10] for one hidden
    layer of 64 units and 10 output classes. zero_last zeroes the final
    layer's weights as well, making the untrained model's predictions
    exactly uniform -- useful when the server reads class information out
    of early updates.
    """
    if len(layer_dims) < 2:
        raise ConfigError("layer_dims needs at least an input and an output width")
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
    layers = params.layers()
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(a @ w.T + b, 0.0)
    w_last, b_last = layers[-1]
    logits = a @ w_last.T + b_last
    return logits, a


def loss_and_grad(params: ModelParams, batch: Batch) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact analytic gradient.

    Backprop through the ReLU stack; the logits-layer gradient per sample is
    softmax(logits) - onehot(label), averaged over the batch.
    """
    x, y = batch.inputs, batch.labels
    if y.min(initial=0) < 0 or y.max(initial=0) >= params.num_classes:
        raise ShapeError("labels out of range for the model's class count")
    layers = params.layers()
    # forward, caching pre-activations
    acts = [np.asarray(x, dtype=np.float64)]
    if acts[0].shape[1] != params.shapes[0][1]:
        raise ShapeError("batch width does not match the model input width")
    pre = []
    a = acts[0]
    for w, b in layers[:-1]:
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    w_last, b_last = layers[-1]
    logits = a @ w_last.T + b_last

    probs = softmax(logits)
    n = batch.size
    # clip only inside the log; the gradient uses the exact probabilities
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), y], 1e-300))))

    dz = probs.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n

    grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        gw = dz.T @ acts[li]
        gb = dz.sum(axis=0)
        grads[li] = (gw, gb)
        if li > 0:
            da = dz @ w
            dz = da * (pre[li - 1] > 0.0)
    return loss, flatten(grads)


def local_train(
    params: ModelParams,
    data: Batch,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
    client_id: int = -1,
    round_index: int = -1,
    on_step: Optional[Callable[[int, ModelParams, np.ndarray], None]] = None,
) -> ModelUpdate:
    """Plain minibatch SGD (no momentum); returns delta = theta_after - theta_before.

    Batches are drawn by a seeded per-epoch shuffle. An epoch that fits in a
    single batch skips the shuffle, so the one-batch case reduces exactly to
    one gradient step on the data as given. `on_step` (step index, current
    params, flat gradient) is invoked after each gradient evaluation; it is
    used by tests to audit the accumulated-gradient identity.
    """
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if lr < 0:
        raise ConfigError("learning rate must be >= 0")
    if data.size < 1:
        raise TrainingError("cannot train on an empty dataset")
    rng = np.random.default_rng(seed)
    theta = params.copy()
    # the update is accumulated directly so one step yields -lr*grad exactly
    delta = np.zeros(params.dim)
    n = data.size
    step = 0
    for _ in range(epochs):
        if batch_size >= n:
            order = np.arange(n)
        else:
            order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grad = loss_and_grad(theta, Batch(data.inputs[idx], data.labels[idx]))
            if on_step is not None:
                on_step(step, theta, grad)
            delta -= lr * grad
            theta.flat = params.flat + delta
            step += 1
    return ModelUpdate(delta, client_id=client_id, round_index=round_index)


def representation(params: ModelParams, aux: Batch) -> np.ndarray:
    """Mean penultimate activation over the auxiliary samples."""
    if aux.size < 1:
        raise ShapeError("auxiliary batch must be non-empty")
    _, pen = forward(params, aux.inputs)
    return pen.mean(axis=0)


def last_layer_weight_block(flat: np.ndarray, shapes: Sequence[Tuple[int, int]]) -> np.ndarray:
    """View of the final layer's weight matrix inside a flat vector."""
    return ModelParams(flat, list(shapes)).layers()[-1][0]
