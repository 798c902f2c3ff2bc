"""Mini-batch SGD on softmax cross-entropy, with hand-written gradients.

Reverse-mode derivatives are exact (the softmax + cross-entropy pair
collapses to probabilities minus one-hot), and the whole loop is driven by
one seeded generator, so a (net, cloud, config) triple always reproduces the
same history bit for bit.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from .network import (
    IDENTITY,
    RELU,
    SOFTMAX,
    Mlp,
    _apply_layer,
    forward_batch,
    strict_argmax_batch,
)
from .numerics import as_vector, make_rng


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 500
    batch_size: int = 32
    seed: int = 0
    target_accuracy: float = 0.999  # None disables early stopping

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.target_accuracy is not None and not 0.0 < self.target_accuracy <= 1.0:
            raise ConfigError("target_accuracy must lie in (0, 1]")


@dataclass(frozen=True)
class TrainHistory:
    losses: tuple  # mean per-sample loss, one entry per epoch run
    accuracies: tuple  # training accuracy after the epoch's updates

    def __post_init__(self):
        if len(self.losses) != len(self.accuracies):
            raise ConfigError("losses and accuracies must have equal length")
        if not all(np.isfinite(v) for v in self.losses):
            raise ConfigError("losses must be finite")

    def epochs_run(self):
        return len(self.losses)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "accuracy"])
            for i, (loss, acc) in enumerate(zip(self.losses, self.accuracies), start=1):
                writer.writerow([i, repr(float(loss)), repr(float(acc))])


def cross_entropy(p, label):
    """Negative log probability of the true label."""
    p = as_vector(p, "p")
    if not isinstance(label, (int, np.integer)) or not 0 <= label < p.size:
        raise IndexError(f"label {label} out of range for {p.size} classes")
    value = p[label]
    if value <= 0.0:
        raise DomainError("probabilities must be strictly positive")
    return float(-np.log(value))


def _require_softmax(net):
    if net.layers[-1].activation != SOFTMAX:
        raise ConfigError("training requires a softmax final layer")


def _forward_store(layers, xs):
    """Forward pass keeping every activation (input first) and every z."""
    acts = [xs]
    zs = []
    for layer in layers:
        z, a = _apply_layer(layer, acts[-1])
        zs.append(z)
        acts.append(a)
    return acts, zs


def _batch_backward(layers, xs, labels):
    """Summed gradients over the batch plus the per-sample loss sum."""
    acts, zs = _forward_store(layers, xs)
    probs = acts[-1]
    rows = np.arange(xs.shape[0])
    loss_sum = float(-np.log(probs[rows, labels]).sum())

    delta = probs.copy()
    delta[rows, labels] -= 1.0
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = delta @ layers[i].weight
            prev_act = layers[i - 1].activation
            if prev_act == RELU:
                # subgradient at exactly 0 is 0
                delta = delta * (zs[i - 1] > 0.0)
            elif prev_act != IDENTITY:
                raise ConfigError("softmax below the final layer is not differentiable here")
    return grads, loss_sum


def _copy_layer(layer):
    return replace(layer, weight=layer.weight.copy(), bias=layer.bias.copy())


def gradients(net, x, label):
    """Per-layer (weight gradient, bias gradient) of the single-sample loss."""
    _require_softmax(net)
    x = as_vector(x, "x")
    if not 0 <= label < net.output_dim:
        raise IndexError(f"label {label} out of range for {net.output_dim} classes")
    grads, _ = _batch_backward(net.layers, x[np.newaxis, :], np.array([label]))
    return grads


def accuracy(net, cloud):
    """Fraction of points whose strict-argmax output matches the label.

    Ties count as misclassifications: a tied output sits on a Voronoi
    boundary, not in any cell's interior.
    """
    outputs = forward_batch(net, cloud.points)
    preds, _ = strict_argmax_batch(outputs)
    return float((preds == cloud.labels).mean())


def train(net, cloud, cfg):
    """Mini-batch SGD with a fixed learning rate; returns (net, history).

    Shuffles per epoch from cfg.seed, updates with the batch-mean gradient,
    and stops early once training accuracy reaches cfg.target_accuracy.
    """
    _require_softmax(net)
    if cloud.dim != net.input_dim:
        raise ConfigError(
            f"net expects inputs of dim {net.input_dim}, data has dim {cloud.dim}"
        )
    if net.output_dim != cloud.class_count:
        raise ConfigError(
            f"net has {net.output_dim} outputs but data has {cloud.class_count} classes"
        )

    # private copies, updated in place (LayerSpec is frozen, its arrays are not)
    layers = [_copy_layer(layer) for layer in net.layers]

    rng = make_rng(cfg.seed)
    n = len(cloud)
    losses = []
    accuracies = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads, loss_sum = _batch_backward(layers, cloud.points[batch], cloud.labels[batch])
            epoch_loss += loss_sum
            step = cfg.learning_rate / batch.size
            for layer, (dw, db) in zip(layers, grads):
                np.subtract(layer.weight, step * dw, out=layer.weight)
                np.subtract(layer.bias, step * db, out=layer.bias)
        losses.append(epoch_loss / n)
        acts, _ = _forward_store(layers, cloud.points)
        preds, _ = strict_argmax_batch(acts[-1])
        acc = float((preds == cloud.labels).mean())
        accuracies.append(acc)
        if cfg.target_accuracy is not None and acc >= cfg.target_accuracy:
            break
    # copying through LayerSpec re-checks that the weights stayed finite
    trained = Mlp(layers=tuple(_copy_layer(layer) for layer in layers))
    return trained, TrainHistory(losses=tuple(losses), accuracies=tuple(accuracies))
