"""Mini-batch SGD on softmax cross-entropy, with hand-written gradients.

Reverse-mode derivatives are exact (the softmax + cross-entropy pair
collapses to probabilities minus one-hot).  One loop trains a stack of nets
of one shape in lock-step, each shuffled by its own seeded generator, so a
(net, cloud, config) triple reproduces the same history bit for bit whether
it trains alone or in a stack.

A numpy reduction over the short class axis runs one inner loop per row, so
the softmax, the picked probability and the epoch's strict argmax reduce
over it column by column, in class order: numpy's ``sum(axis=-1)`` order up
to 7 classes, while from 8 on numpy unrolls and may differ in the last bits.
The loss is computed once per epoch, from the probabilities every batch
left in one buffer, with the same sums in the same order as per batch.
"""

import csv
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .network import (
    IDENTITY,
    RELU,
    SOFTMAX,
    LayerSpec,
    Mlp,
    _apply_layer,
    _columns,
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


@dataclass
class _LayerStack:
    """One layer of S nets: weights (S, out, in), biases (S, 1, out)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        self.weight_t = self.weight.swapaxes(-1, -2)  # a view, built once per stack


def _layer_views(flat, template):
    """The layers of ``template``'s shape as views into an (S, P) array."""
    layers, start = [], 0
    for layer in template.layers:
        out_dim, in_dim = layer.weight.shape
        stop = start + out_dim * in_dim
        layers.append(
            _LayerStack(
                flat[:, start:stop].reshape(-1, out_dim, in_dim),
                flat[:, stop : stop + out_dim].reshape(-1, 1, out_dim),
                layer.activation,
            )
        )
        start = stop + out_dim
    return layers


class _NetStack:
    """S nets of one shape with all their parameters in one (S, P) array.

    ``layers`` views ``params`` layer by layer; ``grads`` views ``grad``, a
    buffer of the same layout that each SGD step fills and then subtracts.
    """

    def __init__(self, params, template):
        self.params = params
        self.template = template
        self.layers = _layer_views(params, template)
        self.grad = np.empty_like(params)
        self.grads = _layer_views(self.grad, template)

    @classmethod
    def of(cls, nets):
        rows = [
            np.concatenate([a.ravel() for layer in net.layers for a in (layer.weight, layer.bias)])
            for net in nets
        ]
        return cls(np.stack(rows), nets[0])

    def keep(self, rows):
        return _NetStack(self.params[rows], self.template)

    def net(self, row):
        """One row as a net with its own arrays."""
        return Mlp(
            tuple(
                LayerSpec(layer.weight[row].copy(), layer.bias[row, 0].copy(), layer.activation)
                for layer in self.layers
            )
        )


def _batch_backward(stack, xs, targets, probs=None):
    """Fill ``stack.grads`` with each net's gradient summed over the batch.

    ``xs`` is (S, B, in) and ``targets`` the one-hot labels, (S, B, classes).
    The softmax probabilities are written into ``probs`` when it is given.
    """
    layers, grads = stack.layers, stack.grads
    acts, zs = [xs], []  # every activation (input first) and every z
    for layer in layers:
        z, a = _apply_layer(layer, acts[-1], out=probs)
        zs.append(z)
        acts.append(a)

    delta = acts[-1] - targets
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=grads[i].weight)
        np.add.reduce(delta, axis=1, keepdims=True, out=grads[i].bias)
        if i > 0:
            delta = delta @ layers[i].weight
            prev_act = layers[i - 1].activation
            if prev_act == RELU:
                # subgradient at exactly 0 is 0
                delta *= zs[i - 1] > 0.0
            elif prev_act != IDENTITY:
                raise ConfigError("softmax below the final layer is not differentiable here")


def gradients(net, x, label):
    """Per-layer (weight gradient, bias gradient) of the single-sample loss."""
    _require_softmax(net)
    x = as_vector(x, "x")
    if not 0 <= label < net.output_dim:
        raise IndexError(f"label {label} out of range for {net.output_dim} classes")
    stack = _NetStack.of([net])
    targets = np.eye(net.output_dim)[np.array([[label]])]
    _batch_backward(stack, x[np.newaxis, np.newaxis, :], targets)
    return [(g.weight[0], g.bias[0, 0]) for g in stack.grads]


def accuracy(net, cloud):
    """Fraction of points whose strict-argmax output matches the label.

    Ties count as misclassifications: a tied output sits on a Voronoi
    boundary, not in any cell's interior.
    """
    outputs = forward_batch(net, cloud.points)
    preds, _ = strict_argmax_batch(outputs)
    return float((preds == cloud.labels).mean())


def _check_stack(nets, cloud, cfgs):
    if not nets or len(nets) != len(cfgs):
        raise ConfigError("train_many needs at least one net and one config per net")
    def shape(net):
        return [(layer.weight.shape, layer.activation) for layer in net.layers]

    if any(shape(net) != shape(nets[0]) for net in nets):
        raise ConfigError("nets trained together must have the same layer shapes and activations")
    if len({(c.learning_rate, c.epochs, c.batch_size) for c in cfgs}) > 1:
        raise ConfigError("nets trained together must share learning_rate, epochs and batch_size")
    net = nets[0]
    _require_softmax(net)
    if cloud.dim != net.input_dim:
        raise ConfigError(f"net expects inputs of dim {net.input_dim}, data has dim {cloud.dim}")
    if net.output_dim != cloud.class_count:
        raise ConfigError(
            f"net has {net.output_dim} outputs but data has {cloud.class_count} classes"
        )


def _require_finite(epoch, epoch_loss, stack, live, cfgs):
    finite = np.isfinite(epoch_loss) & np.isfinite(stack.params).all(axis=1)
    if not finite.all():
        k = live[int(np.argmin(finite))]
        raise NumericalError(
            f"training diverged in epoch {epoch} of the net with seed {cfgs[k].seed}: "
            "the loss or a weight is not finite (try a smaller learning rate)"
        )


def _sgd_epoch(stack, xs, targets, lr, batch_size):
    """One pass over the (S, n) shuffled points and one-hot targets, in place.

    Returns each net's summed per-sample loss.  The batches write their
    probabilities into one (S, n, classes) buffer, and the loss is taken
    from it once: each batch's log-probabilities are summed as one
    contiguous row (numpy's pairwise sum), and the sums are subtracted in
    batch order, which adds their negations bit for bit, as when each batch
    returned its own loss.
    """
    nets, n = xs.shape[:2]
    probs = np.empty(targets.shape)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        _batch_backward(stack, xs[:, start:stop], targets[:, start:stop], probs[:, start:stop])
        stack.grad *= lr / (stop - start)
        stack.params -= stack.grad
    # exact: a row of probs is all NaN or >= 0, so all terms but the label's
    # are +0.0; a probability of 0 gives an infinite loss: run under
    # np.errstate(divide="ignore") and check the result
    logs = np.log(reduce(np.add, _columns(probs * targets))[..., 0])
    full = n - n % batch_size
    batch_sums = list(logs[:, :full].reshape(nets, -1, batch_size).sum(axis=2).T)
    if full < n:
        batch_sums.append(logs[:, full:].sum(axis=1))
    epoch_loss = np.zeros(nets)
    for batch_sum in batch_sums:
        epoch_loss -= batch_sum
    return epoch_loss


def train_many(nets, cloud, cfgs):
    """Mini-batch SGD on several nets of one shape at once; one (net, history) per net.

    Each net shuffles per epoch from its own cfg.seed, updates with the
    batch-mean gradient, and leaves the stack once its training accuracy
    reaches its cfg.target_accuracy, so every result is bit-identical to
    training that net alone.  The configs must share learning_rate, epochs
    and batch_size.  A loss or weight that stops being finite raises
    NumericalError at the end of its epoch.
    """
    nets, cfgs = list(nets), list(cfgs)
    _check_stack(nets, cloud, cfgs)
    lr, epochs, batch_size = cfgs[0].learning_rate, cfgs[0].epochs, cfgs[0].batch_size
    points, labels = cloud.points, cloud.labels
    one_hot = np.eye(cloud.class_count)
    n = len(cloud)

    stack = _NetStack.of(nets)
    live = list(range(len(nets)))  # the net behind each row of the stack
    rngs = [make_rng(cfg.seed) for cfg in cfgs]
    losses = [[] for _ in nets]
    accuracies = [[] for _ in nets]
    results = [None] * len(nets)
    # a diverging net takes log(0) or overflows; _require_finite turns
    # that into a NumericalError at the end of the epoch
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            order = np.stack([rngs[k].permutation(n) for k in live])
            xs, targets = points[order], one_hot[labels[order]]
            epoch_loss = _sgd_epoch(stack, xs, targets, lr, batch_size) / n
            _require_finite(epoch, epoch_loss, stack, live, cfgs)
            outputs = points  # broadcast against the stack: (S, n, class_count) at the end
            for layer in stack.layers:
                _, outputs = _apply_layer(layer, outputs)
            preds, _ = strict_argmax_batch(outputs.reshape(-1, cloud.class_count))
            accs = (preds.reshape(len(live), n) == labels).mean(axis=1)

            keep = []
            for row, k in enumerate(live):
                losses[k].append(float(epoch_loss[row]))
                accuracies[k].append(float(accs[row]))
                target = cfgs[k].target_accuracy
                if epoch == epochs or (target is not None and accs[row] >= target):
                    history = TrainHistory(tuple(losses[k]), tuple(accuracies[k]))
                    results[k] = (stack.net(row), history)
                else:
                    keep.append(row)
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[row] for row in keep]
                stack = stack.keep(keep)
    return results


def train(net, cloud, cfg):
    """Mini-batch SGD with a fixed learning rate; returns (net, history).

    Shuffles per epoch from cfg.seed, updates with the batch-mean gradient,
    and stops early once training accuracy reaches cfg.target_accuracy.
    """
    return train_many([net], cloud, [cfg])[0]
