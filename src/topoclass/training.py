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

A step's cost is numpy call overhead, not arithmetic: a ``2,1,2`` step is
20 ufunc calls on arrays of 32-64 floats, a paper-net step 52.  So each
stack builds its epoch once (``_Epoch``, rebuilt when nets leave) as a flat
list of ``(ufunc, args)`` calls on buffers allocated once: the shuffled
points, one-hot targets and probabilities of ``CHUNK_BATCHES`` batches,
which ``np.take`` refills, and one set of step buffers per batch size,
shared by all batches of that size.  Every view is made when the list is
built, and a chunk is ``for f, args in calls: f(*args)``; a longer epoch
runs one list for all its full chunks and one for the last, so the lists
do not grow with the number of batches.  The forward calls come from
``network._chain_calls``, which evaluation runs too.  ``gradients`` runs
the same step calls on one point, without the update.

The rest of an epoch runs on buffers allocated once per stack too.  Each
net shuffles an ``arange(n)`` copied into its row of an (S, n) order
buffer, which is what ``Generator.permutation(n)`` does.  The accuracy
after the updates (``_Accuracy``) runs the same forward calls on
(S, n, width) buffers, then ``strict_argmax_batch`` on all S·n rows at
once: the tie rule is written once, in ``network``.  Its temporaries are
(S·n)-sized, so an epoch after the first allocates no (S, n, width) array.
Constant operands, such as the update's ``lr / B``, are 0-d arrays, which
numpy does not convert on every call.

Two choices keep the bits.  The relu mask is ``sign`` of the relu output,
a float array that ``delta`` multiplies on numpy's same-type fast path (a
bool mask casts).  It equals ``z > 0`` except where ``z`` is NaN, and then
that net's loss for the epoch is NaN too, so training stops in the same
epoch with the same error.  The per-batch loss sums are added in batch
order by ``np.add.accumulate``: ``np.add.reduce`` would sum each net's
contiguous row of batch sums pairwise, which differs in the last bits.
"""

from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .errors import ConfigError, DomainError, NumericalError
from .network import (
    IDENTITY,
    RELU,
    SOFTMAX,
    LayerSpec,
    Mlp,
    _chain_calls,
    _fold_columns,
    _run,
    _softmax_buffers,
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
        rows = enumerate(zip(self.losses, self.accuracies), start=1)
        cells = ((str(i), repr(float(loss)), repr(float(acc))) for i, (loss, acc) in rows)
        write_csv(path, ["epoch", "loss", "accuracy"], cells)


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


def _step_buffers(stack, size):
    """Per layer an activation and a delta of ``size`` rows; the softmax's scratch."""
    nets, classes = len(stack.params), stack.template.output_dim
    acts = [np.empty((nets, size, layer.weight.shape[1])) for layer in stack.layers]
    deltas = [np.empty_like(a) for a in acts]
    return acts, deltas, _softmax_buffers((nets, size, classes))


def _step_calls(stack, xs, targets, probs, buffers):
    """One batch's forward and backward pass as a list of (ufunc, args) calls.

    ``xs`` is (S, B, in), and ``targets`` (one-hot) and ``probs`` are
    (S, B, classes); ``buffers`` come from ``_step_buffers(stack, B)``.  The
    calls write the softmax probabilities into ``probs`` and each net's
    gradient summed over the batch into ``stack.grads``.
    """
    layers, grads = stack.layers, stack.grads
    acts, deltas, softmax = buffers
    # a relu writes its output over z: the backward pass needs only that
    outs = [probs if layer.activation == SOFTMAX else z for layer, z in zip(layers, acts)]
    calls = _chain_calls(layers, xs, acts, outs, softmax)

    delta = deltas[-1]
    calls.append((np.subtract, (probs, targets, delta)))
    for i in range(len(layers) - 1, -1, -1):
        below = acts[i - 1] if i > 0 else xs
        calls += [
            (np.matmul, (delta.swapaxes(-1, -2), below, grads[i].weight)),
            (np.add.reduce, (delta, 1, None, grads[i].bias, True)),
        ]
        if i > 0:
            calls.append((np.matmul, (delta, layers[i].weight, deltas[i - 1])))
            delta = deltas[i - 1]
            prev_act = layers[i - 1].activation
            if prev_act == RELU:
                # the relu's output, no longer needed, becomes its mask:
                # sign(max(z, 0)) is 1.0 where z > 0, else 0.0 (NaN for NaN)
                calls += [(np.sign, (below, below)), (np.multiply, (delta, below, delta))]
            elif prev_act != IDENTITY:
                raise ConfigError("softmax below the final layer is not differentiable here")
    return calls


# An epoch of more batches than this runs one call list per chunk of this
# many, so the lists' size stays bounded whatever the points per batch.
CHUNK_BATCHES = 32


class _Chunk:
    """SGD steps over ``rows`` points of a stack, as a flat list of calls.

    Batches of ``batch_size`` points, the last one shorter if it must.
    The shuffled points ``xs`` (S, rows, in) and their one-hot ``targets``
    are filled before each run, and ``probs`` keeps every batch's
    probabilities (S, rows, classes); all batches of one size share the
    step buffers in ``steps``.  Every view (batch slices, transposed
    deltas, class columns) is made here, once, so a run allocates no
    arrays.  The last calls leave each batch's summed log-probability of
    the labels in ``sums`` (S, batches).
    """

    def __init__(self, stack, rows, batch_size, lr, steps):
        nets, template = len(stack.params), stack.template
        self.xs = np.empty((nets, rows, template.input_dim))
        self.targets = np.empty((nets, rows, template.output_dim))
        self.probs = np.empty_like(self.targets)
        self.calls = []
        for start in range(0, rows, batch_size):
            stop = min(start + batch_size, rows)
            size = stop - start
            if size not in steps:
                steps[size] = _step_buffers(stack, size)
            batch = slice(start, stop)
            self.calls += _step_calls(
                stack, self.xs[:, batch], self.targets[:, batch], self.probs[:, batch], steps[size]
            )
            self.calls += [
                (np.multiply, (stack.grad, np.array(lr / size), stack.grad)),
                (np.subtract, (stack.params, stack.grad, stack.params)),
            ]
        self._loss_calls(rows, batch_size)

    def _loss_calls(self, rows, batch_size):
        # exact: a row of probs is all NaN or >= 0, so all terms but the
        # label's are +0.0; a probability of 0 gives an infinite loss: run
        # under np.errstate(divide="ignore") and check the result
        nets, full = self.xs.shape[0], rows - rows % batch_size
        batches = full // batch_size
        logs = np.empty((nets, rows, 1))
        fold, picked = _fold_columns(np.add, self.targets, logs)
        self.calls += [(np.multiply, (self.probs, self.targets, self.targets))] + fold
        self.calls.append((np.log, (picked, logs)))
        # each batch's log-probabilities summed as one contiguous row
        # (numpy's pairwise sum)
        logs = logs[..., 0]
        self.sums = np.empty((nets, batches + (full < rows)))
        if batches:
            by_batch = logs[:, :full].reshape(nets, batches, batch_size)
            self.calls.append((np.add.reduce, (by_batch, 2, None, self.sums[:, :batches])))
        if full < rows:
            self.calls.append((np.add.reduce, (logs[:, full:], 1, None, self.sums[:, batches])))


class _Epoch:
    """One SGD epoch of a stack over n points, in chunks of ``CHUNK_BATCHES`` batches.

    Every chunk but the last runs the same ``full`` list of calls, so two
    lists at most serve any n; ``run`` fills a chunk's points before its
    calls and gathers its batch sums.
    """

    def __init__(self, stack, n, batch_size, lr):
        self.span = batch_size * CHUNK_BATCHES  # points per chunk
        steps = {}
        self.full = _Chunk(stack, self.span, batch_size, lr, steps) if n > self.span else None
        self.last = _Chunk(stack, n - (n - 1) // self.span * self.span, batch_size, lr, steps)
        self.batch_size = batch_size
        nets = len(stack.params)
        self.sums = np.empty((nets, -(-n // batch_size)))
        self.running = np.empty_like(self.sums)
        self.loss = np.empty(nets)

    def run(self, points, one_hot, order):
        """Train one epoch on ``points[order]``; returns each net's summed loss."""
        n = order.shape[1]
        for start in range(0, n, self.span):
            chunk = self.last if start + self.span >= n else self.full
            rows = order[:, start : start + self.span]
            # rows index in range, so "clip" clips nothing ("raise" copies via a temporary)
            np.take(points, rows, axis=0, out=chunk.xs, mode="clip")
            np.take(one_hot, rows, axis=0, out=chunk.targets, mode="clip")
            _run(chunk.calls)
            first = start // self.batch_size
            self.sums[:, first : first + chunk.sums.shape[1]] = chunk.sums
        # the batch sums added in batch order; 0.0 - (s1 + s2 + ...) is
        # 0.0 - s1 - s2 - ... bit for bit, with a zero loss +0.0 either way
        # (-(...) would make it -0.0)
        np.add.accumulate(self.sums, axis=1, out=self.running)
        return np.subtract(0.0, self.running[:, -1], out=self.loss)


class _Accuracy:
    """Each net's training accuracy: its ``strict_argmax_batch`` hits, averaged.

    The forward calls run on (S, n, width) buffers allocated once, each
    layer writing its activation over its pre-activation.
    """

    def __init__(self, stack, points, labels):
        nets, n = len(stack.params), len(points)
        zs = [np.empty((nets, n, layer.weight.shape[1])) for layer in stack.layers]
        # the points broadcast against the stack's weights
        self.calls = _chain_calls(stack.layers, points, zs, zs, _softmax_buffers(zs[-1].shape))
        self.probs = zs[-1].reshape(nets * n, -1)  # one row per (net, point)
        self.labels = labels

    def run(self):
        _run(self.calls)
        preds, _ = strict_argmax_batch(self.probs)
        hits = preds.reshape(-1, len(self.labels)) == self.labels
        return hits.sum(axis=1) / len(self.labels)


def gradients(net, x, label):
    """Per-layer (weight gradient, bias gradient) of the single-sample loss."""
    _require_softmax(net)
    x = as_vector(x, "x")
    if not 0 <= label < net.output_dim:
        raise IndexError(f"label {label} out of range for {net.output_dim} classes")
    stack = _NetStack.of([net])
    targets = np.eye(net.output_dim)[np.array([[label]])]
    probs = np.empty_like(targets)
    xs = x[np.newaxis, np.newaxis, :]
    _run(_step_calls(stack, xs, targets, probs, _step_buffers(stack, 1)))
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
    points, labels = cloud.points, cloud.labels
    one_hot = np.eye(cloud.class_count)[labels]
    n = len(cloud)
    # one batch of all n points has the bits of any larger batch size
    lr, epochs, batch_size = cfgs[0].learning_rate, cfgs[0].epochs, min(cfgs[0].batch_size, n)

    identity = np.arange(n)  # Generator.permutation(n) shuffles this arange

    def buffers(stack):
        # one SGD epoch, one accuracy pass and one (S, n) shuffle per stack
        order = np.empty((len(stack.params), n), dtype=identity.dtype)
        return _Epoch(stack, n, batch_size, lr), _Accuracy(stack, points, labels), order

    stack = _NetStack.of(nets)
    sgd, evaluate, order = buffers(stack)
    live = list(range(len(nets)))  # the net behind each row of the stack
    rngs = [make_rng(cfg.seed) for cfg in cfgs]
    losses = [[] for _ in nets]
    accuracies = [[] for _ in nets]
    results = [None] * len(nets)
    # a diverging net takes log(0) or overflows; _require_finite turns
    # that into a NumericalError at the end of the epoch
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            for row, k in zip(order, live):
                np.copyto(row, identity)
                rngs[k].shuffle(row)
            epoch_loss = sgd.run(points, one_hot, order) / n
            _require_finite(epoch, epoch_loss, stack, live, cfgs)
            accs = evaluate.run().tolist()

            keep = []
            for row, (k, loss, acc) in enumerate(zip(live, epoch_loss.tolist(), accs)):
                losses[k].append(loss)
                accuracies[k].append(acc)
                target = cfgs[k].target_accuracy
                if epoch == epochs or (target is not None and acc >= target):
                    history = TrainHistory(tuple(losses[k]), tuple(accuracies[k]))
                    results[k] = (stack.net(row), history)
                else:
                    keep.append(row)
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[row] for row in keep]
                stack = stack.keep(keep)
                sgd, evaluate, order = buffers(stack)
    return results


def train(net, cloud, cfg):
    """Mini-batch SGD with a fixed learning rate; returns (net, history).

    Shuffles per epoch from cfg.seed, updates with the batch-mean gradient,
    and stops early once training accuracy reaches cfg.target_accuracy.
    """
    return train_many([net], cloud, [cfg])[0]
