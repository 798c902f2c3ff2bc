"""Class-axis column arithmetic against the row reductions it replaced.

Training and evaluation reduce over the class axis column by column (see
``topoclass.training``).  The row-reduction code they replaced is kept
below, verbatim, as the oracle: ``_softmax_rows``, ``strict_argmax_batch``,
``_apply_layer``, ``_batch_backward`` (integer labels, fancy indexing),
``_sgd_epoch`` and the ``train_many`` loop.  Training must match it bit
for bit for up to 7 classes; numpy sums 8 or more columns in an unrolled
order, so there softmax is only checked to within 4 ulp.  The oracle's
``_batch_backward`` returns each batch's loss, where training takes the
loss of every batch once per epoch; the histories still match bit for bit.
The oracle takes one config per net, as the loop it keeps did; ``per_net``
expands the one config ``train_many`` takes into that list.
"""

from dataclasses import replace

import numpy as np
import pytest

from topoclass import network
from topoclass.data import LabeledPointCloud
from topoclass.errors import NumericalError, SpecError
from topoclass.network import (
    IDENTITY,
    RELU,
    SOFTMAX,
    LayerSpec,
    Mlp,
    build_relu_net,
    forward_batch,
)
from topoclass.network import _softmax_rows as new_softmax_rows
from topoclass.network import strict_argmax_batch as new_strict_argmax_batch
from topoclass.numerics import make_rng
from topoclass.training import (
    TrainConfig,
    TrainHistory,
    _check_stack,
    _NetStack,
    train_many,
)

# ---------------------------------------------------------------- oracles


def _softmax_rows(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def strict_argmax_batch(ys, tol=1e-12):
    """Batched strict_argmax: (predictions, tie mask); prediction -1 on ties."""
    ys = np.asarray(ys, dtype=np.float64)
    top = ys.max(axis=1)
    ties = (ys >= (top - tol)[:, np.newaxis]).sum(axis=1) != 1
    preds = ys.argmax(axis=1).astype(np.int64)
    preds[ties] = -1
    return preds, ties


def _apply_layer(layer, acts):
    """The one place a layer is applied: returns (pre-activation z, activation).

    Works on one layer (weight (out, in), bias (out,)) or on a stack of S
    layers (weights (S, out, in), biases (S, 1, out)); rows stay rows.
    """
    z = acts @ layer.weight.swapaxes(-1, -2) + layer.bias
    if layer.activation == RELU:
        return z, np.maximum(z, 0.0)
    if layer.activation == SOFTMAX:
        return z, _softmax_rows(z)
    return z, z


def _batch_backward(stack, xs, labels):
    """Fill ``stack.grads`` with each net's gradient summed over the batch.

    ``xs`` is (S, B, in) and ``labels`` (S, B).  Returns each net's loss
    sum, shape (S,).
    """
    layers, grads = stack.layers, stack.grads
    acts, zs = [xs], []  # every activation (input first) and every z
    for layer in layers:
        z, a = _apply_layer(layer, acts[-1])
        zs.append(z)
        acts.append(a)
    probs = acts[-1]
    nets = np.arange(labels.shape[0])[:, np.newaxis]
    rows = np.arange(labels.shape[1])
    picked = probs[nets, rows, labels]
    # a probability of 0 gives an infinite loss: run under
    # np.errstate(divide="ignore") and check the result
    loss_sums = -np.log(picked).sum(axis=1)

    delta = probs.copy()
    delta[nets, rows, labels] = picked - 1.0
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=grads[i].weight)
        delta.sum(axis=1, keepdims=True, out=grads[i].bias)
        if i > 0:
            delta = delta @ layers[i].weight
            prev_act = layers[i - 1].activation
            if prev_act == RELU:
                # subgradient at exactly 0 is 0
                delta = delta * (zs[i - 1] > 0.0)
            elif prev_act != IDENTITY:
                raise SpecError("softmax below the final layer is not differentiable here")
    return loss_sums


def _sgd_epoch(stack, points, labels, order, lr, batch_size):
    """One pass over the (S, n) shuffles, updating the stack in place.

    Returns each net's summed per-sample loss.
    """
    epoch_loss = np.zeros(order.shape[0])
    for start in range(0, order.shape[1], batch_size):
        batch = order[:, start : start + batch_size]
        epoch_loss += _batch_backward(stack, points[batch], labels[batch])
        stack.grad *= lr / batch.shape[1]
        stack.params -= stack.grad
    return epoch_loss


def per_net(cfg, count):
    """The configs of a ``train_many`` stack of ``count`` nets: net i has seed cfg.seed + i."""
    return [replace(cfg, seed=cfg.seed + i) for i in range(count)]


def oracle_train_many(nets, cloud, cfgs):
    nets, cfgs = list(nets), list(cfgs)
    _check_stack(nets, cloud)
    assert len(cfgs) == len(nets)
    assert len({(c.learning_rate, c.epochs, c.batch_size) for c in cfgs}) == 1
    lr, epochs, batch_size = cfgs[0].learning_rate, cfgs[0].epochs, cfgs[0].batch_size
    points, labels = cloud.points, cloud.labels
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
            epoch_loss = _sgd_epoch(stack, points, labels, order, lr, batch_size) / n
            finite = np.isfinite(epoch_loss) & np.isfinite(stack.params).all(axis=1)
            if not finite.all():
                seed = cfgs[live[int(np.argmin(finite))]].seed
                raise NumericalError(
                    f"training diverged in epoch {epoch} of the net with seed {seed}: "
                    "the loss or a weight is not finite (try a smaller learning rate)"
                )
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


# ---------------------------------------------------------------- checks


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def blobs(class_count, n_per_class, seed, dim=2):
    """Overlapping Gaussian blobs around points on a circle: not separable."""
    rng = make_rng(seed)
    angles = 2.0 * np.pi * np.arange(class_count) / class_count
    centers = np.zeros((class_count, dim))
    centers[:, 0], centers[:, 1] = np.cos(angles), np.sin(angles)
    points = np.concatenate([c + 0.6 * rng.standard_normal((n_per_class, dim)) for c in centers])
    labels = np.repeat(np.arange(class_count), n_per_class)
    return LabeledPointCloud(dim=dim, points=points, labels=labels, class_count=class_count)


def saturated_net(seed):
    """A head large enough that softmax rounds to exactly 1.0 on some points."""
    relu, head = build_relu_net((2, 6, 2), make_rng(seed)).layers
    weight = make_rng(seed + 100).uniform(-1, 1, (2, 6)) * 40.0
    return Mlp((relu, LayerSpec(weight, head.bias, SOFTMAX)))


def identity_net(seed):
    relu, _, head = build_relu_net((2, 4, 3, 3), make_rng(seed)).layers
    rng = make_rng(seed + 100)
    middle = LayerSpec(rng.uniform(-1, 1, (3, 4)), rng.uniform(-0.1, 0.1, 3), IDENTITY)
    return Mlp((relu, middle, head))


# (nets, cloud, config): class counts 1-4 and 7, an identity hidden
# layer, stacks of 1 and 5 with nets that leave early, batch sizes 1, 7,
# 32 and past n (7 and 32 both dividing n and not), and probabilities of
# exactly 1.0, whose loss terms are -0.0
CASES = {
    "1-class": lambda: (
        [build_relu_net((2, 3, 1), make_rng(s)) for s in range(2)],
        blobs(1, 9, 1),
        TrainConfig(epochs=3, batch_size=4),
    ),
    "2-class-5-nets-leave-early": lambda: (
        [build_relu_net((2, 3, 4, 2), make_rng(s)) for s in range(5)],
        blobs(2, 40, 2),
        TrainConfig(epochs=25, batch_size=7, target_accuracy=0.96),
    ),
    "3-class-batch-1": lambda: (
        [build_relu_net((2, 5, 3), make_rng(3))],
        blobs(3, 8, 3),
        TrainConfig(epochs=4, batch_size=1, seed=3, target_accuracy=None),
    ),
    "4-class-batch-32": lambda: (
        [build_relu_net((2, 6, 6, 4), make_rng(s)) for s in range(5)],
        blobs(4, 30, 4),
        TrainConfig(epochs=12, batch_size=32, target_accuracy=0.5),
    ),
    "7-class-batch-past-n": lambda: (
        [build_relu_net((2, 8, 7), make_rng(s)) for s in range(3)],
        blobs(7, 5, 5),
        TrainConfig(epochs=10, batch_size=50, learning_rate=0.5),
    ),
    "identity-hidden-layer": lambda: (
        [identity_net(s) for s in range(2)],
        blobs(3, 15, 6),
        TrainConfig(epochs=8, batch_size=7, target_accuracy=None),
    ),
    "3-class-batch-7-divides-n": lambda: (
        [build_relu_net((2, 5, 3), make_rng(s)) for s in range(2)],
        blobs(3, 14, 9),
        TrainConfig(epochs=5, batch_size=7, target_accuracy=None),
    ),
    "2-class-batch-32-divides-n": lambda: (
        [build_relu_net((2, 4, 2), make_rng(s)) for s in range(3)],
        blobs(2, 32, 10),
        TrainConfig(epochs=5, batch_size=32, target_accuracy=None),
    ),
    "saturated-softmax": lambda: (
        [saturated_net(s) for s in range(3)],
        blobs(2, 20, 12),
        TrainConfig(epochs=6, batch_size=8, learning_rate=0.01, target_accuracy=None),
    ),
    "paper-net-1-net": lambda: (
        [build_relu_net((2, 5, 5, 2, 2, 2, 2), make_rng(7))],
        blobs(2, 50, 7),
        TrainConfig(epochs=15, seed=7, target_accuracy=None),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_many_matches_the_row_reduction_oracle(case):
    nets, cloud, cfg = CASES[case]()
    got = train_many(nets, cloud, cfg)
    want = oracle_train_many(nets, cloud, per_net(cfg, len(nets)))
    for (net_a, hist_a), (net_b, hist_b) in zip(got, want, strict=True):
        assert_same_bits(hist_a.losses, hist_b.losses)
        assert_same_bits(hist_a.accuracies, hist_b.accuracies)
        for layer_a, layer_b in zip(net_a.layers, net_b.layers, strict=True):
            assert_same_bits(layer_a.weight, layer_b.weight)
            assert_same_bits(layer_a.bias, layer_b.bias)


def test_cases_exercise_early_exits():
    nets, cloud, cfg = CASES["2-class-5-nets-leave-early"]()
    runs = [history.epochs_run() for _, history in train_many(nets, cloud, cfg)]
    assert len(set(runs)) > 2 and max(runs) == 25


def test_saturated_case_has_zero_loss_terms():
    nets, cloud, _ = CASES["saturated-softmax"]()
    for net in nets:
        picked = forward_batch(net, cloud.points)[np.arange(len(cloud)), cloud.labels]
        assert (picked == 1.0).any()


def test_divergence_names_the_oracle_epoch_and_seed():
    nets = [build_relu_net((2, 3, 2), make_rng(s)) for s in range(4)]
    cloud = blobs(2, 10, 13)
    cfg = TrainConfig(epochs=60, batch_size=5, learning_rate=8.0, target_accuracy=None)
    with pytest.raises(NumericalError) as got:
        train_many(nets, cloud, cfg)
    with pytest.raises(NumericalError) as want:
        oracle_train_many(nets, cloud, per_net(cfg, len(nets)))
    assert str(got.value) == str(want.value)
    assert "epoch 2 of the net with seed 2" in str(got.value)


def _softmax_inputs(class_count):
    rng = make_rng(class_count)
    scales = np.array([1e-300, 1e-3, 1.0, 30.0, 700.0, 1e300])[:, np.newaxis, np.newaxis]
    z = rng.standard_normal((6, 40, class_count)) * scales
    z[:, 0] = 0.0  # a constant row
    z[:, 1, 0] = -np.inf  # a probability that underflows to 0
    return z


@pytest.mark.parametrize("class_count", range(1, 8))
def test_softmax_rows_bitwise_up_to_7_classes(class_count):
    z = _softmax_inputs(class_count)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = new_softmax_rows(z), _softmax_rows(z)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("class_count", range(8, 13))
def test_softmax_rows_within_4_ulp_from_8_classes(class_count):
    z = _softmax_inputs(class_count)[:, 2:]  # finite rows
    np.testing.assert_array_max_ulp(new_softmax_rows(z), _softmax_rows(z), maxulp=4)


def _argmax_rows():
    inf, nan = np.inf, np.nan
    planted = [
        [0.5, 0.5, 0.1],  # exact tie
        [0.1, 0.7, 0.7],
        [0.5, 0.5 + 1e-13, 0.0],  # tie within tol
        [0.5 + 1e-13, 0.5, 0.0],
        [0.5, 0.5 + 1e-11, 0.0],  # outside tol
        [nan, 1.0, 0.0],  # NaN rows tie
        [1.0, nan, 0.0],
        [0.0, 0.0, nan],
        [nan, nan, nan],
        [0.0, -0.0, -1.0],  # signed zeros
        [-0.0, 0.0, -1.0],
        [-0.0, -1.0, -0.0],
        [inf, 1.0, 0.0],  # infinities
        [1.0, inf, inf],
        [-inf, -inf, -inf],
        [-inf, -1.0, -inf],
        [1e308, -1e308, 1e308],
        [5e-324, 0.0, -5e-324],
    ]
    rows = [np.array(planted)]
    rng = make_rng(11)
    for class_count in range(1, 8):
        block = rng.integers(-2, 3, size=(60, class_count)) / 4.0  # many exact ties
        rows.append(block)
        rows.append(rng.standard_normal((60, class_count)))
    return rows


@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.3])
def test_strict_argmax_batch_matches_the_oracle(tol, monkeypatch):
    monkeypatch.setattr(network, "TIE_TOL", tol)
    with np.errstate(invalid="ignore"):
        for ys in _argmax_rows():
            got = new_strict_argmax_batch(ys)
            want_preds, want_ties = strict_argmax_batch(ys, tol)
            assert got.dtype == want_preds.dtype
            assert np.array_equal(got, want_preds)
            assert np.array_equal(got < 0, want_ties)


def test_nan_rows_are_ties():
    preds = new_strict_argmax_batch(np.array([[np.nan, 1.0], [2.0, np.nan], [1.0, 0.0]]))
    assert preds.tolist() == [-1, -1, 0]
