"""The SGD epoch as a prebuilt list of ufunc calls on fixed buffers.

``tests/test_class_axis_oracle.py`` checks whole trainings against the row
reduction oracle; these tests check what the call list changed on the way:
the relu mask taken as ``sign`` of the relu output, gradients and
divergence against the oracle, the call count of one step, epochs of
several chunks, and that neither the call lists nor an epoch's
allocations grow with the number of batches.
"""

import tracemalloc

import numpy as np
import pytest
from test_class_axis_oracle import _batch_backward as oracle_batch_backward
from test_class_axis_oracle import blobs, oracle_train_many, per_net

from topoclass.errors import NumericalError
from topoclass.network import PAPER_NET_DIMS, RELU, SOFTMAX, LayerSpec, Mlp, build_relu_net
from topoclass.numerics import make_rng
from topoclass.training import (
    CHUNK_BATCHES,
    TrainConfig,
    _Epoch,
    _NetStack,
    _step_buffers,
    _step_calls,
    gradients,
    train_many,
)


def run(calls):
    for f, args in calls:
        f(*args)


def test_sign_of_the_relu_output_is_the_z_positive_mask():
    tiny = np.finfo(float).smallest_subnormal
    z = np.array([0.0, -0.0, -1.5, -tiny, tiny, 2.0, 1e308, np.inf, -np.inf, -1e308])
    mask = np.sign(np.maximum(z, 0.0))
    assert mask.tobytes() == (z > 0.0).astype(float).tobytes()
    for delta in (np.full(z.shape, -0.0), np.full(z.shape, 0.0), np.linspace(-3.0, 3.0, z.size)):
        assert (delta * mask).tobytes() == (delta * (z > 0.0)).tobytes()


def dead_unit_net():
    """Relu units at z = 0.0 and -0.0 on the origin, and at z < 0 elsewhere."""
    weight = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    relu = LayerSpec(weight, np.array([0.0, -0.0, -1.0]), RELU)
    head = LayerSpec(make_rng(4).uniform(-1, 1, (2, 3)), np.array([0.1, -0.1]), SOFTMAX)
    return Mlp((relu, head))


@pytest.mark.parametrize("net", [dead_unit_net(), build_relu_net(PAPER_NET_DIMS, make_rng(5))])
def test_step_gradients_match_the_oracle_bit_for_bit(net):
    xs = np.array([[0.0, 0.0], [-0.0, -0.0], [0.5, -2.0], [-0.5, 3.0], [0.25, 0.5]])[np.newaxis]
    labels = np.array([[0, 1, 1, 0, 1]])
    want = _NetStack.of([net])
    oracle_batch_backward(want, xs, labels)
    got = _NetStack.of([net])
    targets = np.eye(2)[labels]
    run(_step_calls(got, xs, targets, np.empty_like(targets), _step_buffers(got, 5)))
    assert got.grad.tobytes() == want.grad.tobytes()
    for row, label in zip(xs[0], labels[0]):
        single = _NetStack.of([net])
        oracle_batch_backward(single, row[np.newaxis, np.newaxis], np.array([[label]]))
        flat = [a.ravel() for pair in gradients(net, row, int(label)) for a in pair]
        assert np.concatenate(flat).tobytes() == single.grad[0].tobytes()


@pytest.mark.parametrize("lr", [50.0, 1e154, 1e300])
def test_divergence_raises_in_the_oracle_epoch(lr):
    # weights that overflow can make inf - inf = NaN pre-activations, where
    # the sign mask (NaN) and the z > 0 mask (0.0) differ
    nets = [build_relu_net((2, 4, 3, 2), make_rng(s)) for s in range(3)]
    cloud = blobs(2, 12, 14)
    cfg = TrainConfig(epochs=40, batch_size=5, learning_rate=lr)
    with pytest.raises(NumericalError) as got:
        train_many(nets, cloud, cfg)
    with pytest.raises(NumericalError) as want:
        oracle_train_many(nets, cloud, per_net(cfg, len(nets)))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("dims, count", [((2, 1, 2), 20), (PAPER_NET_DIMS, 52)])
def test_one_step_is_a_fixed_number_of_calls(dims, count):
    stack = _NetStack.of([build_relu_net(dims, make_rng(0))])
    one_batch, two_batches = (_Epoch(stack, blobs(2, n, 19), 32, 0.05) for n in (16, 32))
    assert len(two_batches.last.calls) - len(one_batch.last.calls) == count


@pytest.mark.parametrize(
    "per_class, batch_size",
    [(35, 1), (50, 3)],  # 3 chunks, the full one run twice; 2 chunks, the last with a tail
)
def test_epochs_of_several_chunks_match_the_oracle(per_class, batch_size):
    assert 2 * per_class > CHUNK_BATCHES * batch_size
    nets = [build_relu_net((2, 4, 3, 2), make_rng(s)) for s in range(3)]
    cloud = blobs(2, per_class, 18)
    cfg = TrainConfig(epochs=6, batch_size=batch_size, learning_rate=0.02, target_accuracy=0.8)
    got, want = train_many(nets, cloud, cfg), oracle_train_many(nets, cloud, per_net(cfg, 3))
    for (net_a, hist_a), (net_b, hist_b) in zip(got, want, strict=True):
        assert np.array(hist_a.losses).tobytes() == np.array(hist_b.losses).tobytes()
        assert hist_a.accuracies == hist_b.accuracies
        for layer_a, layer_b in zip(net_a.layers, net_b.layers, strict=True):
            assert layer_a.weight.tobytes() == layer_b.weight.tobytes()
            assert layer_a.bias.tobytes() == layer_b.bias.tobytes()


def test_call_lists_do_not_grow_with_the_number_of_batches():
    stack = _NetStack.of([build_relu_net(PAPER_NET_DIMS, make_rng(s)) for s in range(5)])
    cloud = blobs(2, 100_000, 20)
    n = len(cloud)
    tracemalloc.start()
    try:
        epoch = _Epoch(stack, cloud, 1, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lists = [epoch.full.calls, epoch.last.calls]
    assert all(len(calls) <= CHUNK_BATCHES * 52 + 10 for calls in lists)
    # beside the per-point arrays of the shuffle and the accuracy pass, the
    # (S, batches) loss sums and their running sum (16 MB here) are the
    # only arrays that grow with n; a list per batch would take gigabytes
    widths, classes = sum(PAPER_NET_DIMS[1:]), PAPER_NET_DIMS[-1]
    order, arange, one_hot = 5 * n * 8, n * 8, n * classes * 8
    accuracy = 5 * n * (widths + 1 + classes + 1) * 8  # (S, n, width) and softmax scratch
    assert peak < 2 * 5 * n * 8 + 2_000_000 + order + arange + one_hot + accuracy


def test_later_epochs_allocate_no_batch_arrays():
    nets = [build_relu_net((2, 64, 64, 2), make_rng(s)) for s in range(2)]
    cloud = blobs(2, 300, 15)
    stack = _NetStack.of(nets)
    epoch = _Epoch(stack, cloud, 256, 0.01)  # batches of 256, 256 and 88 points
    rngs = [make_rng(16)] * len(nets)
    epoch.run(rngs)
    batch_array = 2 * 256 * 64 * 8  # one (S, B, width) activation: 256 KB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = epoch.run(rngs)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss).all()
    # what remains is numpy's own iterator buffer (at most 8192 entries,
    # 64 KB) inside a broadcast bias add
    assert peak - before < batch_array / 2
    assert after - before < 1024


def test_batch_size_past_the_point_count_trains_one_batch():
    # a batch size past int64 once failed in a reshape
    cloud = blobs(3, 7, 17)
    nets = [build_relu_net((2, 5, 3), make_rng(s)) for s in range(2)]
    runs = [
        train_many(nets, cloud, TrainConfig(epochs=4, batch_size=size))
        for size in (len(cloud), len(cloud) + 1, 2**64, 10**30)
    ]
    for result in runs[1:]:
        for (net_a, hist_a), (net_b, hist_b) in zip(result, runs[0], strict=True):
            assert np.array(hist_a.losses).tobytes() == np.array(hist_b.losses).tobytes()
            assert hist_a.accuracies == hist_b.accuracies
            for layer_a, layer_b in zip(net_a.layers, net_b.layers, strict=True):
                assert layer_a.weight.tobytes() == layer_b.weight.tobytes()
