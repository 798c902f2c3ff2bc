"""Each epoch's shuffle and accuracy pass, on buffers allocated once per stack.

These tests hold the accuracy pass to ``forward_batch`` and
``strict_argmax_batch`` net by net, the shuffle to
``Generator.permutation``, and a whole epoch of ``train_many`` to
allocating no (nets, points, width) array.  The adversarial rows for
``strict_argmax_batch`` itself are in ``test_class_axis_oracle``.
"""

import tracemalloc

import numpy as np
import pytest
from test_class_axis_oracle import blobs

from topoclass import training
from topoclass.network import (
    LayerSpec,
    Mlp,
    build_relu_net,
    forward_batch,
    he_uniform_init,
    strict_argmax_batch,
)
from topoclass.numerics import make_rng
from topoclass.training import TrainConfig, _Epoch, _NetStack, train_many


def with_live_head(net, rng):
    """The net with He-uniform softmax weights: a zero head ties every row."""
    head = net.layers[-1]
    weight = he_uniform_init(rng, head.out_dim, head.in_dim)
    return Mlp(net.layers[:-1] + (LayerSpec(weight, head.bias, head.activation),))


@pytest.mark.parametrize("classes", range(1, 8))
def test_accuracy_pass_matches_forward_and_strict_argmax(classes):
    cloud = blobs(classes, 30, 40 + classes)
    nets = [with_live_head(build_relu_net((2, 6, 5, classes), make_rng(s)), make_rng(50 + s))
            for s in range(3)]
    accs = _Epoch(_NetStack.of(nets), cloud, 32, 0.05).accuracy().tolist()
    for net, acc in zip(nets, accs, strict=True):
        preds, _ = strict_argmax_batch(forward_batch(net, cloud.points))
        assert acc == float((preds == cloud.labels).mean())
    if classes == 1:
        assert accs == [1.0] * len(nets)
    else:
        # a net between all wrong and all right counts some rows each way
        assert any(0.0 < acc < 1.0 for acc in accs), accs


@pytest.mark.parametrize("n", [1, 2, 7, 500, 1000])
def test_shuffled_arange_is_the_permutation(n):
    order = np.empty((3, n), dtype=np.arange(n).dtype)
    for seed in (0, 1, 12345):
        want, got = make_rng(seed), make_rng(seed)
        for _ in range(3):  # successive epochs draw on from the same generator
            row = order[1]
            np.copyto(row, np.arange(n))
            got.shuffle(row)
            assert np.array_equal(row, want.permutation(n))


class _Watched:
    """A generator that reads tracemalloc's peak at every epoch's shuffle."""

    def __init__(self, rng, peaks):
        self._rng, self._peaks = rng, peaks

    def _mark(self):
        current, peak = tracemalloc.get_traced_memory()
        self._peaks.append(peak - current)
        tracemalloc.reset_peak()

    def shuffle(self, x):
        self._mark()
        return self._rng.shuffle(x)

    def permutation(self, x):
        self._mark()
        return self._rng.permutation(x)


def test_later_epochs_of_train_many_allocate_no_stack_arrays(monkeypatch):
    nets = [build_relu_net((2, 64, 64, 2), make_rng(s)) for s in range(2)]
    cloud = blobs(2, 300, 15)
    peaks = []  # allocations between one epoch's shuffle of net 0 and the next
    monkeypatch.setattr(
        training, "make_rng", lambda seed: _Watched(make_rng(seed), peaks if seed == 0 else [])
    )
    cfg = TrainConfig(epochs=5, batch_size=256, target_accuracy=None)
    tracemalloc.start()
    try:
        train_many(nets, cloud, cfg)
    finally:
        tracemalloc.stop()
    stack_array = 2 * len(cloud) * 64 * 8  # one (S, n, width) activation: 600 KB
    assert len(peaks) == 5
    # from the second epoch on, the peak above the epoch's start stays
    # below half of one such array
    assert max(peaks[2:]) < stack_array / 2
