"""Each epoch's shuffle and accuracy pass, on buffers allocated once per stack.

The accuracy pass counts the rows whose strict argmax is the label without
forming the argmax; these tests hold that count to ``strict_argmax_batch``
on adversarial rows, the shuffle to ``Generator.permutation``, and a whole
epoch of ``train_many`` to allocating no (nets, points, width) array.
"""

import tracemalloc

import numpy as np
import pytest
from test_class_axis_oracle import _argmax_rows, blobs

from topoclass import training
from topoclass.network import build_relu_net, forward_batch, strict_argmax_batch
from topoclass.numerics import make_rng
from topoclass.training import TrainConfig, _Accuracy, _label_win_calls, _NetStack, train_many


def run(calls):
    for f, args in calls:
        f(*args)


def adversarial_rows():
    inf, nan = np.inf, np.nan
    rows = _argmax_rows()
    rows.append(np.array([[0.3], [-inf], [inf], [nan], [-0.0], [5e-324]]))  # one class
    # exact ties, ties within and just outside the tolerance, NaN rows
    rows.append(np.array([
        [0.25, 0.25, 0.5 - 1e-13, 0.0],
        [0.5, 0.5 - 1e-12, 0.0, 0.0],
        [0.5, 0.5 - 2e-12, 0.0, 0.0],
        [nan, nan, nan, nan],
        [0.0, nan, 1.0, 0.0],
        [1.0 - 1e-12, 1.0, 1.0 - 1e-12, 1.0 - 1e-12],
    ]))
    return rows


def label_sets(ys, rng):
    n, classes = ys.shape
    labelled = [np.full(n, k) for k in range(classes)]  # every row at every label
    labelled.append(np.argmax(np.nan_to_num(ys, nan=-np.inf), axis=1))  # mostly right
    labelled.append(rng.integers(0, classes, n))
    return labelled


def test_label_wins_count_the_strict_argmax_hits():
    rng = make_rng(21)
    with np.errstate(invalid="ignore"):
        for ys in adversarial_rows():
            n, classes = ys.shape
            for labels in label_sets(ys, rng):
                want = int((strict_argmax_batch(ys)[0] == labels).sum())
                # two nets: the rows as given and reversed
                probs = np.stack([ys, ys[::-1]])
                counts = np.empty(2, dtype=np.intp)
                run(_label_win_calls(probs, labels, counts))
                want_reversed = int((strict_argmax_batch(ys[::-1])[0] == labels).sum())
                assert counts.tolist() == [want, want_reversed], (ys, labels)


@pytest.mark.parametrize("classes", range(1, 8))
def test_accuracy_pass_matches_forward_and_strict_argmax(classes):
    cloud = blobs(classes, 30, 40 + classes)
    nets = [build_relu_net((2, 6, 5, classes), make_rng(s)) for s in range(3)]
    accs = _Accuracy(_NetStack.of(nets), cloud.points, cloud.labels).run()
    for net, acc in zip(nets, accs.tolist(), strict=True):
        preds, _ = strict_argmax_batch(forward_batch(net, cloud.points))
        assert acc == float((preds == cloud.labels).mean())


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
    cfgs = [TrainConfig(epochs=5, batch_size=256, seed=s, target_accuracy=None) for s in range(2)]
    tracemalloc.start()
    try:
        train_many(nets, cloud, cfgs)
    finally:
        tracemalloc.stop()
    stack_array = 2 * len(cloud) * 64 * 8  # one (S, n, width) activation: 600 KB
    assert len(peaks) == 5
    # from the second epoch on, the peak above the epoch's start stays
    # below half of one such array
    assert max(peaks[2:]) < stack_array / 2
