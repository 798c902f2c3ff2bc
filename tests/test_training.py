import numpy as np
import pytest

from topoclass.data import LabeledPointCloud
from topoclass.errors import ConfigError
from topoclass.network import LayerSpec, Mlp, build_relu_net, forward
from topoclass.numerics import make_rng
from topoclass.training import TrainConfig, TrainHistory, accuracy, cross_entropy, gradients, train


def blob_cloud(n_per_class, seed, separation=6.0):
    """Two well-separated Gaussian blobs: linearly separable."""
    rng = make_rng(seed)
    a = rng.standard_normal((n_per_class, 2)) + [-separation / 2, 0.0]
    b = rng.standard_normal((n_per_class, 2)) + [separation / 2, 0.0]
    return LabeledPointCloud(
        dim=2,
        points=np.concatenate([a, b]),
        labels=np.array([0] * n_per_class + [1] * n_per_class),
        class_count=2,
    )


class TestCrossEntropy:
    def test_ln2(self):
        assert abs(cross_entropy(np.array([0.5, 0.5]), 0) - 0.6931471805599453) < 1e-15

    def test_one_hot_limit(self):
        eps = 1e-12
        loss = cross_entropy(np.array([1.0 - eps, eps]), 0)
        assert 0.0 <= loss < 1e-11

    def test_nonnegative(self):
        rng = make_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            assert cross_entropy(p, int(rng.integers(4))) >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestGradients:
    def test_zero_input_zero_weight_gradient(self):
        # x = 0 makes dL/dW = delta x^T = 0 regardless of delta
        net = Mlp(
            layers=(LayerSpec(weight=np.zeros((2, 3)), bias=np.zeros(2), activation="softmax"),)
        )
        (dw, db), = gradients(net, np.zeros(3), 0)
        assert np.array_equal(dw, np.zeros((2, 3)))
        assert np.abs(db).max() > 0.0  # bias gradient is p - onehot != 0

    def test_matches_central_differences(self):
        rng = make_rng(2)
        for trial in range(5):
            dims = (3, 4, 3, 2)
            net = build_relu_net(dims, make_rng(100 + trial))
            x = rng.uniform(-1, 1, size=3)
            label = int(rng.integers(2))
            got = gradients(net, x, label)
            h = 1e-5
            for li, layer in enumerate(net.layers):
                for r in range(layer.weight.shape[0]):
                    for c in range(layer.weight.shape[1]):
                        def loss_at(delta):
                            layers = list(net.layers)
                            w = layer.weight.copy()
                            w[r, c] += delta
                            layers[li] = LayerSpec(
                                weight=w, bias=layer.bias, activation=layer.activation
                            )
                            p = forward(Mlp(layers=tuple(layers)), x)
                            return cross_entropy(p, label)

                        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
                        ref = got[li][0][r, c]
                        assert abs(fd - ref) <= 1e-4 * max(1.0, abs(fd))

    def test_batch_gradient_is_additive(self):
        from topoclass.training import _batch_backward

        net = build_relu_net((2, 4, 2), make_rng(3))
        x = np.array([0.4, -0.2])
        single, _ = _batch_backward(net.layers, x[np.newaxis, :], np.array([1]))
        double, _ = _batch_backward(net.layers, np.stack([x, x]), np.array([1, 1]))
        for (dw1, db1), (dw2, db2) in zip(single, double):
            np.testing.assert_allclose(dw2, 2.0 * dw1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(db2, 2.0 * db1, rtol=1e-12, atol=1e-15)


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_blobs_reach_perfect_accuracy(self):
        cloud = blob_cloud(60, 4)
        net = build_relu_net((2, 5, 5, 2, 2, 2, 2), make_rng(0))
        trained, history = train(net, cloud, TrainConfig(epochs=200, seed=0, target_accuracy=1.0))
        assert max(history.accuracies) == 1.0
        assert history.epochs_run() <= 200

    def test_history_is_bit_deterministic(self):
        cloud = blob_cloud(30, 5)
        cfg = TrainConfig(epochs=20, seed=7, target_accuracy=None)
        _, h1 = train(build_relu_net((2, 4, 2), make_rng(1)), cloud, cfg)
        _, h2 = train(build_relu_net((2, 4, 2), make_rng(1)), cloud, cfg)
        assert h1.losses == h2.losses
        assert h1.accuracies == h2.accuracies

    def test_initial_loss_near_ln2(self, annulus500):
        # balanced two-class data through a freshly initialized net: outputs
        # are near-uniform, so the mean loss starts near ln 2
        for seed in range(3):
            net = build_relu_net((2, 5, 5, 2, 2, 2, 2), make_rng(seed))
            _, history = train(net, annulus500, TrainConfig(epochs=1, learning_rate=1e-9, seed=0))
            assert abs(history.losses[0] - np.log(2.0)) < 0.2

    def test_dimension_mismatch_rejected(self):
        cloud = blob_cloud(10, 7)
        net = build_relu_net((3, 4, 2), make_rng(3))
        with pytest.raises(ConfigError):
            train(net, cloud, TrainConfig(epochs=1))

    def test_class_count_mismatch_rejected(self):
        cloud = blob_cloud(10, 8)
        net = build_relu_net((2, 4, 3), make_rng(3))
        with pytest.raises(ConfigError):
            train(net, cloud, TrainConfig(epochs=1))


class TestAccuracy:
    def test_constant_output_is_all_ties(self):
        net = Mlp(
            layers=(LayerSpec(weight=np.zeros((2, 2)), bias=np.zeros(2), activation="softmax"),)
        )
        cloud = blob_cloud(20, 9)
        assert accuracy(net, cloud) == 0.0

    def test_perfect_two_point_cloud(self):
        cloud = LabeledPointCloud(
            dim=1,
            points=np.array([[-1.0], [1.0]]),
            labels=np.array([0, 1]),
            class_count=2,
        )
        net = Mlp(
            layers=(
                LayerSpec(
                    weight=np.array([[-5.0], [5.0]]), bias=np.zeros(2), activation="softmax"
                ),
            )
        )
        assert accuracy(net, cloud) == 1.0

    def test_range(self):
        cloud = blob_cloud(15, 10)
        net = build_relu_net((2, 3, 2), make_rng(4))
        assert 0.0 <= accuracy(net, cloud) <= 1.0


def test_history_csv(tmp_path):
    history = TrainHistory(losses=(0.5, 0.25), accuracies=(0.75, 1.0))
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert lines[1] == "1,0.5,0.75"
    assert len(lines) == 3
