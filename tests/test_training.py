import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_class_axis_oracle import per_net

from topoclass.data import LabeledPointCloud, gen_annulus2d, write_files
from topoclass.errors import NumericalError, SpecError
from topoclass.network import LayerSpec, Mlp, build_paper_net, build_relu_net, forward
from topoclass.numerics import make_rng
from topoclass.training import (
    TrainConfig,
    TrainHistory,
    accuracy,
    cross_entropy,
    gradients,
    train,
    train_many,
)


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
        with pytest.raises(SpecError, match="label 2 out of range for 2 classes"):
            cross_entropy(np.array([0.5, 0.5]), 2)

    @pytest.mark.parametrize("label", [2, -1, 0.5, True, "1"])
    def test_label_that_is_not_a_class_index(self, label):
        # gradients checked only the range: 0.5 and True reached numpy's indexing
        net = build_relu_net((2, 3, 2), make_rng(0))
        text = f"label {label} out of range for 2 classes"
        with pytest.raises(SpecError, match=text):
            cross_entropy(np.array([0.5, 0.5]), label)
        with pytest.raises(SpecError, match=text):
            gradients(net, np.zeros(2), label)


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

    def test_input_of_the_wrong_dimension_is_refused(self):
        with pytest.raises(SpecError) as raised:
            gradients(build_paper_net(make_rng(0)), np.ones(3), 0)
        assert str(raised.value) == "net expects inputs of dim 2, data has dim 3"

    def test_net_without_a_softmax_head_is_refused(self):
        net = with_head(build_relu_net((2, 4, 2), make_rng(0)), "identity")
        with pytest.raises(SpecError, match="^net needs a softmax final layer$"):
            gradients(net, np.ones(2), 0)

    def test_batch_gradient_is_additive(self):
        from topoclass.training import _NetStack, _step_buffers, _step_calls

        net = build_relu_net((2, 4, 2), make_rng(3))
        x = np.array([0.4, -0.2])
        single = gradients(net, x, 1)
        stack = _NetStack.of([net])
        xs, targets = np.stack([x, x])[np.newaxis], np.eye(2)[np.array([[1, 1]])]
        probs = np.empty_like(targets)
        for f, args in _step_calls(stack, xs, targets, probs, _step_buffers(stack, 2)):
            f(*args)
        double = [(g.weight[0], g.bias[0, 0]) for g in stack.grads]
        for (dw1, db1), (dw2, db2) in zip(single, double):
            np.testing.assert_allclose(dw2, 2.0 * dw1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(db2, 2.0 * db1, rtol=1e-12, atol=1e-15)


class TestTrainConfig:
    # a float count would fail inside training, and True would count as 1
    @pytest.mark.parametrize(
        "name, value",
        [("epochs", 2.5), ("batch_size", 4.5), ("epochs", True), ("batch_size", np.True_),
         ("seed", True), ("seed", 1.0), ("epochs", "3")],
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        kind = type(value).__name__
        with pytest.raises(SpecError, match=f"^{name} must be an integer, got {kind}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.inf, True, "0.1", None])
    def test_learning_rate_must_be_a_finite_number(self, value):
        with pytest.raises(SpecError, match="^learning_rate must be positive and finite, got "):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [True, np.True_, "0.9"])
    def test_target_accuracy_must_be_a_number_or_none(self, value):
        with pytest.raises(SpecError, match=r"^target_accuracy must lie in \(0, 1\] or be None"):
            TrainConfig(target_accuracy=value)

    def test_numpy_integers_train_as_ints(self):
        cloud = blob_cloud(10, 6)
        net = build_relu_net((2, 3, 2), make_rng(0))
        plain = TrainConfig(epochs=3, batch_size=4, seed=2)
        numpy = TrainConfig(epochs=np.int64(3), batch_size=np.int32(4), seed=np.uint64(2))
        assert_same_result(train(net, cloud, numpy), train(net, cloud, plain))


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(SpecError, match="epochs must be >= 1"):
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

    @pytest.mark.parametrize(
        "dims, head, text",
        [
            ((3, 4, 2), "softmax", "net expects inputs of dim 3, data has dim 2"),
            ((2, 4, 2), "identity", "net needs a softmax final layer"),
            ((2, 4, 3), "softmax", "net has 3 outputs but data has 2 classes"),
        ],
        ids=["dim", "head", "classes"],
    )
    def test_misfit_rejected(self, dims, head, text):
        net = with_head(build_relu_net(dims, make_rng(3)), head)
        with pytest.raises(SpecError, match=f"^{text}$"):
            train(net, blob_cloud(10, 7), TrainConfig(epochs=1))


def with_head(net, activation):
    """The net with its last layer's weights under ``activation``."""
    last = net.layers[-1]
    return Mlp(layers=net.layers[:-1] + (LayerSpec(last.weight, last.bias, activation),))


def assert_same_result(got, want):
    (net_a, hist_a), (net_b, hist_b) = got, want
    assert np.array_equal(hist_a.losses, hist_b.losses)
    assert np.array_equal(hist_a.accuracies, hist_b.accuracies)
    for layer_a, layer_b in zip(net_a.layers, net_b.layers, strict=True):
        assert np.array_equal(layer_a.weight, layer_b.weight)
        assert np.array_equal(layer_a.bias, layer_b.bias)


class TestTrainMany:
    def test_matches_one_net_at_a_time(self):
        # 46 points in batches of 8 leave a last batch of 6; under one
        # target four nets leave the stack, each in its own epoch, and one
        # runs every epoch
        cloud = blob_cloud(23, 11, separation=2.0)
        nets = [build_relu_net((2, 4, 3, 2), make_rng(seed)) for seed in range(5)]
        cfg = TrainConfig(epochs=30, batch_size=8, seed=0, target_accuracy=0.85)
        many = train_many(nets, cloud, cfg)
        runs = [h.epochs_run() for _, h in many]
        assert len(set(runs)) == 5 and max(runs) == 30
        for net, net_cfg, got in zip(nets, per_net(cfg, 5), many, strict=True):
            assert_same_result(got, train(net, cloud, net_cfg))

    def test_width_one_stacks_match_one_net_at_a_time(self, annulus500):
        # the sweep's width-1 shape: OpenBLAS runs the stack's layer-1
        # weight-gradient matmul (5,1,32) @ (5,32,2) as a gemv, whose bits
        # hang on the step buffers' layout
        nets = [build_relu_net((2, 1, 8, 8, 2), make_rng(seed)) for seed in range(5)]
        cfg = TrainConfig(epochs=3, batch_size=32, seed=0, target_accuracy=None)
        many = train_many(nets, annulus500, cfg)
        for net, net_cfg, got in zip(nets, per_net(cfg, 5), many, strict=True):
            assert_same_result(got, train(net, annulus500, net_cfg))

    def test_input_nets_are_not_modified(self):
        cloud = blob_cloud(10, 12)
        nets = [build_relu_net((2, 3, 2), make_rng(seed)) for seed in range(2)]
        before = [[layer.weight.copy() for layer in net.layers] for net in nets]
        train_many(nets, cloud, TrainConfig(epochs=3))
        for net, weights in zip(nets, before):
            assert all(np.array_equal(l.weight, w) for l, w in zip(net.layers, weights))

    def test_mismatched_layer_shapes_rejected(self):
        cloud = blob_cloud(10, 13)
        nets = [build_relu_net((2, 3, 2), make_rng(0)), build_relu_net((2, 4, 2), make_rng(1))]
        with pytest.raises(SpecError, match="must have the same layer shapes and activations"):
            train_many(nets, cloud, TrainConfig())

    def test_empty_stack_rejected(self):
        with pytest.raises(SpecError, match="^train_many needs at least one net$"):
            train_many([], blob_cloud(10, 15), TrainConfig())

    def test_seeds_past_64_bits_are_refused_before_training(self):
        # a numpy seed + i would wrap to 0 instead
        nets = [build_relu_net((2, 3, 2), make_rng(s)) for s in range(2)]
        cfg = TrainConfig(seed=np.uint64(2**64 - 1))
        with pytest.raises(SpecError, match=f"^seed must fit in 64 unsigned bits, got {2**64}$"):
            train_many(nets, blob_cloud(10, 15), cfg)

    @settings(max_examples=20, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        n_per_class=st.integers(10, 30),
        batch_size=st.integers(1, 40),
        data_seed=st.integers(0, 1000),
        target=st.sampled_from([None, 0.6, 0.9]),
    )
    def test_property_matches_one_net_at_a_time(
        self, hidden, seed, count, n_per_class, batch_size, data_seed, target
    ):
        cloud = blob_cloud(n_per_class, data_seed, separation=2.0)
        dims = (2, *hidden, 2)
        nets = [build_relu_net(dims, make_rng(seed + i)) for i in range(count)]
        cfg = TrainConfig(epochs=4, batch_size=batch_size, seed=seed, target_accuracy=target)
        many = train_many(nets, cloud, cfg)
        for net, net_cfg, got in zip(nets, per_net(cfg, count), many, strict=True):
            assert_same_result(got, train(net, cloud, net_cfg))


class TestDivergence:
    def test_huge_learning_rate_is_a_numerical_error(self):
        cloud = gen_annulus2d(100, 0)
        net = build_relu_net((2, 5, 5, 2, 2, 2, 2), make_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="epoch 1 .*seed 0"):
                train(net, cloud, TrainConfig(learning_rate=500.0, epochs=5, seed=0))

    def test_names_the_diverging_seed(self):
        # the second net starts with weights scaled by 1e300, so its first
        # epoch overflows while the first net trains normally; under seed 4
        # the second net shuffles with seed 5
        cloud = blob_cloud(20, 16)
        calm = build_relu_net((2, 4, 2), make_rng(0))
        wild = Mlp(
            layers=tuple(
                LayerSpec(weight=1e300 * l.weight, bias=l.bias, activation=l.activation)
                for l in build_relu_net((2, 4, 2), make_rng(1)).layers
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="epoch 1 .*seed 5"):
                train_many([calm, wild], cloud, TrainConfig(epochs=3, seed=4))


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
    write_files([(path, history.csv_lines())])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert lines[1] == "1,0.5,0.75"
    assert len(lines) == 3
