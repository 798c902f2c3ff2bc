import numpy as np
import pytest

from topoclass.data import gen_annulus2d
from topoclass.errors import DimensionError, SchemaError
from topoclass.network import (
    PAPER_NET_DIMS,
    RELU,
    LayerSpec,
    Mlp,
    build_paper_net,
    build_relu_net,
    forward,
    forward_batch,
    forward_trace,
    load_model,
    relu,
    save_model,
    softmax,
    strict_argmax,
)
from topoclass.numerics import make_rng


def identity_layer(n, activation="identity"):
    return LayerSpec(weight=np.eye(n), bias=np.zeros(n), activation=activation)


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])
        np.testing.assert_array_equal(relu(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_relu_idempotent(self):
        v = make_rng(0).standard_normal(50)
        np.testing.assert_array_equal(relu(relu(v)), relu(v))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_softmax_hand_value(self):
        # exp(1)/(exp(1)+exp(2)) = 1/(1+e)
        out = softmax(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [0.2689414213699951, 0.7310585786300049], atol=1e-15)

    def test_softmax_shift_invariance(self):
        rng = make_rng(1)
        for _ in range(50):
            v = rng.uniform(-20, 20, size=5)
            c = float(rng.uniform(-30, 30))
            assert np.abs(softmax(v + c) - softmax(v)).max() < 1e-12

    def test_softmax_open_simplex_bulk(self):
        rng = make_rng(2)
        vs = rng.uniform(-50, 50, size=(10_000, 4))
        net = Mlp(layers=(LayerSpec(weight=np.eye(4), bias=np.zeros(4), activation="softmax"),))
        outs = forward_batch(net, vs)
        assert outs.min() > 0.0
        assert np.abs(outs.sum(axis=1) - 1.0).max() < 1e-12


class TestForward:
    def test_identity_net(self):
        net = Mlp(layers=(identity_layer(3),))
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(forward(net, x), x)

    def test_single_relu_layer(self):
        net = Mlp(layers=(identity_layer(2, "relu"),))
        np.testing.assert_array_equal(forward(net, np.array([-3.0, 5.0])), [0.0, 5.0])

    def test_dimension_mismatch(self):
        net = Mlp(layers=(identity_layer(2),))
        with pytest.raises(DimensionError):
            forward(net, np.array([1.0, 2.0, 3.0]))

    def test_deterministic(self):
        net = build_paper_net(make_rng(5))
        x = np.array([0.3, -0.7])
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_composition_equals_folding(self):
        net = build_paper_net(make_rng(6))
        x = np.array([0.5, 1.2])
        acc = x
        for layer in net.layers:
            acc = forward(Mlp(layers=(layer,)), acc)
        np.testing.assert_array_equal(acc, forward(net, x))

    def test_paper_net_output_in_simplex(self):
        net = build_paper_net(make_rng(7))
        out = forward(net, np.array([2.0, -1.0]))
        assert out.shape == (2,)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_batched_rows_bit_identical_to_single_points(self):
        cloud = gen_annulus2d(50, 8)
        net = build_paper_net(make_rng(8))
        batch = forward_batch(net, cloud.points)
        for i in range(len(cloud)):
            assert np.array_equal(forward(net, cloud.points[i]), batch[i])


class TestPaperNet:
    def test_layer_count_and_dims(self):
        net = build_paper_net(make_rng(0))
        assert len(net.layers) == 6
        assert net.layers[0].weight.shape == (5, 2)
        assert net.layers[-1].activation == "softmax"
        assert [l.weight.shape for l in net.layers] == [
            (5, 2), (5, 5), (2, 5), (2, 2), (2, 2), (2, 2),
        ]

    def test_init_is_seed_deterministic(self):
        a = build_paper_net(make_rng(3))
        b = build_paper_net(make_rng(3))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weight, lb.weight)


class TestTrace:
    def test_stage_count_and_dims(self):
        cloud = gen_annulus2d(20, 1)
        net = build_paper_net(make_rng(2))
        trace = forward_trace(net, cloud)
        assert len(trace.stages) == len(net.layers) + 1
        assert trace.stage_dims() == list(PAPER_NET_DIMS)

    def test_last_stage_is_batched_forward(self):
        cloud = gen_annulus2d(15, 2)
        net = build_paper_net(make_rng(4))
        trace = forward_trace(net, cloud)
        assert np.array_equal(trace.stage_points(-1), forward_batch(net, cloud.points))

    def test_labels_carried_through(self):
        cloud = gen_annulus2d(10, 3)
        trace = forward_trace(build_paper_net(make_rng(1)), cloud)
        assert np.array_equal(trace.labels, cloud.labels)
        assert all(pts.shape[0] == len(cloud) for _, pts in trace.stages)

    def test_pre_activation_stages_optional(self):
        cloud = gen_annulus2d(10, 3)
        net = build_paper_net(make_rng(1))
        trace = forward_trace(net, cloud, include_pre=True)
        assert len(trace.stages) == 2 * len(net.layers) + 1
        assert trace.stages[1][0] == "layer1_pre"
        stages = dict(trace.stages)
        relu_layers = [i for i, lay in enumerate(net.layers, start=1) if lay.activation == RELU]
        assert len(relu_layers) == 5
        for i in relu_layers:
            pre, post = stages[f"layer{i}_pre"], stages[f"layer{i}_relu"]
            assert post.tobytes() == np.maximum(pre, 0.0).tobytes()


class TestModelFiles:
    def test_round_trip_exact(self, tmp_path):
        net = build_paper_net(make_rng(9))
        path = tmp_path / "model.json"
        save_model(net, path)
        back = load_model(path)
        assert len(back.layers) == len(net.layers)
        for la, lb in zip(net.layers, back.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_unknown_activation_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"layers": [{"activation": "tanh", "weight": [[1.0]], "bias": [0.0]}]}')
        with pytest.raises(SchemaError):
            load_model(path)

    def test_inconsistent_chain_rejected(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(
            '{"layers": [{"activation": "relu", "weight": [[1.0, 0.0]], "bias": [0.0]},'
            ' {"activation": "softmax", "weight": [[1.0, 0.0]], "bias": [0.0, 0.0]}]}'
        )
        with pytest.raises(SchemaError):
            load_model(path)


class TestStructureValidation:
    def test_softmax_must_be_final(self):
        sm = LayerSpec(weight=np.eye(2), bias=np.zeros(2), activation="softmax")
        with pytest.raises(DimensionError):
            Mlp(layers=(sm, identity_layer(2)))

    def test_bias_length_checked(self):
        with pytest.raises(DimensionError):
            LayerSpec(weight=np.eye(2), bias=np.zeros(3), activation="relu")

    def test_chain_compatibility_checked(self):
        with pytest.raises(DimensionError):
            Mlp(layers=(identity_layer(2), identity_layer(3)))

    def test_build_relu_net_rejects_bad_dims(self):
        with pytest.raises(DimensionError):
            build_relu_net((2,), make_rng(0))


class TestStrictArgmax:
    def test_clear_winner(self):
        assert strict_argmax(np.array([0.1, 0.9])) == 1

    def test_exact_tie_is_none(self):
        assert strict_argmax(np.array([0.5, 0.5])) is None

    def test_near_tie_within_tol_is_none(self):
        assert strict_argmax(np.array([0.5, 0.5 + 1e-13])) is None
