import json
import tracemalloc

import numpy as np
import pytest

from topoclass.data import (
    ANNULUS_BANDS,
    LabeledPointCloud,
    MAX_DRAW_COORDINATES,
    cloud_to_csv,
    fields,
    gen_annulus2d,
    gen_nested_shells,
    load_cloud,
    numbers,
    save_cloud,
)
from topoclass.errors import ParseError, SchemaError, SpecError


def norms(points):
    return np.sqrt((points * points).sum(axis=1))


class TestGenShells:
    def test_bounds_are_hard(self):
        cloud = gen_nested_shells(2, ANNULUS_BANDS, 10_000, 1)
        inner = norms(cloud.class_points(0))
        outer = norms(cloud.class_points(1))
        assert inner.max() <= 0.9
        assert outer.min() >= 1.0
        assert outer.max() <= 2.0

    def test_disc_mean_norm_matches_density(self):
        # E[r] for uniform on a disc of radius R is (2/3) R
        cloud = gen_nested_shells(2, ANNULUS_BANDS, 10_000, 2)
        mean = norms(cloud.class_points(0)).mean()
        assert abs(mean - (2.0 / 3.0) * 0.9) < 0.05 * (2.0 / 3.0) * 0.9

    def test_single_sample_per_class(self):
        cloud = gen_nested_shells(4, ANNULUS_BANDS, 1, 3)
        assert len(cloud) == 2
        assert sorted(cloud.labels.tolist()) == [0, 1]

    def test_deterministic(self):
        a = gen_nested_shells(3, ANNULUS_BANDS, 50, 9)
        b = gen_nested_shells(3, ANNULUS_BANDS, 50, 9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_high_dim_radial_draws_are_uniform_in_the_band(self):
        # at dim 20 the sampler draws radially; uniform in the ball makes
        # (r / 0.9)^20 uniform on [0, 1], and the shell the same for
        # (r^20 - 1) / (2^20 - 1)
        cloud = gen_nested_shells(20, ANNULUS_BANDS, 2000, 4)
        inner = norms(cloud.class_points(0))
        outer = norms(cloud.class_points(1))
        assert inner.max() <= 0.9 and outer.min() >= 1.0 and outer.max() <= 2.0
        assert abs(((inner / 0.9) ** 20).mean() - 0.5) < 0.03
        assert abs(((outer**20 - 1.0) / (2.0**20 - 1.0)).mean() - 0.5) < 0.03
        assert np.abs(cloud.class_points(0).mean(axis=0)).max() < 0.05

    def test_rejection_batches_hold_a_bounded_number_of_coordinates(self):
        # dim 17 keeps about 1e-6 of the cube's draws: batches of 2,000,000
        # rows of 17 coordinates peaked at 322 MB, for one point per class
        tracemalloc.start()
        try:
            cloud = gen_nested_shells(17, ANNULUS_BANDS, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cloud) == 2
        # a batch and its squares (8 bytes a coordinate), with room for one more
        assert peak < 3 * MAX_DRAW_COORDINATES * 8

    def test_very_high_dim_does_not_overflow(self):
        cloud = gen_nested_shells(400, ANNULUS_BANDS, 3, 5)
        r = norms(cloud.points)
        assert r[:3].max() <= 0.9 and r[3:].min() >= 1.0 and r[3:].max() <= 2.0

    def test_invalid_radii(self):
        with pytest.raises(SpecError, match="separated by gaps"):
            gen_nested_shells(2, [(0.0, 1.5), (1.0, 2.0)], 10, 0)
        with pytest.raises(SpecError, match="not a valid radius range"):
            gen_nested_shells(2, [(0.0, 0.0), (1.0, 2.0)], 10, 0)
        with pytest.raises(SpecError, match="dim must be >= 1"):
            gen_nested_shells(0, ANNULUS_BANDS, 10, 0)


class TestAnnulus:
    def test_counts_and_classes(self):
        cloud = gen_annulus2d(500, 7)
        assert len(cloud) == 1000
        assert cloud.dim == 2
        assert cloud.class_count == 2

    def test_norm_cap(self):
        cloud = gen_annulus2d(500, 7)
        assert norms(cloud.points).max() <= 2.0

    def test_radial_gap_is_empty(self):
        cloud = gen_annulus2d(2000, 11)
        r = norms(cloud.points)
        assert not ((r > 0.9) & (r < 1.0)).any()


class TestNestedShells:
    def test_three_bands(self):
        cloud = gen_nested_shells(2, [(0.0, 0.5), (1.0, 1.5), (2.0, 2.5)], 100, 5)
        assert cloud.class_count == 3
        for k, (lo, hi) in enumerate([(0.0, 0.5), (1.0, 1.5), (2.0, 2.5)]):
            r = norms(cloud.class_points(k))
            assert r.min() >= lo and r.max() <= hi

    def test_touching_bands_rejected(self):
        with pytest.raises(SpecError):
            gen_nested_shells(2, [(0.0, 1.0), (1.0, 2.0)], 10, 0)

    def test_bad_band(self):
        with pytest.raises(SpecError):
            gen_nested_shells(2, [(0.5, 0.2)], 10, 0)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        cloud = gen_nested_shells(3, ANNULUS_BANDS, 40, 13)
        path = tmp_path / "cloud.json"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert back.dim == cloud.dim
        assert back.class_count == cloud.class_count
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.labels, cloud.labels)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "points": [[')
        with pytest.raises(ParseError):
            load_cloud(path)

    def test_empty_points_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"dim": 2, "class_count": 1, "points": [], "labels": []}')
        with pytest.raises(SchemaError):
            load_cloud(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "badlabel.json"
        payload = {"dim": 1, "class_count": 2, "points": [[0.0], [1.0]], "labels": [0, 2]}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_cloud(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text('{"dim": 2, "points": [[0.0, 0.0]], "labels": [0]}')
        with pytest.raises(SchemaError):
            load_cloud(path)

    @pytest.mark.parametrize("key", ["dim", "class_count"])
    def test_boolean_count_rejected_by_name(self, tmp_path, key):
        path = tmp_path / "bool.json"
        payload = {"dim": 1, "class_count": 1, "points": [[0.0]], "labels": [0]}
        payload[key] = True
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=f"^{key} must be an integer, got bool$"):
            load_cloud(path)

    @pytest.mark.parametrize(
        "points, labels",
        [([[10**400], [1.0]], [0, 0]), ([[0.0], [1.0]], [0, 2**64])],
        ids=["coordinate past float64", "label past int64"],
    )
    def test_huge_integers_rejected(self, tmp_path, points, labels):
        path = tmp_path / "huge.json"
        payload = {"dim": 1, "class_count": 1, "points": points, "labels": labels}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_cloud(path)

    def test_ragged_point_rejected(self, tmp_path):
        path = tmp_path / "ragged.json"
        payload = {"dim": 2, "class_count": 1, "points": [[0.0, 1.0], [2.0]], "labels": [0, 0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_cloud(path)


class TestJsonReaders:
    def test_numbers_keep_values_and_dtype(self):
        points = numbers([[1, 2.5], [-0.0, 1e308]], "points")
        assert points.dtype == np.float64 and points.tolist() == [[1.0, 2.5], [-0.0, 1e308]]
        assert numbers([0, 2**62], "labels", int, np.int64).tolist() == [0, 2**62]
        assert numbers(3, "value").shape == ()

    @pytest.mark.parametrize("leaf", [0, "0"])
    def test_numbers_walk_any_depth_without_recursion(self, leaf):
        deep = leaf
        for _ in range(100_000):
            deep = [deep]
        with pytest.raises(SchemaError):
            numbers(deep, "points")

    def test_fields_in_order(self):
        assert fields({"b": 1, "a": 2}, "file", ("a", "b")) == [2, 1]
        with pytest.raises(SchemaError, match="^file is missing key 'c'$"):
            fields({"a": 1}, "file", ("a", "c"))
        with pytest.raises(SchemaError, match="^file must be a JSON object$"):
            fields([1], "file", ("a",))


class TestCloudInvariants:
    def test_every_class_must_appear(self):
        with pytest.raises(SchemaError):
            LabeledPointCloud(
                dim=1, points=np.array([[0.0], [1.0]]), labels=np.array([0, 0]), class_count=2
            )

    def test_more_classes_than_points(self):
        with pytest.raises(SchemaError, match="exceeds the 2 points"):
            LabeledPointCloud(
                dim=1, points=np.array([[0.0], [1.0]]), labels=np.array([0, 1]), class_count=10**30
            )

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            LabeledPointCloud(
                dim=1, points=np.array([[0.0], [1.0]]), labels=np.array([0]), class_count=1
            )

    def test_non_finite_coordinates(self):
        with pytest.raises(SchemaError):
            LabeledPointCloud(
                dim=1, points=np.array([[np.inf]]), labels=np.array([0]), class_count=1
            )


def test_csv_export(tmp_path):
    cloud = gen_annulus2d(5, 3)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,label"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == cloud.points[0, 0]
