import csv
import importlib
import io
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from topoclass import cli as cli_mod
from topoclass import errors
from topoclass.cli import MAX_GRID_SIZE, main
from topoclass.data import LabeledPointCloud, load_cloud, save_cloud
from topoclass.isomap import graph_components, knn_graph
from topoclass.network import load_model
from topoclass.topology import urysohn_binary

# the package's ``isomap`` attribute is the function, not the module
isomap_mod = importlib.import_module("topoclass.isomap")


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset + trained paper model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.json"
    model = root / "model.json"
    assert run(["gen", "--annulus", "--n", 100, "--seed", 0, "-o", data]) == 0
    code = run(
        ["train", data, "--paper-net", "--seed", 0, "--target-accuracy", "1.0", "-o", model]
    )
    assert code == 0
    return {"root": root, "data": data, "model": model}


class TestGen:
    def test_annulus_counts(self, tmp_path):
        out = tmp_path / "d.json"
        assert run(["gen", "--annulus", "--n", 500, "--seed", 7, "-o", out]) == 0
        cloud = load_cloud(out)
        assert len(cloud) == 1000

    def test_shells_dim5(self, tmp_path):
        out = tmp_path / "d5.json"
        assert run(["gen", "--shells", "--dim", 5, "--n", 50, "--seed", 1, "-o", out]) == 0
        assert load_cloud(out).dim == 5

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--annulus", "--n", 10])
        assert err.value.code == 2

    def test_csv_export(self, tmp_path):
        out = tmp_path / "d.json"
        csv_out = tmp_path / "d.csv"
        assert run(["gen", "--annulus", "--n", 10, "--seed", 0, "-o", out, "--csv", csv_out]) == 0
        assert csv_out.read_text().splitlines()[0] == "x0,x1,label"

    def test_shells_dim20_stay_inside_their_bands(self, tmp_path):
        # the cube accepts about 2.5e-8 of its draws at dim 20, so this
        # takes the radial sampler
        out = tmp_path / "d20.json"
        assert run(["gen", "--shells", "--dim", 20, "--n", 20, "--seed", 0, "-o", out]) == 0
        cloud = load_cloud(out)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert cloud.dim == 20 and len(cloud) == 40
        assert np.all(norms[cloud.labels == 0] <= 0.9)
        inner = norms[cloud.labels == 1]
        assert np.all((inner >= 1.0) & (inner <= 2.0))

    def test_bad_bands_exit_2(self, tmp_path):
        code = run(["gen", "--shells", "--bands", "nonsense", "-o", tmp_path / "x.json"])
        assert code == 2


class TestTrain:
    def test_paper_net_model_file(self, workspace):
        net = load_model(workspace["model"])
        assert len(net.layers) == 6
        history = (workspace["root"] / "model_history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy"

    def test_deterministic_history(self, workspace, tmp_path):
        args = [
            "train", workspace["data"], "--paper-net", "--seed", 3, "--epochs", 5,
            "--target-accuracy", "1.0",
        ]
        run(args + ["-o", tmp_path / "m1.json", "--history", tmp_path / "h1.csv"])
        run(args + ["-o", tmp_path / "m2.json", "--history", tmp_path / "h2.csv"])
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_bottleneck_arch_exits_one(self, workspace, tmp_path):
        code = run(
            ["train", workspace["data"], "--dims", "2,1,2", "--epochs", 50,
             "--seed", 0, "-o", tmp_path / "bn.json"]
        )
        assert code == 1
        assert (tmp_path / "bn.json").exists()

    def test_diverging_learning_rate_exits_1_without_warnings(self, workspace, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", workspace["data"], "--paper-net", "--lr", 500,
                        "--epochs", 5, "-o", tmp_path / "m.json"])
        assert code == 1
        assert "diverged in epoch 1" in capsys.readouterr().err

    def test_dims_mismatch_exit_2(self, workspace, tmp_path):
        code = run(["train", workspace["data"], "--dims", "3,4,2", "-o", tmp_path / "x.json"])
        assert code == 2


class TestTrace:
    def test_stage_files_and_index(self, workspace, tmp_path):
        out = tmp_path / "trace"
        assert run(["trace", workspace["model"], workspace["data"], "--out-dir", out]) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index["stages"]) == 7
        dims = [s["dim"] for s in index["stages"]]
        assert dims == [2, 5, 5, 2, 2, 2, 2]
        svgs = sorted(p.name for p in out.glob("*.svg"))
        assert len(svgs) == 7
        projected = [s for s in index["stages"] if s["projected"]]
        assert [s["dim"] for s in projected] == [5, 5]

    def test_svgs_are_wellformed_xml(self, workspace, tmp_path):
        out = tmp_path / "trace2"
        run(["trace", workspace["model"], workspace["data"], "--out-dir", out])
        for svg in out.glob("*.svg"):
            root = ET.parse(svg).getroot()
            assert root.tag.endswith("svg")

    def test_labels_color_stable_across_stages(self, workspace, tmp_path):
        out = tmp_path / "trace3"
        run(["trace", workspace["model"], workspace["data"], "--out-dir", out])
        ns = {"svg": "http://www.w3.org/2000/svg"}
        fills_per_stage = []
        for svg in sorted(out.glob("*.svg")):
            circles = ET.parse(svg).getroot().findall(".//svg:circle", ns)
            fills_per_stage.append([c.get("fill") for c in circles])
        first = fills_per_stage[0]
        assert all(fills == first for fills in fills_per_stage[1:])

    def test_wrong_data_dim_exit_2(self, workspace, tmp_path):
        other = tmp_path / "d3.json"
        run(["gen", "--shells", "--dim", 3, "--n", 10, "--seed", 0, "-o", other])
        assert run(["trace", workspace["model"], other, "--out-dir", tmp_path / "t"]) == 2

    def test_include_pre_doubles_stages(self, workspace, tmp_path):
        out = tmp_path / "tracepre"
        run(["trace", workspace["model"], workspace["data"], "--out-dir", out,
             "--include-pre"])
        index = json.loads((out / "index.json").read_text())
        assert len(index["stages"]) == 13
        assert index["stages"][1]["name"] == "layer1_pre"


class TestCheckSep:
    def test_trained_model_exit_0(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        code = run(["check-sep", workspace["model"], workspace["data"], "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["voronoi_ok"] is True
        assert report["violating_points"] == []
        assert report["disc_ok"] is True
        assert report["min_inter_disc_gap"] > 0

    def test_untrained_model_exit_1(self, workspace, tmp_path):
        fresh = tmp_path / "fresh.json"
        run(["train", workspace["data"], "--paper-net", "--seed", 11, "--epochs", 1,
             "--lr", "1e-9", "-o", fresh])
        out = tmp_path / "report.json"
        code = run(["check-sep", fresh, workspace["data"], "--out", out])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["voronoi_ok"] is False
        assert len(report["violating_points"]) > 0
        entry = report["violating_points"][0]
        assert set(entry) == {"index", "assigned", "true"}

    def test_single_class_gap_is_null(self, tmp_path, capsys):
        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        data, model, out = tmp_path / "one.json", tmp_path / "m.json", tmp_path / "r.json"
        run(["gen", "--shells", "--dim", 2, "--bands", "0:1", "--n", 30, "--seed", 0, "-o", data])
        run(["train", data, "--dims", "2,3,1", "--seed", 0, "-o", model])
        capsys.readouterr()
        assert run(["check-sep", model, data, "--out", out]) == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=strict)
        report = json.loads(out.read_text(), parse_constant=strict)
        assert report == printed
        assert report["disc_ok"] is True
        assert report["min_inter_disc_gap"] is None

    def test_csv_format(self, workspace, tmp_path):
        out = tmp_path / "violations.csv"
        run(["check-sep", workspace["model"], workspace["data"], "--out", out,
             "--format", "csv"])
        assert out.read_text().splitlines()[0] == "index,assigned,true"


class TestWitness:
    def test_no_bottleneck_exit_3(self, workspace):
        assert run(["witness", workspace["model"]]) == 3

    def test_bottleneck_witness(self, workspace, tmp_path):
        bn = tmp_path / "bn.json"
        run(["train", workspace["data"], "--dims", "2,1,2", "--epochs", 30, "--seed", 0,
             "-o", bn])
        out = tmp_path / "wit.json"
        assert run(["witness", bn, "--out", out]) == 0
        witness = json.loads(out.read_text())
        for key in ("direction", "p1", "p2", "output_gap",
                    "first_layer_image_p1", "first_layer_image_p2",
                    "net_output_p1", "net_output_p2"):
            assert key in witness
        assert witness["net_output_diff"] < 1e-9
        shared_gap = np.abs(
            np.array(witness["first_layer_image_p1"]) - np.array(witness["first_layer_image_p2"])
        ).max()
        assert shared_gap < 1e-9


class TestSweep:
    def test_csv_rows_and_width1_witness(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep-bottleneck", workspace["data"], "--widths", "1,2",
                    "--seeds", 1, "--epochs", 20, "-o", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "width,best_accuracy,witness_gap,witness_p1,witness_p2"
        assert len(lines) == 3
        row1 = lines[1].split(",")
        assert row1[0] == "1"
        assert row1[2] != ""  # bottleneck width gets a witness
        p1 = [float(x) for x in row1[3].split(";")]
        assert abs(np.linalg.norm(p1) - 0.5) < 1e-9
        assert lines[2].split(",")[2] == ""  # width 2 has no bottleneck

    @pytest.mark.parametrize("flags", [("--seeds", 0), ("--widths", "1,a")])
    def test_bad_flags_exit_2(self, workspace, tmp_path, flags):
        assert run(["sweep-bottleneck", workspace["data"], *flags, "-o", tmp_path / "s.csv"]) == 2


class TestIsomapCommand:
    def test_embedding_files(self, workspace, tmp_path):
        out = tmp_path / "iso"
        assert run(["isomap", workspace["data"], "--knn", 10, "--out-dir", out]) == 0
        payload = json.loads((out / "embedding.json").read_text())
        assert len(payload["coordinates"]) == 200
        assert len(payload["coordinates"][0]) == 3
        assert (out / "embedding.svg").exists()

    def test_csv_format_includes_labels(self, workspace, tmp_path):
        out = tmp_path / "iso2"
        run(["isomap", workspace["data"], "--knn", 10, "--format", "csv", "--out-dir", out])
        header = (out / "embedding.csv").read_text().splitlines()[0]
        assert header == "x,y,z,label"

    def test_disconnected_exit_1_unless_restricted(self, tmp_path):
        # two widely separated bands disconnect at k=1
        data = tmp_path / "split.json"
        run(["gen", "--shells", "--bands", "0:0.5,50:51", "--n", 30, "--seed", 1,
             "-o", data])
        assert run(["isomap", data, "--knn", 1, "--out-dir", tmp_path / "iso3"]) == 1
        out = tmp_path / "iso4"
        assert run(["isomap", data, "--knn", 1, "--largest-component",
                    "--out-dir", out]) == 0
        payload = json.loads((out / "embedding.json").read_text())
        assert len(payload["coordinates"]) < 60

    def test_largest_component_builds_one_graph_and_matches_kept_points(
        self, tmp_path, monkeypatch
    ):
        # bands 0 and 1 are 0.1 apart and band 2 is far: at k=5 the largest
        # component holds classes 0 and 1
        data = tmp_path / "three.json"
        run(["gen", "--shells", "--bands", "0:0.9,1:2,50:51", "--n", 30, "--seed", 1, "-o", data])
        cloud = load_cloud(data)
        keep = max(graph_components(knn_graph(cloud.points, 5)), key=len)
        assert set(cloud.labels[keep].tolist()) == {0, 1}
        kept = tmp_path / "kept.json"
        save_cloud(
            LabeledPointCloud(cloud.dim, cloud.points[keep], cloud.labels[keep], 2), kept
        )
        calls = []

        def counting_knn_graph(*args):
            calls.append(args)
            return knn_graph(*args)

        monkeypatch.setattr(cli_mod, "knn_graph", counting_knn_graph)
        monkeypatch.setattr(isomap_mod, "knn_graph", counting_knn_graph)
        for fmt in ("json", "csv"):
            calls.clear()
            assert run(["isomap", data, "--knn", 5, "--largest-component", "--format", fmt,
                        "--out-dir", tmp_path / "restricted" / fmt]) == 0
            assert len(calls) == 1
            assert run(["isomap", kept, "--knn", 5, "--format", fmt,
                        "--out-dir", tmp_path / "kept" / fmt]) == 0
        for name in ("json/embedding.json", "json/embedding.svg", "csv/embedding.csv"):
            restricted = (tmp_path / "restricted" / name).read_bytes()
            assert restricted == (tmp_path / "kept" / name).read_bytes()


class TestUrysohn:
    def test_grid_and_exactness(self, workspace, tmp_path):
        out = tmp_path / "ury"
        assert run(["urysohn", workspace["data"], "--out-dir", out]) == 0
        lines = (out / "field.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 101 * 101
        first = lines[1].split(",")
        assert float(first[0]) == -2.5 and float(first[1]) == -2.5
        root = ET.parse(out / "field.svg").getroot()
        assert root.tag.endswith("svg")

    def test_three_class_field(self, tmp_path):
        data = tmp_path / "shells3.json"
        run(["gen", "--shells", "--bands", "0:0.5,1:1.5,2:2.5", "--n", 40,
             "--seed", 2, "-o", data])
        out = tmp_path / "ury3"
        assert run(["urysohn", data, "--grid-size", 21, "--out-dir", out]) == 0
        cloud = load_cloud(data)
        from topoclass.topology import urysohn_multiclass

        field = urysohn_multiclass(cloud.split_by_class())
        for k in range(3):
            vals = field(cloud.class_points(k))
            assert np.abs(vals - k).max() == 0.0

    def test_non_planar_data_exit_2(self, tmp_path):
        data = tmp_path / "d5.json"
        run(["gen", "--shells", "--dim", 5, "--n", 10, "--seed", 0, "-o", data])
        assert run(["urysohn", data, "--out-dir", tmp_path / "u"]) == 2

    def test_field_csv_matches_row_by_row_writer(self, workspace, tmp_path):
        out = tmp_path / "ury21"
        assert run(["urysohn", workspace["data"], "--grid-size", 21, "--out-dir", out]) == 0
        classes = load_cloud(workspace["data"]).split_by_class()
        field = urysohn_binary(classes[0], classes[1])
        xs = np.linspace(-2.5, 2.5, 21)
        ys = np.linspace(-2.5, 2.5, 21)
        values = field(np.array([[x, y] for y in ys for x in xs])).reshape(21, 21)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["x", "y", "value"])
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(values[j, i]))])
        assert (out / "field.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_single_sample_grid(self, workspace, tmp_path):
        out = tmp_path / "ury1"
        assert run(["urysohn", workspace["data"], "--grid-size", 1, "--out-dir", out]) == 0
        assert (out / "field.csv").read_text().splitlines()[1].startswith("-2.5,-2.5,")


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid-size", 0],
            ["--grid-size", -3],
            ["--grid-size", MAX_GRID_SIZE + 1],
            ["--grid-extent", "nan"],
            ["--grid-extent", "inf"],
            ["--grid-extent", -1],
            ["--grid-extent", 0],
        ],
        ids=lambda flags: " ".join(map(str, flags)),
    )
    def test_bad_urysohn_grid_is_spec_error(self, flags, workspace, tmp_path, capsys):
        assert run(["urysohn", workspace["data"], *flags, "--out-dir", tmp_path / "u"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} must")
        assert not (tmp_path / "u").exists()

    def test_witness_residual_over_bound_exits_1(self, tmp_path):
        # a kernel direction of this huge first layer leaves a residual far
        # above the witness's 1e-9 bound: NumericalError, a quality failure
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"layers": [
            {"activation": "relu", "weight": [[1e12, 3.3e12]], "bias": [0.0]},
            {"activation": "softmax", "weight": [[1.0], [-1.0]], "bias": [0.0, 0.0]},
        ]}))
        assert run(["witness", model]) == 1

    def test_directory_as_data_exits_2(self, workspace, tmp_path):
        assert run(["check-sep", workspace["model"], tmp_path]) == 2

    def test_non_finite_weight_is_schema_error(self, tmp_path):
        model = tmp_path / "nan.json"
        model.write_text(
            '{"layers": [{"activation": "softmax", "weight": [[NaN, 1]], "bias": [0]}]}'
        )
        with pytest.raises(errors.SchemaError):
            load_model(model)
        assert run(["witness", model]) == 2

    @pytest.mark.parametrize(
        "error",
        [
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.TopoclassError)
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_exit_code_follows_error_class(self, error, monkeypatch, tmp_path):
        def fail(*args):
            raise error([[0], [1]]) if error is errors.DisconnectedError else error("boom")

        monkeypatch.setattr("topoclass.data.gen_annulus2d", fail)
        expected = 1 if error in (errors.DisconnectedError, errors.NumericalError) else 2
        assert run(["gen", "--annulus", "-o", tmp_path / "d.json"]) == expected
