import argparse
import contextlib
import csv
import errno
import importlib
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import topoclass
from topoclass import cli as cli_mod
from topoclass import data as data_mod
from topoclass import errors
from topoclass import network as net_mod
from topoclass import numerics as numerics_mod
from topoclass import topology as topo_mod
from topoclass import training as train_mod
from topoclass.cli import main
from topoclass.data import LabeledPointCloud, load_cloud, save_cloud
from topoclass.isomap import graph_components, knn_graph
from topoclass.network import build_relu_net, load_model, save_model
from topoclass.numerics import KERNEL_TOL, make_rng
from topoclass.topology import urysohn_binary, urysohn_multiclass

# the package's ``isomap`` attribute is the function, not the module
isomap_mod = importlib.import_module("topoclass.isomap")


def run(argv):
    return main([str(a) for a in argv])


def record_plans(monkeypatch, module):
    """The plans ``module`` hands ``require_budget``, in call order; the budget still applies."""
    plans = []

    def record(what, planned):
        plans.append(planned)
        return numerics_mod.require_budget(what, planned)

    monkeypatch.setattr(module, "require_budget", record)
    return plans


def traced_peak(call):
    """``call()`` and tracemalloc's peak over it, above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def ring_classes(path, classes, per_class):
    """Save ``classes`` clusters of ``per_class`` points, spread round the unit circle."""
    angles = np.repeat(np.arange(classes) * (2 * np.pi / classes), per_class)
    spread = 1e-3 * make_rng(0).standard_normal((len(angles), 2)) if per_class > 1 else 0.0
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1) + spread
    labels = np.repeat(np.arange(classes), per_class)
    save_cloud(LabeledPointCloud(2, points, labels, classes), path)
    return path


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

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_annulus_is_the_shells_defaults(self, tmp_path, seed):
        outs = [tmp_path / f"{name}.json" for name in ("annulus", "shells", "defaults")]
        for geometry, out in zip(
            (["--annulus"], ["--shells", "--dim", 2, "--bands", "0:0.9,1:2"], ["--shells"]), outs
        ):
            assert run(["gen", *geometry, "--n", 30, "--seed", seed, "-o", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--dim", 5], "--dim"),
            (["--dim", 2], "--dim"),
            (["--bands", "0:0.9,1:2"], "--bands"),
            (["--dim", 5, "--bands", "0:1,2:3,4:5"], "--dim or --bands"),
        ],
    )
    def test_annulus_refuses_dim_and_bands(self, tmp_path, capsys, flags, named):
        out = tmp_path / "g.json"
        assert run(["gen", "--annulus", *flags, "--n", 3, "-o", out]) == 2
        assert capsys.readouterr().err == f"error: --annulus cannot be combined with {named}\n"
        assert not out.exists()

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

    # outer radii of inf and 1e308 overflowed the sampler (a traceback), and
    # of 1e-320 underflowed it (ZeroDivisionError); 2^64 points never ended
    @pytest.mark.parametrize(
        "flags",
        [
            ["--bands", "0:inf"],
            ["--bands", "0:1e308"],
            ["--bands", "1e-320:2e-320"],
            ["--n", 2**64],
            ["--dim", 10**6, "--n", 20],
        ],
    )
    def test_out_of_range_sizes_and_radii_exit_2(self, tmp_path, flags):
        code = run(["gen", "--shells", *flags, "-o", tmp_path / "x.json"])
        assert code == 2

    def test_past_the_budget_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        # 5 points per class, 2 classes in R^2: 30 numbers, 100 bytes each,
        # and the JSON encoder's 8 MiB
        argv = ["gen", "--annulus", "--n", 5, "-o", tmp_path / "at.json"]
        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 2**23 + 3000)
        assert run(argv) == 0
        capsys.readouterr()

        def never(*args):
            raise AssertionError("points sampled past MEMORY_BUDGET")

        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 2**23 + 2999)
        monkeypatch.setattr(data_mod, "gen_nested_shells", never)
        out = tmp_path / "past.json"
        assert run(["gen", "--annulus", "--n", 5, "-o", out]) == 2
        assert capsys.readouterr().err == (
            "error: gen of 5 points per class, 2 classes in R^2 needs 8391608 bytes, "
            "more than MEMORY_BUDGET = 8391607\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("dim, n", [(1, 200), (2, 200), (5, 200), (1, 20_000), (2, 20_000)])
    def test_plan_bounds_the_traced_peak(self, tmp_path, monkeypatch, dim, n):
        plans = record_plans(monkeypatch, cli_mod)
        argv = ["gen", "--shells", "--dim", dim, "--n", n, "-o", tmp_path / "g.json",
                "--csv", tmp_path / "g.csv"]
        code, peak = traced_peak(lambda: run(argv))
        assert code == 0 and len(plans) == 1
        assert peak <= plans[0]

    def test_tiny_and_far_bands_stay_inside_them(self, tmp_path):
        out = tmp_path / "far.json"
        bands = "0:1e-150,1e149:1e150"
        assert run(["gen", "--shells", "--dim", 3, "--bands", bands, "--n", 20, "-o", out]) == 0
        cloud = load_cloud(out)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.all(norms[cloud.labels == 0] <= 1e-150)
        assert np.all((norms[cloud.labels == 1] >= 1e149) & (norms[cloud.labels == 1] <= 1e150))


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

    # a usage error, not a diverged training run (exit 1)
    def test_infinite_learning_rate_is_a_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["train", workspace["data"], "--dims", "2,3,2", "--lr", "inf", "-o", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: learning_rate must be positive and finite, got inf\n"
        assert not out.exists()

    def test_dims_mismatch_exit_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["train", workspace["data"], "--dims", "3,4,2", "-o", out]) == 2
        assert capsys.readouterr().err == "error: net expects inputs of dim 3, data has dim 2\n"
        assert not out.exists()

    def test_stack_past_the_limit_exits_2_before_training(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # the paper net on 200 points: 18 units + 21 per point, batches of 32
        # and a last one (64 rows) of 2 * 18 + 4, and 4 x 75 parameters, in
        # float64; 1 KB for each of its 7 widths and 96 bytes for each of 500 epochs
        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 140447)
        monkeypatch.setattr(train_mod, "train_many", None)  # a call would be a TypeError
        out = tmp_path / "m.json"
        assert run(["train", workspace["data"], "--paper-net", "-o", out]) == 2
        assert capsys.readouterr().err == (
            "error: training 1 net x (8 x (200 points x 39 + 64 batch rows x 40 + 4 x 75 "
            "parameters) + 55168) needs 140448 bytes, more than MEMORY_BUDGET = 140447\n"
        )
        assert not out.exists()

    def test_width_past_1024_trains(self, tmp_path):
        # the README annulus: 1000 points x (1102 units + 21), 64 batch rows x
        # (2 * 1102 + 4) and 4 x 5502 parameters, about 1.3 M floats, inside
        # the stack budget
        data, out = tmp_path / "a.json", tmp_path / "wide.json"
        assert run(["gen", "--annulus", "--n", 500, "--seed", 0, "-o", data]) == 0
        argv = ["train", data, "--dims", "2,1100,2", "--epochs", 1, "--seed", 0, "-o", out]
        assert run(argv) == 1  # one epoch stays below the target accuracy
        assert [len(layer.bias) for layer in load_model(out).layers] == [1100, 2]

    def test_width_past_the_stack_budget_exits_2_before_building(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(net_mod, "build_relu_net", None)  # a call would be a TypeError
        out = tmp_path / "huge.json"
        width = 9999999999999999999999999
        argv = ["train", workspace["data"], "--dims", f"2,{width},2", "-o", out]
        assert run(argv) == 2
        per_point, per_row, params = width + 23, 2 * width + 8, width * 3 + 2 * (width + 1)
        planned = 8 * (200 * per_point + 64 * per_row + 4 * params) + 1024 * 3 + 96 * 500
        assert capsys.readouterr().err == (
            f"error: training 1 net x (8 x (200 points x {per_point} + 64 batch rows x {per_row} "
            f"+ 4 x {params} parameters) + 51072) needs {planned} bytes, "
            f"more than MEMORY_BUDGET = {numerics_mod.MEMORY_BUDGET}\n"
        )
        assert not out.exists()

    def test_model_and_history_in_one_file_exit_2_before_building(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # --epochs 500 trained in full before the write refused the pair
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(net_mod, "build_relu_net", None)  # a call would be a TypeError
        monkeypatch.setattr(train_mod, "train_many", None)
        argv = ["train", workspace["data"], "--paper-net", "--epochs", 500, "-o", "m.json"]
        for history in ("m.json", "./m.json"):
            assert run([*argv, "--history", history]) == 2
            assert capsys.readouterr().err == (
                f"error: two outputs name the same file: m.json and {history}\n"
            )
        assert list(tmp_path.iterdir()) == []

    def test_deep_net_on_few_points_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        # 819,204 activations on 2 points, but about 4.2e8 parameters (3.4 GB)
        data = tmp_path / "two.json"
        assert run(["gen", "--annulus", "--n", 1, "-o", data]) == 0
        capsys.readouterr()
        monkeypatch.setattr(net_mod, "build_relu_net", None)  # a call would be a TypeError
        out = tmp_path / "deep.json"
        dims = ",".join(["2"] + ["1024"] * 400 + ["2"])
        assert run(["train", data, "--dims", dims, "-o", out]) == 2
        assert capsys.readouterr().err == (
            "error: training 1 net x (8 x (2 points x 409623 + 2 batch rows x 819208 + 4 x "
            "418795522 parameters) + 459648) needs 13421577648 bytes, "
            f"more than MEMORY_BUDGET = {numerics_mod.MEMORY_BUDGET}\n"
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("knn", [0, -1])
    def test_knn_below_1_exit_2_without_projected_stages(self, tmp_path, knn):
        # the 2,1,2 net has no stage above 3-D, so --knn went unused
        data, model = tmp_path / "d.json", tmp_path / "narrow.json"
        run(["gen", "--annulus", "--n", 10, "-o", data])
        run(["train", data, "--dims", "2,1,2", "--epochs", 1, "-o", model])
        assert run(["trace", model, data, "--knn", knn, "--out-dir", tmp_path / "t"]) == 2

    def test_data_too_small_to_project_exit_2_before_isomap(self, tmp_path, monkeypatch, capsys):
        data, model = tmp_path / "two.json", tmp_path / "m.json"
        assert run(["gen", "--annulus", "--n", 1, "-o", data]) == 0
        run(["train", data, "--paper-net", "--epochs", 3, "-o", model])
        capsys.readouterr()
        monkeypatch.setattr(cli_mod, "isomap_embed", None)  # a call would be a TypeError
        assert run(["trace", model, data, "--out-dir", tmp_path / "t"]) == 2
        assert capsys.readouterr().err == (
            "error: stage 1 (layer1_relu, dim 5): a 3-D projection needs at least 3 points, "
            "the data has 2\n"
        )
        assert not (tmp_path / "t").exists()

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

    def test_csv_format_without_out_exits_2_before_the_net_runs(
        self, workspace, monkeypatch, capsys
    ):
        # the CSV would be written nowhere while the report is printed
        monkeypatch.setattr(net_mod, "load_model", None)  # a call would be a TypeError
        argv = ["check-sep", workspace["model"], workspace["data"], "--format", "csv"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check-sep --format csv needs --out\n"


_DIM = "net expects inputs of dim 3, data has dim 2"
_CLASSES = "net has 3 outputs but data has 2 classes"


# every command that runs a net on data refuses a misfit with network.require_fit's text
@pytest.mark.parametrize(
    "command, dims, head, text",
    [
        ("check-sep", (3, 4, 2), "softmax", _DIM),
        ("check-sep", (2, 4, 2), "identity", "net needs a softmax final layer"),
        ("check-sep", (2, 4, 3), "softmax", _CLASSES),
        ("trace", (3, 4, 2), "softmax", _DIM),
    ],
    ids=["check-sep-dim", "check-sep-head", "check-sep-classes", "trace-dim"],
)
def test_misfit_exits_2_with_the_fit_text(workspace, tmp_path, capsys, command, dims, head, text):
    model, out = tmp_path / "misfit.json", tmp_path / "out"
    *layers, last = build_relu_net(dims, make_rng(0)).layers
    head = net_mod.LayerSpec(last.weight, last.bias, head)
    save_model(net_mod.Mlp(layers=(*layers, head)), model)
    argv = [command, model, workspace["data"]]
    argv += ["--out", out] if command == "check-sep" else ["--out-dir", out]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")
    assert not out.exists()


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

    def test_more_than_100_seeds_train(self, workspace, tmp_path):
        # the stack plan counts the seeds; there is no limit on them of its own
        out = tmp_path / "s.csv"
        argv = ["sweep-bottleneck", workspace["data"], "--widths", "1", "--seeds", 101,
                "--epochs", 1, "-o", out]
        assert run(argv) == 0
        assert out.read_text().splitlines()[1].startswith("1,")

    def test_plan_bounds_the_traced_peak_of_2000_seeds(self, monkeypatch):
        # on two points each net's objects (the built and the returned net, its
        # generator and history) outweigh its floats: the sweep peaked at 1.87
        # times a plan of the floats alone
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 1)
        plans = record_plans(monkeypatch, train_mod)
        cloud = data_mod.gen_annulus2d(1, 0)

        def sweep():
            return cli_mod.run_bottleneck_sweep(cloud, [1], 2000, 0, 0.05, 2, 32, 0.99)

        _, peak = traced_peak(sweep)
        assert len(plans) == 1
        assert peak <= plans[0]

    def test_stack_past_the_limit_exits_2_before_training(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # 2 seeds x (8 x (200 points x (20 units + 21) + 64 batch rows x (2 * 20 + 4)
        # + 4 x 120 parameters) + 1 KB for each of 5 widths + 96 bytes for each of
        # 2 epochs) for the widest net, once per process
        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 2 * 194560 - 1)
        train_many = train_mod.train_many
        monkeypatch.setattr(train_mod, "train_many", None)  # a call would be a TypeError
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 2)
        out = tmp_path / "s.csv"
        argv = ["sweep-bottleneck", workspace["data"], "--widths", "1,2", "--seeds", 2,
                "--epochs", 2, "-o", out]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: training 2 nets x (8 x (200 points x 41 + 64 batch rows x 44 + 4 x 120 "
            "parameters) + 5312) in each of 2 processes needs 389120 bytes, "
            "more than MEMORY_BUDGET = 389119\n"
        )
        assert not out.exists()
        # one process holds one stack: 194560 bytes fit
        monkeypatch.setattr(train_mod, "train_many", train_many)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 1)
        assert run(argv) == 0

    def test_sweep_memory_does_not_grow_with_listed_widths(self, monkeypatch):
        # each width is built, trained and dropped before the next: the
        # budget's one stack per process bounds the whole sweep
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 1)
        cloud = data_mod.gen_annulus2d(4, 0)
        peaks = []
        for count in (1, 40):
            tracemalloc.start()
            try:
                cli_mod.run_bottleneck_sweep(cloud, [4000] * count, 1, 0, 0.05, 1, 32, 0.99)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestParallelSweep:
    """The widths train in forked processes with the sequential loop's results."""

    @staticmethod
    def sweep(monkeypatch, tmp_path, cores, data, *flags):
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: cores)
        out = tmp_path / f"sweep{cores}.csv"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(["sweep-bottleneck", data, "--seeds", 2, "-o", out, *flags])
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        csv_bytes = out.read_bytes() if out.exists() else None
        return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), csv_bytes

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("sweep") / "a.json"
        assert run(["gen", "--annulus", "--n", 20, "--seed", 0, "-o", data]) == 0
        return data

    # with "2,1,3" the bottleneck width 1, the one witnessed, trains in a
    # worker, whose witness must have the one-process bits
    @pytest.mark.parametrize("widths", ["1,2,3,4,5", "2,1,3"])
    def test_one_two_and_three_processes_write_the_same_bytes(
        self, workspace, tmp_path, monkeypatch, widths
    ):
        flags = ("--widths", widths, "--epochs", 30)
        runs = [self.sweep(monkeypatch, tmp_path, cores, workspace["data"], *flags)
                for cores in (1, 2, 3)]
        assert runs[0][0] == 0 and runs[0][3].count(b"\r\n") == len(widths.split(",")) + 1
        assert runs[1] == runs[0] and runs[2] == runs[0]

    # at --lr 10 widths 1 and 2 train, width 3 diverges with the net of
    # seed 0 and width 5 with the net of seed 1 (checked below)
    @pytest.mark.parametrize(
        "widths, cores",
        [("1,5,3", 2), ("5,3", 2), ("1,3,5", 3), ("1,2,5,3", 3)],
        ids=["child first", "parent first", "first child first", "second child first"],
    )
    def test_diverging_width_fails_as_the_sequential_run(
        self, small, tmp_path, monkeypatch, widths, cores
    ):
        flags = ("--widths", widths, "--epochs", 5, "--lr", 10)
        expected = self.sweep(monkeypatch, tmp_path, 1, small, *flags)
        code, stdout, stderr, csv_bytes = expected
        assert (code, stdout, csv_bytes) == (1, "", None)
        assert "diverged" in stderr and "Traceback" not in stderr
        assert self.sweep(monkeypatch, tmp_path, cores, small, *flags) == expected
        # the width that fails later in width order fails differently
        later = [w for w in widths.split(",") if w in ("3", "5")][1]
        assert self.sweep(monkeypatch, tmp_path, 1, small, "--widths", later,
                          *flags[2:])[2] != stderr

    def kill_in_worker(self, monkeypatch, width):
        parent, train_many = os.getpid(), train_mod.train_many

        def train_or_die(nets, cloud, cfg):
            if os.getpid() != parent and nets[0].layers[0].weight.shape[0] == width:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_many(nets, cloud, cfg)

        monkeypatch.setattr(train_mod, "train_many", train_or_die)

    @pytest.mark.parametrize("width, widths", [(2, "1,2,3"), (4, "1,2,3,4")])
    def test_killed_worker_is_a_typed_error_naming_its_width(
        self, small, tmp_path, monkeypatch, width, widths
    ):
        # with two processes the worker trains widths 2 and 4; killed at 4,
        # it has already sent width 2's results
        self.kill_in_worker(monkeypatch, width)
        code, stdout, stderr, csv_bytes = self.sweep(
            monkeypatch, tmp_path, 2, small, "--widths", widths, "--epochs", 2
        )
        assert (code, stdout, csv_bytes) == (1, "", None)
        assert stderr == (
            f"error: the process training width {width} ended without its result "
            "(killed by SIGKILL)\n"
        )

    def test_earlier_failure_in_this_process_wins_over_a_killed_worker(
        self, small, tmp_path, monkeypatch
    ):
        self.kill_in_worker(monkeypatch, 5)
        flags = ("--widths", "3,5", "--epochs", 5, "--lr", 10)
        code, _, stderr, _ = self.sweep(monkeypatch, tmp_path, 2, small, *flags)
        assert code == 1 and "diverged" in stderr

    def test_interrupt_kills_and_reaps_the_workers(self, small, monkeypatch):
        parent, train_many = os.getpid(), train_mod.train_many

        def interrupt_or_hang(nets, cloud, cfg):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return train_many(nets, cloud, cfg)

        monkeypatch.setattr(train_mod, "train_many", interrupt_or_hang)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 3)
        cloud = load_cloud(small)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli_mod.run_bottleneck_sweep(cloud, [1, 2, 3], 1, 0, 0.05, 2, 32, 0.99)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    """``_fork_map``'s contract, met at any process count."""

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_results_come_in_item_order(self, processes):
        assert cli_mod._fork_map(lambda x: x * x, range(7), processes, "squaring") == [
            x * x for x in range(7)
        ]

    # with 2 processes item 3 fails in the worker and item 4 in this
    # process; with 3, item 3 fails in this process and item 4 in a worker
    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_the_earlier_failing_item_raises(self, processes):
        def square_or_fail(x):
            if x in (3, 4):
                raise ValueError(f"item {x}")
            return x * x

        with pytest.raises(ValueError, match="^item 3$"):
            cli_mod._fork_map(square_or_fail, range(7), processes, "squaring")

    def test_a_lost_worker_names_its_item(self):
        parent = os.getpid()

        def square_or_die(x):
            if os.getpid() != parent and x == 5:
                os.kill(os.getpid(), signal.SIGKILL)
            return x * x

        with pytest.raises(errors.WorkerError) as info:
            cli_mod._fork_map(square_or_die, range(7), 2, "squaring")
        assert str(info.value) == (
            "the process squaring 5 ended without its result (killed by SIGKILL)"
        )


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

    def test_largest_component_cuts_the_points_then_embeds_them(self, tmp_path, monkeypatch):
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

        def counting_knn_graph(points, k):
            calls.append((len(points), k))
            return knn_graph(points, k)

        monkeypatch.setattr(cli_mod, "knn_graph", counting_knn_graph)
        monkeypatch.setattr(isomap_mod, "knn_graph", counting_knn_graph)
        for fmt in ("json", "csv"):
            calls.clear()
            assert run(["isomap", data, "--knn", 5, "--largest-component", "--format", fmt,
                        "--out-dir", tmp_path / "restricted" / fmt]) == 0
            # the cut's graph on every point, then isomap()'s on the kept ones
            assert calls == [(90, 5), (len(keep), 5)]
            assert run(["isomap", kept, "--knn", 5, "--format", fmt,
                        "--out-dir", tmp_path / "kept" / fmt]) == 0
        for name in ("json/embedding.json", "json/embedding.svg", "csv/embedding.csv"):
            restricted = (tmp_path / "restricted" / name).read_bytes()
            assert restricted == (tmp_path / "kept" / name).read_bytes()

    def test_same_bytes_on_one_and_two_blas_threads(self, tmp_path):
        # LAPACK eigh on 300 points rounds differently on two OpenBLAS
        # threads than on one, unless eigh_symmetric pins it to one
        data = tmp_path / "a.json"
        assert run(["gen", "--annulus", "--n", 150, "--seed", 0, "-o", data]) == 0
        src = str(Path(topoclass.__file__).resolve().parent.parent)
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-m", "topoclass.cli", "isomap", str(data), "--out-dir", str(out)],
                env=env, check=True, capture_output=True,
            )
            written.append([(out / name).read_bytes() for name in ("embedding.json", "embedding.svg")])
        assert written[0] == written[1]


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

    @pytest.mark.parametrize("bands", ["0:0.9,1:2", "0:0.5,1:1.5,2:2.5,3:3.5"])
    def test_one_overlap_check_and_the_field_on_the_classes(
        self, tmp_path, monkeypatch, capsys, bands
    ):
        data = tmp_path / "d.json"
        assert run(["gen", "--shells", "--bands", bands, "--n", 40, "--seed", 5, "-o", data]) == 0
        capsys.readouterr()
        prepare, calls = topo_mod._prepare_classes, []

        def counting_prepare(classes):
            calls.append(len(classes))
            return prepare(classes)

        monkeypatch.setattr(topo_mod, "_prepare_classes", counting_prepare)
        out = tmp_path / "u"
        assert run(["urysohn", data, "--grid-size", 11, "--out-dir", out]) == 0
        classes = load_cloud(data).split_by_class()
        assert calls == [len(classes)]
        field = urysohn_multiclass(classes)
        expected = [
            f"class {k}: field in [{on_class.min():.3g}, {on_class.max():.3g}] (target {k})"
            for k, on_class in enumerate(map(field, classes))
        ]
        expected.append(f"wrote field.csv and field.svg to {out}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_class_whose_own_squared_spread_overflows(self, tmp_path, capsys):
        # squares of the 1.4e154 spread of class 0 overflow; its distances to
        # class 1, and the grid's, do not, and no distance within a class is formed
        data = tmp_path / "wide.json"
        data.write_text(
            '{"dim": 2, "class_count": 2, "points": [[-7e153, 0], [7e153, 0], [0, 0]], '
            '"labels": [0, 0, 1]}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["urysohn", data, "--grid-size", 5, "--out-dir", tmp_path / "u"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "class 0: field in [0, 0] (target 0)",
            "class 1: field in [1, 1] (target 1)",
        ]

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

    def test_non_planar_data_exit_2_before_any_class_distance(
        self, tmp_path, monkeypatch, capsys
    ):
        data = tmp_path / "d3.json"
        run(["gen", "--shells", "--dim", 3, "--n", 10, "--seed", 0, "-o", data])

        def never(xs, pts):
            raise AssertionError("class distances formed for 3-D data")

        monkeypatch.setattr(topo_mod, "_min_dists", never)
        assert run(["urysohn", data, "--out-dir", tmp_path / "u"]) == 2
        assert "a urysohn grid needs 2-D classes" in capsys.readouterr().err
        assert not (tmp_path / "u").exists()

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

    @pytest.mark.parametrize(
        "classes, per_class, size",
        [(2, 100, 101), (16, 1, 101), (200, 1, 51), (50, 100, 11)],
        ids=["text", "text and field", "field", "class table"],
    )
    def test_plan_bounds_the_traced_peak(self, tmp_path, monkeypatch, classes, per_class, size):
        data = ring_classes(tmp_path / "ring.json", classes, per_class)
        plans = record_plans(monkeypatch, cli_mod)
        argv = ["urysohn", data, "--grid-size", size, "--out-dir", tmp_path / "u"]
        code, peak = traced_peak(lambda: run(argv))
        assert code == 0 and len(plans) == 1
        assert peak <= plans[0]


class TestCsvFiles:
    def test_every_csv_is_the_standard_writers_bytes_for_its_rows(self, workspace, tmp_path):
        data = workspace["data"]
        tied = tmp_path / "tied.json"  # the zero softmax head ties every row
        save_model(build_relu_net((2, 5, 2), make_rng(0)), tied)
        for argv in (
            ["gen", "--annulus", "--n", 20, "-o", tmp_path / "g.json", "--csv", tmp_path / "g.csv"],
            ["train", data, "--dims", "2,3,2", "--epochs", 5, "-o", tmp_path / "m.json"],
            ["sweep-bottleneck", data, "--widths", "1,2", "--seeds", 1, "--epochs", 5,
             "-o", tmp_path / "sweep.csv"],
            ["isomap", data, "--format", "csv", "--out-dir", tmp_path / "iso"],
            ["urysohn", data, "--grid-size", 11, "--out-dir", tmp_path / "ury"],
            ["check-sep", tied, data, "--format", "csv", "--out", tmp_path / "ties.csv"],
        ):
            run(argv)
        paths = sorted(tmp_path.rglob("*.csv"))
        names = ["embedding.csv", "field.csv", "g.csv", "m_history.csv", "sweep.csv", "ties.csv"]
        assert sorted(path.name for path in paths) == names
        for path in paths:
            rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
            again = io.StringIO(newline="")
            csv.writer(again).writerows(rows)
            assert again.getvalue().encode("utf-8") == path.read_bytes(), path.name
        ties = list(csv.reader(io.StringIO((tmp_path / "ties.csv").read_text(), newline="")))
        assert len(ties) == 201 and all(row[1] == "" for row in ties[1:])
        sweep = list(csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text(), newline="")))
        assert sweep[1][2] != "" and sweep[2][2:] == ["", "", ""]

    def test_point_csvs_of_a_three_point_cloud_keep_their_text(self, tmp_path):
        # gen --csv and isomap --format csv write one labeled-points table
        data = tmp_path / "d.json"
        gen = ["gen", "--shells", "--bands", "0:1,2:3,4:5", "--n", 1, "--seed", 0, "-o", data]
        assert run(gen + ["--csv", tmp_path / "d.csv"]) == 0
        assert (tmp_path / "d.csv").read_bytes() == (
            b"x0,x1,label\r\n"
            b"0.2739233746429086,-0.4604265724722594,0\r\n"
            b"1.9963070962813854,0.9140937941341267,1\r\n"
            b"-4.093477665750412,-1.6665658597022173,2\r\n"
        )
        for target_dim in (2, 3):
            out = tmp_path / f"iso{target_dim}"
            iso = ["isomap", data, "--knn", 2, "--target-dim", target_dim, "--format", "csv"]
            assert run(iso + ["--out-dir", out]) == 0
        assert (tmp_path / "iso2" / "embedding.csv").read_bytes() == (
            b"x,y,label\r\n"
            b"0.7979326619509292,0.37920970559136175,0\r\n"
            b"2.9073321269966153,-0.25824289629048724,1\r\n"
            b"-3.7052647889475447,-0.12096680930086978,2\r\n"
        )
        # the third coordinate of three points is rounding noise: only its name is pinned
        assert (tmp_path / "iso3" / "embedding.csv").read_bytes().startswith(b"x,y,z,label\r\n")


class TestAllOrNone:
    """Every command writes all of its files or none, through ``data.write_files``."""

    # command -> (argv from the input paths, the files a run writes); outputs
    # are relative to the directory the command runs in
    COMMANDS = {
        "gen --csv": (
            lambda f: ["gen", "--annulus", "--n", 20, "-o", "g.json", "--csv", "g.csv"],
            ["g.json", "g.csv"],
        ),
        "train": (
            lambda f: ["train", f["data"], "--dims", "2,3,2", "--epochs", 2, "-o", "m.json"],
            ["m.json", "m_history.csv"],
        ),
        "trace": (
            lambda f: ["trace", f["model"], f["data"], "--out-dir", "t"],
            [f"t/stage_{i:02d}_{name}.svg" for i, name in enumerate(
                ["input", *(f"layer{j}_relu" for j in range(1, 6)), "layer6_softmax"]
            )] + ["t/index.json"],
        ),
        "check-sep json": (
            lambda f: ["check-sep", f["model"], f["data"], "--out", "r.json"], ["r.json"]
        ),
        "check-sep csv": (
            lambda f: ["check-sep", f["model"], f["data"], "--format", "csv", "--out", "r.csv"],
            ["r.csv"],
        ),
        "witness": (lambda f: ["witness", f["narrow"], "--out", "w.json"], ["w.json"]),
        "sweep-bottleneck": (
            lambda f: ["sweep-bottleneck", f["data"], "--widths", "1,2", "--seeds", 1,
                       "--epochs", 2, "-o", "s.csv"],
            ["s.csv"],
        ),
        "isomap json": (
            lambda f: ["isomap", f["data"], "--out-dir", "e"], ["e/embedding.json", "e/embedding.svg"]
        ),
        "isomap csv": (
            lambda f: ["isomap", f["data"], "--format", "csv", "--out-dir", "e"],
            ["e/embedding.csv", "e/embedding.svg"],
        ),
        "urysohn": (
            lambda f: ["urysohn", f["data"], "--grid-size", 11, "--out-dir", "f"],
            ["f/field.csv", "f/field.svg"],
        ),
    }

    @pytest.fixture(scope="class")
    def inputs(self, workspace, tmp_path_factory):
        narrow = tmp_path_factory.mktemp("narrow") / "narrow.json"
        save_model(build_relu_net((2, 1, 2), make_rng(0)), narrow)
        return {**workspace, "narrow": narrow}

    @staticmethod
    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @staticmethod
    def tree(root):
        """Every path under ``root``: a file's bytes, None for a directory."""
        return {
            str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")
        }

    @staticmethod
    def fail_write(monkeypatch, k):
        """Make the k-th file write raise OSError after writing part of its text."""
        write, calls = data_mod._write, []

        def broken():
            yield "partial"
            raise OSError(errno.EIO, "injected write failure")

        def fake(path, text):
            calls.append(path)
            write(path, broken() if len(calls) == k else text)

        monkeypatch.setattr(data_mod, "_write", fake)
        return calls

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_failed_write_leaves_the_output_tree_as_it_was(
        self, command, inputs, tmp_path, monkeypatch, capsys
    ):
        make_argv, outputs = self.COMMANDS[command]
        argv = make_argv(inputs)
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        fresh.mkdir()
        rerun.mkdir()
        monkeypatch.chdir(rerun)
        calls = self.fail_write(monkeypatch, 0)
        assert run(argv) in (0, 1)  # the two-epoch train misses its target
        assert sorted(self.files(rerun)) == sorted(outputs)
        # each file went to a hidden temporary beside it
        assert sorted(
            os.path.join(os.path.dirname(path), os.path.basename(path)[1:].rsplit(".", 2)[0])
            for path in calls
        ) == sorted(outputs)
        capsys.readouterr()
        # a failed write under a new --out-dir also leaves no directory
        # behind in the fresh root, and the rerun's --out-dir stays
        for k in range(1, len(outputs) + 1):
            for root in (fresh, rerun):
                monkeypatch.chdir(root)
                before = self.tree(root)
                self.fail_write(monkeypatch, k)
                assert run(argv) == 2, (k, root.name)
                assert capsys.readouterr().err == "error: [Errno 5] injected write failure\n"
                assert self.tree(root) == before, (k, root.name)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_commands_compute_without_writing_or_printing(
        self, command, inputs, tmp_path, monkeypatch, capsys
    ):
        make_argv, outputs = self.COMMANDS[command]
        monkeypatch.chdir(tmp_path)
        args = cli_mod.build_parser().parse_args([str(a) for a in make_argv(inputs)])
        files, lines, code = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []
        assert sorted(os.fspath(path) for path, _ in files) == sorted(outputs)
        assert lines and all(isinstance(line, str) for line in lines)
        assert code in (0, 1)  # the two-epoch train misses its target
        # main writes those files and prints those lines
        texts = {os.fspath(path): "".join(text).encode("utf-8") for path, text in files}
        assert run(make_argv(inputs)) == code
        assert capsys.readouterr().out.splitlines() == lines
        assert {name: Path(name).read_bytes() for name in outputs} == texts

    def test_witness_without_a_bottleneck_computes_no_file(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        args = cli_mod.build_parser().parse_args(["witness", str(workspace["model"]), "--out", "w"])
        assert args.func(args) == (
            [], ["no bottleneck: first layer is 5x2 (rows >= cols); theorem does not apply"], 3
        )
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_dir", ["a/b/c", "old/b/c", "old", "old/../b"])
    def test_a_failed_write_removes_only_the_directories_made_for_it(
        self, out_dir, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        Path("old").mkdir()
        self.fail_write(monkeypatch, 2)
        argv = ["urysohn", workspace["data"], "--grid-size", 5, "--out-dir", out_dir]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 5] injected write failure\n"
        assert self.tree(tmp_path) == {"old": None}

    def test_an_out_dir_under_a_file_exits_2_making_nothing(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        Path("f").write_text("")
        assert run(["urysohn", workspace["data"], "--grid-size", 5, "--out-dir", "f/u"]) == 2
        assert capsys.readouterr().err == "error: [Errno 20] Not a directory: 'f/u'\n"
        assert self.tree(tmp_path) == {"f": b""}

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (["gen", "--annulus", "--n", 20, "-o", "p.json", "--csv", "missing/x.csv"],
             "missing/x.csv"),
            (["train", "DATA", "--dims", "2,3,2", "--epochs", 2, "-o", "m.json",
              "--history", "missing/h.csv"], "missing/h.csv"),
        ],
        ids=["gen --csv", "train --history"],
    )
    def test_missing_parent_writes_nothing_and_names_the_path(
        self, command, blocked, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run([workspace["data"] if a == "DATA" else a for a in command]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{blocked}'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (["isomap", "DATA", "--out-dir", "o"], "o/embedding.svg"),
            (["trace", "MODEL", "DATA", "--out-dir", "o"], "o/index.json"),
            (["urysohn", "DATA", "--grid-size", 11, "--out-dir", "o"], "o/field.svg"),
        ],
        ids=["isomap", "trace", "urysohn"],
    )
    def test_directory_at_an_output_name_writes_nothing(
        self, command, blocked, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / blocked).mkdir(parents=True)
        names = {"DATA": workspace["data"], "MODEL": workspace["model"]}
        assert run([names.get(a, a) for a in command]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{blocked}'\n"
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == [
            "o", blocked
        ]

    @pytest.mark.parametrize(
        "command",
        [
            ["train", "DATA", "--dims", "2,3,2", "--epochs", 2, "-o", "m.json",
             "--history", "m.json"],
            ["gen", "--annulus", "--n", 5, "-o", "s.json", "--csv", "s.json"],
            ["gen", "--annulus", "--n", 5, "-o", "s.json", "--csv", "sub/../s.json"],
            ["gen", "--annulus", "--n", 5, "-o", "s.json", "--csv", "link.csv"],
        ],
        ids=["train --history", "gen --csv", "gen --csv through ..", "gen --csv symlink"],
    )
    def test_two_outputs_naming_one_file_exit_2_writing_nothing(
        self, command, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "s.json")
        argv = [workspace["data"] if a == "DATA" else a for a in command]
        assert run(argv) == 2
        first, second = argv[argv.index("-o") + 1], argv[-1]
        assert capsys.readouterr().err == (
            f"error: two outputs name the same file: {first} and {second}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "sub"]
        assert not (tmp_path / "s.json").exists()

    def test_fifo_output_is_written_in_place(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        fifo = tmp_path / "a.json"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(["gen", "--annulus", "--n", 5, "-o", fifo, "--csv", "a.csv"]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert run(["gen", "--annulus", "--n", 5, "-o", "b.json"]) == 0
        assert got == [(tmp_path / "b.json").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json", "b.json"]

    @pytest.mark.parametrize("piped", [False, True], ids=["regular file", "pipe"])
    def test_output_to_stdout_comes_before_the_printed_lines(self, tmp_path, piped):
        # -o /dev/stdout with stdout redirected to a file once replaced that
        # file, and the printed lines went to the old, unlinked one
        argv = ["gen", "--annulus", "--n", "1", "-o", "/dev/stdout"]
        files, lines, _ = cli_mod.cmd_gen(cli_mod.build_parser().parse_args(argv))
        expected = (files[0][1] + "".join(f"{line}\n" for line in lines)).encode()
        src = str(Path(topoclass.__file__).resolve().parent.parent)
        command = [sys.executable, "-m", "topoclass.cli", *argv]
        env = {**os.environ, "PYTHONPATH": src}
        if piped:
            done = subprocess.run(command, env=env, capture_output=True)
            assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")
            return
        out = tmp_path / "out.txt"
        out.write_text("to be truncated by the shell's >")
        with open(out, "wb") as fh:
            done = subprocess.run(command, env=env, stdout=fh, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_symlinked_outputs_replace_their_targets(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        real = tmp_path / "real"
        real.mkdir()
        (real / "a.json").write_text("old")
        Path("a.json").symlink_to(real / "a.json")
        Path("a.csv").symlink_to(real / "a.csv")  # dangling until the command writes it
        calls = self.fail_write(monkeypatch, 0)
        assert run(["gen", "--annulus", "--n", 5, "-o", "a.json", "--csv", "a.csv"]) == 0
        assert [Path(path).parent for path in calls] == [real.resolve()] * 2
        assert run(["gen", "--annulus", "--n", 5, "-o", "b.json", "--csv", "b.csv"]) == 0
        for name in ("a.json", "a.csv"):
            assert Path(name).is_symlink()
        assert (real / "a.json").read_bytes() == Path("b.json").read_bytes()
        assert (real / "a.csv").read_bytes() == Path("b.csv").read_bytes()
        assert sorted(p.name for p in real.iterdir()) == ["a.csv", "a.json"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid-size", 0],
            ["--grid-size", -3],
            ["--grid-extent", "nan"],
            ["--grid-extent", "inf"],
            ["--grid-extent", "1e308"],
            ["--grid-extent", -1],
            ["--grid-extent", 0],
        ],
        ids=lambda flags: " ".join(map(str, flags)),
    )
    def test_bad_urysohn_grid_is_spec_error(self, flags, workspace, tmp_path, capsys):
        assert run(["urysohn", workspace["data"], *flags, "--out-dir", tmp_path / "u"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} must")
        assert not (tmp_path / "u").exists()

    def test_witness_on_a_huge_layer_is_within_the_relative_bound(self, tmp_path, capsys):
        # the residuals of this layer's kernel direction, about 2e-4 and 6e-4,
        # are far below KERNEL_TOL * ||W||_2 * ||p||, about 1.7e2 and 5.2e2
        w = np.array([[1e12, 3.3e12]])
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"layers": [
            {"activation": "relu", "weight": w.tolist(), "bias": [0.0]},
            {"activation": "softmax", "weight": [[1.0], [-1.0]], "bias": [0.0, 0.0]},
        ]}))
        assert run(["witness", model]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("p1", "p2"):
            p = np.array(payload[key])
            residual = np.linalg.norm(w @ p)
            assert 0.0 < residual <= KERNEL_TOL * np.linalg.norm(w, 2) * np.linalg.norm(p)

    def test_witness_residual_over_bound_exits_1(self, tmp_path, monkeypatch, capsys):
        # a unit direction off the kernel of [[1, 0, 0], [0, 1, 0]] leaves
        # |W p1| = 0.3 against a bound of 1e-10 * 1 * 0.5: NumericalError
        monkeypatch.setattr(topo_mod, "null_space_basis", lambda w: [np.array([0.6, 0.0, 0.8])])
        model = tmp_path / "narrow.json"
        model.write_text(json.dumps({"layers": [
            {"activation": "relu", "weight": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "bias": [0, 0]},
            {"activation": "softmax", "weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [0, 0]},
        ]}))
        assert run(["witness", model, "--out", tmp_path / "w.json"]) == 1
        assert capsys.readouterr() == ("", (
            "error: null direction residual exceeds its bound: "
            "|W p1| = 3.000e-01 > KERNEL_TOL * ||W||_2 * ||p1|| = 5.000e-11\n"
        ))
        assert not (tmp_path / "w.json").exists()

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

    def test_integer_weight_past_float64_is_schema_error(self, tmp_path):
        model = tmp_path / "huge_int.json"
        model.write_text(
            '{"layers": [{"activation": "softmax", "weight": [[1%s, 1]], "bias": [0]}]}' % ("0" * 400)
        )
        with pytest.raises(errors.SchemaError):
            load_model(model)
        assert run(["witness", model]) == 2

    def test_json_nested_past_the_recursion_limit_is_parse_error(self, workspace, tmp_path):
        deep = "[" * 100_000 + "]" * 100_000
        model, data = tmp_path / "deep_model.json", tmp_path / "deep_data.json"
        model.write_text('{"layers": %s}' % deep)
        data.write_text('{"dim": 2, "class_count": 2, "points": %s, "labels": []}' % deep)
        for path, loader in ((model, load_model), (data, load_cloud)):
            with pytest.raises(errors.ParseError, match="nested too deep"):
                loader(path)
        assert run(["check-sep", model, workspace["data"]]) == 2
        assert run(["check-sep", workspace["model"], data]) == 2

    def test_boolean_weight_is_schema_error(self, workspace, tmp_path):
        model = tmp_path / "bool.json"
        model.write_text(
            '{"layers": [{"activation": "softmax", "weight": [[true, 1], [0, "1.5"]], '
            '"bias": [0, 0]}]}'
        )
        assert run(["check-sep", model, workspace["data"]]) == 2

    @pytest.mark.parametrize(
        "weight", [[[1e308, 1e308]], [[1e300, 3.3e300]]], ids=["equal", "skewed"]
    )
    def test_witness_at_the_float64_limit_is_within_the_relative_bound(
        self, weight, tmp_path, capsys
    ):
        # the norm of 1e300 times a kernel's rounding error overflows unless
        # the residual and its bound are measured on W scaled by a power of two
        w = np.array(weight)
        model = tmp_path / "limit.json"
        model.write_text(json.dumps({"layers": [
            {"activation": "relu", "weight": weight, "bias": [0.0]},
            {"activation": "softmax", "weight": [[1.0], [-1.0]], "bias": [0.0, 0.0]},
        ]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["witness", model]) == 0
        payload = json.loads(capsys.readouterr().out)
        scaled = np.ldexp(w, -1000)
        for key in ("p1", "p2"):
            p = np.array(payload[key])
            residual = np.linalg.norm(scaled @ p)
            assert residual <= KERNEL_TOL * np.linalg.norm(scaled, 2) * np.linalg.norm(p)
        assert payload["net_output_diff"] < 1e-9

    def test_isomap_whose_squared_geodesics_overflow_exits_1(self, tmp_path, capsys):
        # a 3-D helix scaled so that its kNN distances are finite but the
        # squares of its longest geodesics are not
        t = np.arange(200)
        radius = 20 / (2 * np.pi)
        points = 1.5e152 * np.column_stack(
            [radius * np.cos(2 * np.pi * t / 20), radius * np.sin(2 * np.pi * t / 20), 0.2 * t]
        )
        data = tmp_path / "helix.json"
        save_cloud(LabeledPointCloud(dim=3, points=points, labels=t // 100, class_count=2), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["isomap", data, "--knn", 4, "--out-dir", tmp_path / "iso"]) == 1
        assert "overflow float64 in classical MDS" in capsys.readouterr().err

    def test_trace_stage_whose_span_overflows_exits_1(self, tmp_path, capsys):
        # every coordinate of the stage is finite, its x span is not
        data, model = tmp_path / "d.json", tmp_path / "big.json"
        run(["gen", "--annulus", "--n", 50, "--seed", 0, "-o", data])
        model.write_text(
            '{"layers": [{"activation": "identity", "weight": [[9e307, 0], [0, 9e307]], '
            '"bias": [0, 0]}]}'
        )
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["trace", model, data, "--out-dir", tmp_path / "t"]) == 1
        assert "overflows float64" in capsys.readouterr().err
        assert not (tmp_path / "t" / "stage_01_layer1_identity.svg").exists()
        assert not (tmp_path / "t" / "stage_00_input.svg").exists()

    def test_zero_dimensional_dataset_exits_2(self, tmp_path, capsys):
        # points without coordinates, and a model whose first layer reads none
        data, model = tmp_path / "d0.json", tmp_path / "m0.json"
        data.write_text('{"dim": 0, "class_count": 1, "points": [[], []], "labels": [0, 0]}')
        model.write_text('{"layers": [{"activation": "softmax", "weight": [[]], "bias": [0]}]}')
        trace = ["trace", model, data, "--out-dir", tmp_path / "t"]
        for argv in (["check-sep", model, data], trace):
            assert run(argv) == 2
            assert capsys.readouterr().err == "error: dim must be >= 1\n"
        assert not (tmp_path / "t").exists()

    def test_urysohn_field_failure_writes_nothing(self, tmp_path, capsys):
        # on each class the product of the three other distances underflows;
        # an even grid size keeps (0, 0) off the grid, so the grid passes and
        # only the per-class field fails
        data = tmp_path / "tiny.json"
        points = [[0.0, 0.0], [1e-110, 0.0], [2e-110, 0.0], [3e-110, 0.0]]
        data.write_text(
            json.dumps({"dim": 2, "class_count": 4, "points": points, "labels": [0, 1, 2, 3]})
        )
        assert run(["urysohn", data, "--grid-size", 100, "--out-dir", tmp_path / "u"]) == 1
        assert "distance products leave float64 range" in capsys.readouterr().err
        assert not (tmp_path / "u").exists()

    @staticmethod
    def _refuse(monkeypatch, budget, module, allocating):
        """Set the budget, and make ``module.allocating`` fail if it is called."""

        def never(*args):
            raise AssertionError(f"{allocating} called past MEMORY_BUDGET")

        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", budget)
        monkeypatch.setattr(module, allocating, never)

    # dense Isomap of the 200 points plans 8 float64 arrays of 200 x 200
    ISOMAP_REFUSED = (
        "error: dense Isomap of 200 points needs 2560000 bytes, more than MEMORY_BUDGET = 2559999\n"
    )

    def test_isomap_past_the_budget_exits_2_before_allocating(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 2560000)  # the 200 points pass
        assert run(["isomap", workspace["data"], "--out-dir", tmp_path / "at"]) == 0
        capsys.readouterr()
        self._refuse(monkeypatch, 2559999, isomap_mod, "pairwise_distances")
        assert run(["isomap", workspace["data"], "--out-dir", tmp_path / "past"]) == 2
        assert capsys.readouterr().err == self.ISOMAP_REFUSED
        assert not (tmp_path / "past").exists()

    def test_trace_past_the_budget_exits_2_before_allocating(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # the paper net's 5-wide stages are projected by Isomap
        self._refuse(monkeypatch, 2559999, isomap_mod, "pairwise_distances")
        argv = ["trace", workspace["model"], workspace["data"], "--out-dir", tmp_path / "t"]
        assert run(argv) == 2
        assert capsys.readouterr().err == self.ISOMAP_REFUSED
        assert not (tmp_path / "t").exists()

    def test_urysohn_past_the_budget_exits_2_before_the_field(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # the default 101 x 101 grid: its text, 420 bytes a node, outweighs its
        # field, 24 bytes x (2 classes + 2) a node and class point
        monkeypatch.setattr(numerics_mod, "MEMORY_BUDGET", 420 * 101**2)
        assert run(["urysohn", workspace["data"], "--out-dir", tmp_path / "at"]) == 0
        capsys.readouterr()
        self._refuse(monkeypatch, 420 * 101**2 - 1, topo_mod, "urysohn_grid")
        assert run(["urysohn", workspace["data"], "--out-dir", tmp_path / "past"]) == 2
        assert capsys.readouterr().err == (
            "error: urysohn on a 101 x 101 grid, 2 classes of 200 points needs 4284420 bytes, "
            "more than MEMORY_BUDGET = 4284419\n"
        )
        assert not (tmp_path / "past").exists()

    def test_urysohn_of_200_classes_exits_2_before_the_field(self, tmp_path, monkeypatch, capsys):
        # 200 single-point classes: the field holds 3 float64 per node and class
        # (distances, products, weights), 5 GB on a 1024 x 1024 grid
        data = ring_classes(tmp_path / "ring.json", 200, 1)
        self._refuse(monkeypatch, numerics_mod.MEMORY_BUDGET, topo_mod, "urysohn_grid")
        out = tmp_path / "u"
        assert run(["urysohn", data, "--grid-size", 1024, "--out-dir", out]) == 2
        planned = 24 * 202 * (1024**2 + 200)
        assert capsys.readouterr().err == (
            f"error: urysohn on a 1024 x 1024 grid, 200 classes of 200 points needs {planned} "
            f"bytes, more than MEMORY_BUDGET = {numerics_mod.MEMORY_BUDGET}\n"
        )
        assert not out.exists()

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

        monkeypatch.setattr("topoclass.data.gen_nested_shells", fail)
        quality = (errors.DisconnectedError, errors.NumericalError, errors.WorkerError)
        expected = 1 if error in quality else 2
        assert run(["gen", "--annulus", "-o", tmp_path / "d.json"]) == expected


DATASET = '{"dim": 2, "class_count": 2, "points": %s, "labels": %s}'
POINTS, LABELS = "[[0, 0], [1, 1]]", "[0, 1]"
MODEL = (
    '{"layers": [{"activation": "relu", "weight": %s, "bias": [0]}, '
    '{"activation": "softmax", "weight": [[1], [-1]], "bias": [0, 0]}]}'
)
DEEP = "[" * 900 + "0" + "]" * 900
PAST_FLOAT64 = "1" + "0" * 400

MALFORMED_DATASETS = {
    "ragged rows": DATASET % ("[[0, 0], [1]]", LABELS),
    "points nested 900 deep": DATASET % (DEEP, LABELS),
    "empty points": DATASET % ("[]", LABELS),
    "scalar points": DATASET % ("0", LABELS),
    "float label": DATASET % (POINTS, "[0, 1.0]"),
    "bool coordinate": DATASET % ("[[0, true], [1, 1]]", LABELS),
    "string coordinate": DATASET % ('[[0, "0"], [1, 1]]', LABELS),
    "null coordinate": DATASET % ("[[0, null], [1, 1]]", LABELS),
    "object coordinate": DATASET % ("[[0, {}], [1, 1]]", LABELS),
    "label past int64": DATASET % (POINTS, "[0, %d]" % 2**63),
    "coordinate 10**400": DATASET % ("[[0, %s], [1, 1]]" % PAST_FLOAT64, LABELS),
    "missing key": '{"dim": 2, "class_count": 2, "points": [[0, 0], [1, 1]]}',
    "file not an object": "[[0, 0], [1, 1]]",
}
MALFORMED_MODELS = {
    "ragged rows": MODEL % "[[1, 0], [1]]",
    "weight nested 900 deep": MODEL % DEEP,
    "bool weight": MODEL % "[[true, 0]]",
    "string weight": MODEL % '[["1", 0]]',
    "null weight": MODEL % "[[null, 0]]",
    "object weight": MODEL % "[[{}, 0]]",
    "weight 10**400": MODEL % ("[[%s, 0]]" % PAST_FLOAT64),
    "missing key": '{"layers": [{"activation": "relu", "weight": [[1, 0]]}]}',
    "layer not an object": '{"layers": [[1, 0]]}',
}


@pytest.mark.parametrize(
    "kind, text",
    [("dataset", text) for text in MALFORMED_DATASETS.values()]
    + [("model", text) for text in MALFORMED_MODELS.values()],
    ids=[f"dataset {name}" for name in MALFORMED_DATASETS]
    + [f"model {name}" for name in MALFORMED_MODELS],
)
def test_malformed_file_exits_2_with_one_error_line(kind, text, workspace, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    argv = ["check-sep", workspace["model"], path] if kind == "dataset" else ["witness", path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestParserReuse:
    # gen, a usage error, train and gen --shells: the later calls take their
    # defaults (seed 0, lr, bands, ...) from the parser, not from the calls before
    STEPS = (
        ("gen", "--annulus", "--n", "25", "--seed", "3", "-o", "a.json"),
        ("gen", "--annulus", "--n", "25"),
        ("train", "a.json", "--dims", "2,3,2", "--epochs", "4", "-o", "m.json"),
        ("gen", "--shells", "--n", "10", "-o", "s.json"),
    )

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _fresh_process(argv, cwd, stdout=subprocess.PIPE, env=None):
        src = str(Path(topoclass.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r}); from topoclass.cli import main; sys.exit(main())"
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_141_quietly_with_the_files_written(
        self, tmp_path, monkeypatch, unbuffered
    ):
        argv = ("gen", "--annulus", "--n", "5", "-o", "a.json")
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(one)
        assert self._in_process(argv)[0] == 0
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: the child's first write to stdout fails
        try:
            code, _, err = self._fresh_process(argv, fresh, stdout=write_end, env=env)
        finally:
            os.close(write_end)
        assert (code, err) == (141, "")
        assert (fresh / "a.json").read_bytes() == (one / "a.json").read_bytes()

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(one)
        codes = []
        for argv in self.STEPS:
            got = self._in_process(argv)
            assert got == self._fresh_process(argv, fresh), argv
            codes.append(got[0])
        assert codes == [0, 2, 1, 0]  # 4 epochs do not reach the target accuracy
        names = sorted(path.name for path in one.iterdir())
        assert names == sorted(path.name for path in fresh.iterdir())
        assert names == ["a.json", "m.json", "m_history.csv", "s.json"]
        for name in names:
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name


# every option string of every subcommand: adding or dropping a flag shows in this table
OPTION_SET = {
    "gen": {"-h", "--help", "--annulus", "--shells", "--n", "--seed", "--dim", "--bands",
            "-o", "--out", "--csv"},
    "train": {"-h", "--help", "--dims", "--paper-net", "--epochs", "--lr", "--batch-size",
              "--seed", "--target-accuracy", "-o", "--out", "--history"},
    "trace": {"-h", "--help", "--out-dir", "--knn", "--include-pre"},
    "check-sep": {"-h", "--help", "--out", "--format"},
    "witness": {"-h", "--help", "--out"},
    "sweep-bottleneck": {"-h", "--help", "--widths", "--seeds", "--seed", "--epochs", "--lr",
                         "--batch-size", "--target-accuracy", "-o", "--out"},
    "isomap": {"-h", "--help", "--knn", "--target-dim", "--out-dir", "--format",
               "--largest-component"},
    "urysohn": {"-h", "--help", "--grid-size", "--grid-extent", "--out-dir"},
}


def subcommands():
    (commands,) = [
        action.choices
        for action in cli_mod.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands


def defaults(command):
    return {
        action.dest: action.default
        for action in subcommands()[command]._actions
        if action.option_strings
    }


def test_sgd_defaults_are_the_train_config_defaults():
    sgd = train_mod.TrainConfig()
    want = {
        "lr": sgd.learning_rate,
        "epochs": sgd.epochs,
        "batch_size": sgd.batch_size,
        "seed": sgd.seed,
    }
    train, sweep = defaults("train"), defaults("sweep-bottleneck")
    assert {name: train[name] for name in want} == want
    assert {name: sweep[name] for name in want} == want
    assert train["target_accuracy"] == sgd.target_accuracy
    assert sweep["target_accuracy"] == 0.99  # the sweep's own target


def test_every_stated_default_is_the_default_in_use():
    stated = {}
    for command, sub in subcommands().items():
        formatter = sub._get_formatter()
        for action in sub._actions:
            found = action.help and re.search(r"\(default (.*)\)", formatter._expand_help(action))
            if found:
                stated[command, action.option_strings[-1]] = (found[1], action.default)
    # the defaults a command fills in itself, checked by what it does
    dim, _ = stated.pop(("gen", "--dim"))
    bands, _ = stated.pop(("gen", "--bands"))
    history, _ = stated.pop(("train", "--history"))
    args = cli_mod.build_parser().parse_args(["gen", "--shells", "--n", "1", "-o", "s.json"])
    ((_, text),), _, _ = cli_mod.cmd_gen(args)
    assert json.loads(text)["dim"] == int(dim) == data_mod.ANNULUS_DIM
    assert cli_mod._parse_bands(bands) == list(data_mod.ANNULUS_BANDS)
    assert history == "<out>_history.csv"
    assert len(stated) == 5  # --n, --knn, --seeds, --grid-extent, --grid-size
    for (command, flag), (text, default) in stated.items():
        assert text == str(default), (command, flag)


class Planned(Exception):
    """Raised in place of ``require_budget``: the plan, with nothing allocated yet."""


def plan_of(monkeypatch, module, call):
    """The bytes ``call()`` plans through ``module.require_budget``, stopped there."""

    def stop(what, planned):
        raise Planned(planned)

    monkeypatch.setattr(module, "require_budget", stop)
    with pytest.raises(Planned) as info:
        call()
    return info.value.args[0]


def test_the_old_limits_largest_inputs_pass_their_plans(workspace, monkeypatch):
    # before one budget: 10^7 coordinates, --grid-size 1024, 4096 Isomap
    # points and --seeds 100, each its own limit
    parse = cli_mod.build_parser().parse_args

    def gen(*flags):
        return lambda: cli_mod.cmd_gen(parse(["gen", *map(str, flags), "-o", "g.json"]))

    plans = [
        plan_of(monkeypatch, cli_mod, gen(*flags))
        for flags in (
            ["--shells", "--dim", 1, "--n", 5 * 10**6],
            ["--annulus", "--n", 25 * 10**5],
            ["--shells", "--dim", 5 * 10**6, "--n", 1],
        )
    ]
    urysohn = parse(["urysohn", str(workspace["data"]), "--grid-size", "1024", "--out-dir", "u"])
    plans.append(plan_of(monkeypatch, cli_mod, lambda: cli_mod.cmd_urysohn(urysohn)))
    plans.append(plan_of(monkeypatch, isomap_mod, lambda: knn_graph(np.zeros((4096, 2)), 10)))
    # the README sweep's widths, five processes on 1000 points
    dims = cli_mod._sweep_dims(2, 5, 2)
    plans.append(train_mod.check_stack_size(100, dims, 1000, train_mod.TrainConfig(), 5))
    assert max(plans) <= numerics_mod.MEMORY_BUDGET, plans


def test_the_readme_states_the_budget_in_use():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (exponent,) = re.findall(r"`numerics\.MEMORY_BUDGET` =\s+2\^(\d+) bytes", readme)
    assert 2 ** int(exponent) == numerics_mod.MEMORY_BUDGET


def test_each_subcommand_has_exactly_its_option_set():
    got = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        for name, sub in subcommands().items()
    }
    assert got == OPTION_SET
