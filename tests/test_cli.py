import contextlib
import csv
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import topoclass
from topoclass import cli as cli_mod
from topoclass import errors
from topoclass import network as net_mod
from topoclass import training as train_mod
from topoclass.cli import MAX_GRID_SIZE, main
from topoclass.data import LabeledPointCloud, load_cloud, save_cloud
from topoclass.isomap import graph_components, knn_graph
from topoclass.network import build_relu_net, load_model, save_model
from topoclass.numerics import make_rng
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

    # outer radii of inf and 1e308 overflowed the sampler (a traceback), and
    # of 1e-320 underflowed it (ZeroDivisionError); 2^64 points never ended
    @pytest.mark.parametrize(
        "flags",
        [
            ["--bands", "0:inf"],
            ["--bands", "0:1e308"],
            ["--bands", "1e-320:2e-320"],
            ["--n", 2**64],
            ["--dim", 10**6, "--n", 6],
        ],
    )
    def test_out_of_range_sizes_and_radii_exit_2(self, tmp_path, flags):
        code = run(["gen", "--shells", *flags, "-o", tmp_path / "x.json"])
        assert code == 2

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

    def test_dims_mismatch_exit_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["train", workspace["data"], "--dims", "3,4,2", "-o", out]) == 2
        assert capsys.readouterr().err == "error: net expects inputs of dim 3, data has dim 2\n"
        assert not out.exists()

    def test_stack_past_the_limit_exits_2_before_training(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # the paper net holds 200 points x (5 + 5 + 2 + 2 + 2 + 2) activations
        # and 5*3 + 5*6 + 2*6 + 2*3 + 2*3 + 2*3 parameters
        monkeypatch.setattr(cli_mod, "MAX_STACK_ENTRIES", 3674)
        monkeypatch.setattr(train_mod, "train_many", None)  # a call would be a TypeError
        out = tmp_path / "m.json"
        assert run(["train", workspace["data"], "--paper-net", "-o", out]) == 2
        assert capsys.readouterr().err == (
            "error: 3675 floats to hold (1 net x (200 points x 18 units + 75 parameters), "
            "widths 2,5,5,2,2,2,2): more than MAX_STACK_ENTRIES = 3674\n"
        )
        assert not out.exists()

    def test_deep_net_on_few_points_exits_2_before_building(self, tmp_path, monkeypatch, capsys):
        # 819,204 activations on 2 points, but about 4.2e8 parameters (3.4 GB)
        data = tmp_path / "two.json"
        assert run(["gen", "--annulus", "--n", 1, "-o", data]) == 0
        capsys.readouterr()
        monkeypatch.setattr(net_mod, "build_relu_net", None)  # a call would be a TypeError
        out = tmp_path / "deep.json"
        dims = ",".join(["2"] + ["1024"] * 400 + ["2"])
        assert run(["train", data, "--dims", dims, "-o", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "error: 419614726 floats to hold "
            "(1 net x (2 points x 409602 units + 418795522 parameters), widths 2,1024,"
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

    def test_stack_past_the_limit_exits_2_before_training(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # 2 seeds x (200 points x (2 + 8 + 8 + 2) + 120 parameters) for the
        # widest net, once per process
        monkeypatch.setattr(cli_mod, "MAX_STACK_ENTRIES", 2 * 8240 - 1)
        train_many = train_mod.train_many
        monkeypatch.setattr(train_mod, "train_many", None)  # a call would be a TypeError
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 2)
        out = tmp_path / "s.csv"
        argv = ["sweep-bottleneck", workspace["data"], "--widths", "1,2", "--seeds", 2,
                "--epochs", 2, "-o", out]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: 16480 floats to hold (2 nets x (200 points x 20 units + 120 parameters), "
            "widths 2,2,8,8,2, in each of 2 processes): more than MAX_STACK_ENTRIES = 16479\n"
        )
        assert not out.exists()
        # one process holds one stack: 8240 floats fit
        monkeypatch.setattr(train_mod, "train_many", train_many)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 1)
        assert run(argv) == 0


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

    def test_one_two_and_three_processes_write_the_same_bytes(
        self, workspace, tmp_path, monkeypatch
    ):
        flags = ("--widths", "1,2,3,4,5", "--epochs", 30)
        runs = [self.sweep(monkeypatch, tmp_path, cores, workspace["data"], *flags)
                for cores in (1, 2, 3)]
        assert runs[0][0] == 0 and runs[0][3].count(b"\r\n") == 6
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

        def train_or_die(nets, cloud, cfgs):
            if os.getpid() != parent and nets[0].layers[0].weight.shape[0] == width:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_many(nets, cloud, cfgs)

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

        def interrupt_or_hang(nets, cloud, cfgs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return train_many(nets, cloud, cfgs)

        monkeypatch.setattr(train_mod, "train_many", interrupt_or_hang)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 3)
        cloud = load_cloud(small)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli_mod.run_bottleneck_sweep(cloud, [1, 2, 3], 1, 0, 0.05, 2, 32, 0.99)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid-size", 0],
            ["--grid-size", -3],
            ["--grid-size", MAX_GRID_SIZE + 1],
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

    def test_witness_at_the_float64_limit_fails_its_residual_not_its_kernel(
        self, tmp_path, capsys
    ):
        # the kernel [1, -1]/sqrt(2) is found, but 1e308 times its rounding
        # error is far past the 1e-9 residual bound
        model = tmp_path / "limit.json"
        model.write_text(
            '{"layers": [{"activation": "relu", "weight": [[1e308, 1e308]], "bias": [0]}, '
            '{"activation": "softmax", "weight": [[1], [-1]], "bias": [0, 0]}]}'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["witness", model]) == 1
        captured = capsys.readouterr()
        assert "residual exceeds" in captured.out + captured.err

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
    def _refuse_dense_isomap(monkeypatch, limit):
        def never(points):
            raise AssertionError("pairwise distances allocated past MAX_ISOMAP_POINTS")

        monkeypatch.setattr(cli_mod, "MAX_ISOMAP_POINTS", limit)
        monkeypatch.setattr(isomap_mod, "pairwise_distances", never)

    def test_isomap_past_the_point_limit_exits_2_before_allocating(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_mod, "MAX_ISOMAP_POINTS", 200)  # the 200 points pass
        assert run(["isomap", workspace["data"], "--out-dir", tmp_path / "at"]) == 0
        self._refuse_dense_isomap(monkeypatch, 199)
        assert run(["isomap", workspace["data"], "--out-dir", tmp_path / "past"]) == 2
        assert "more than MAX_ISOMAP_POINTS = 199" in capsys.readouterr().err
        assert not (tmp_path / "past").exists()

    def test_trace_past_the_point_limit_exits_2_before_allocating(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # the paper net's 5-wide stages are projected by Isomap
        self._refuse_dense_isomap(monkeypatch, 199)
        argv = ["trace", workspace["model"], workspace["data"], "--out-dir", tmp_path / "t"]
        assert run(argv) == 2
        assert "more than MAX_ISOMAP_POINTS = 199" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

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
    def _fresh_process(argv, cwd):
        src = str(Path(topoclass.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r}); from topoclass.cli import main; sys.exit(main())"
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True, text=True
        )
        return done.returncode, done.stdout, done.stderr

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
