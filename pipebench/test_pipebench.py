"""Tests of the benchmark's own code: spans, wrapping, metric names, checks.

    python3 -m pytest pipebench
"""

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import topoclass
import topoclass.cli  # noqa: F401  (loads every topoclass.* module)
from pipebench import checks, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children_on_a_nested_tree():
    # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 4]
    rec = tracing.Recorder(clock=FakeClock([0, 1, 2, 4, 6, 7, 9, 10]))
    root = rec.open("root")
    a = rec.open("a")
    c = rec.open("c")
    rec.close(c)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    assert [s[1] for s in rec.spans] == [None, root, a, root]
    assert tracing.self_times(rec.spans) == {"root": 3, "a": 3, "c": 2, "b": 2}
    totals = {name: tracing.total_time(rec.spans, name) for name in ("root", "a", "c", "b")}
    assert totals == {"root": 10, "a": 5, "c": 2, "b": 2}


def test_total_time_counts_a_recursive_name_once():
    rec = tracing.Recorder(clock=FakeClock([0, 1, 3, 4]))
    outer = rec.open("f")
    inner = rec.open("f")
    rec.close(inner)
    rec.close(outer)
    assert tracing.total_time(rec.spans, "f") == 4
    assert tracing.self_times(rec.spans) == {"f": 4}


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "topoclass" or name.startswith("topoclass."))
        for attr, value in vars(mod).items()
    }


def test_install_wraps_every_binding_and_restore_puts_back_the_originals():
    before = _bindings()
    replaced = tracing.install(tracing.Recorder())
    try:
        wrapped = {(mod.__name__, attr) for mod, attr, _ in replaced}
        for name in ("topoclass.isomap", "topoclass.cli", "topoclass.topology", "topoclass"):
            assert (name, "knn_graph") in wrapped
        assert ("topoclass.training", "strict_argmax_batch") in wrapped
        assert sys.modules["topoclass.cli"].knn_graph is not before[("topoclass.cli", "knn_graph")]
    finally:
        tracing.restore(replaced)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_calls_are_recorded_only_inside_a_root_span():
    rec = tracing.Recorder()
    replaced = tracing.install(rec)
    try:
        points = np.random.default_rng(0).normal(size=(12, 5))
        topoclass.isomap(points, 4)
        assert rec.spans == []
        root = rec.open("cli.isomap")
        topoclass.isomap(points, 4)
        rec.close(root)
    finally:
        tracing.restore(replaced)
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[2], span)
    assert by_name["isomap.knn_graph"][1] == root
    assert by_name["isomap.pairwise_distances"][1] == by_name["isomap.knn_graph"][0]
    assert rec.counts["isomap.nodes"] == 12
    assert rec.counts["numerics.eigh_symmetric.calls"] == 1
    assert rec.maxima["numerics.eigh_symmetric.rows_max"] == 12


def test_metric_names_and_units_follow_the_contract():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert name_re.fullmatch(m["name"]), m["name"]
        assert unit_re.fullmatch(m["unit"]), m["unit"]
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine outputs of every command on a small input."""
    d = tmp_path_factory.mktemp("cli")
    steps = (
        workloads._gen(d / "a.json", 0, 30, workloads.ANNULUS_BANDS),
        workloads._train(d / "a.json", d / "m.json", ("--paper-net", "--epochs", "30"), 1.0),
        workloads._check_sep(d / "m.json", d / "a.json", d / "r.json", 2),
        workloads._train(d / "a.json", d / "n.json", ("--dims", "2,1,2", "--epochs", "5"),
                         0.999, frozenset({1})),
        workloads.Step("witness", ("witness", str(d / "n.json"), "--out", str(d / "w.json")),
                       frozenset({0}), (d / "w.json",), checks.witness(d / "w.json", d / "n.json")),
        workloads._urysohn(d / "a.json", d / "field"),
        workloads.Step("trace", ("trace", str(d / "m.json"), str(d / "a.json"), "--knn", "5",
                                 "--out-dir", str(d / "trace")),
                       frozenset({0}), (d / "trace",), checks.trace(d / "trace", d / "m.json", 5)),
        workloads.Step("sweep-bottleneck",
                       ("sweep-bottleneck", str(d / "a.json"), "--widths", "1,2,3", "--seeds", "1",
                        "--epochs", "5", "-o", str(d / "s.csv")),
                       frozenset({0}), (d / "s.csv",), checks.sweep(d / "s.csv", (1, 2, 3), 2)),
    )
    rec = tracing.Recorder()
    replaced = tracing.install(rec)
    codes = {}
    try:
        for step in steps:
            code, _, problems = run.run_step(step, rec)
            assert problems == [], (step.argv, problems)
            codes[step.command] = code
    finally:
        tracing.restore(replaced)
    return d, codes, rec


def test_every_listed_per_layer_metric_is_produced(outputs):
    _, _, rec = outputs
    cmd_times = {cmd: 1.0 for cmd in workloads.COMMANDS}
    # run_workload renames the traced pass_s and pass_ref and adds the overhead
    produced = set(run.pass_metrics(cmd_times, cmd_times, [1.0], 0, rec)) | {
        "tracing.pass_s", "tracing.pass_ref", "tracing.overhead"}
    missing = [m["name"] for m in BENCH["per_layer"] if m["name"] not in produced]
    assert missing == []


def _rewrite_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _copy(outputs, tmp_path, name):
    d, _, _ = outputs
    src = d / name
    dst = tmp_path / name
    if src.is_dir():
        shutil.copytree(src, dst)
    else:
        shutil.copy(src, dst)
    return dst


def test_gen_check_rejects_a_point_outside_its_band(outputs, tmp_path):
    data = _copy(outputs, tmp_path, "a.json")
    assert checks.gen(data, workloads.ANNULUS_BANDS, 30)(0, "") == []
    _rewrite_json(data, lambda p: p["points"].__setitem__(0, [0.95, 0.0]))
    assert checks.gen(data, workloads.ANNULUS_BANDS, 30)(0, "")


def test_train_check_rejects_an_exit_code_that_disagrees_with_the_history(outputs):
    d, codes, _ = outputs
    check = checks.train(d / "n.json", d / "n_history.csv", 0.999)
    assert codes["train"] == 1 and check(1, "") == []
    assert check(0, "")


def test_check_sep_check_rejects_an_exit_code_that_disagrees_with_voronoi_ok(outputs, tmp_path):
    report = _copy(outputs, tmp_path, "r.json")
    ok = json.loads(report.read_text())["voronoi_ok"]
    check = checks.separation(report, 2)
    assert check(0 if ok else 1, "") == []
    assert check(1 if ok else 0, "")
    _rewrite_json(report, lambda p: p["discs"].pop())
    assert check(0 if ok else 1, "")


def test_witness_check_rejects_a_residual_of_1e_minus_6(outputs, tmp_path):
    d, _, _ = outputs
    witness = _copy(outputs, tmp_path, "w.json")
    assert checks.witness(witness, d / "n.json")(0, "") == []
    w = np.array(json.loads((d / "n.json").read_text())["layers"][0]["weight"])
    row = w[0] / np.linalg.norm(w[0])
    _rewrite_json(witness, lambda p: p.__setitem__(
        "p1", (np.array(p["p1"]) + 1e-6 * row / np.linalg.norm(w[0])).tolist()))
    problems = checks.witness(witness, d / "n.json")(0, "")
    assert problems and "p1" in problems[0]
    _rewrite_json(witness, lambda p: p.__setitem__("net_output_diff", 1e-6))
    assert checks.witness(witness, d / "n.json")(0, "")


def test_urysohn_check_rejects_a_field_outside_its_range_or_a_wrong_report(outputs, tmp_path):
    d, _, _ = outputs
    field = _copy(outputs, tmp_path, "field")
    stdout = "class 0: field in [0, 0] (target 0)\nclass 1: field in [1, 1] (target 1)\n"
    check = checks.urysohn(d / "a.json", field)
    assert check(0, stdout) == []
    assert check(0, stdout.replace("[1, 1]", "[0.998, 1]"))
    lines = (field / "field.csv").read_text().splitlines()
    x, y, _ = lines[1].split(",")
    lines[1] = f"{x},{y},1.5"
    (field / "field.csv").write_text("\n".join(lines) + "\n")
    assert check(0, stdout)


def test_trace_check_rejects_a_projected_stage_without_stress(outputs, tmp_path):
    d, _, _ = outputs
    out = _copy(outputs, tmp_path, "trace")
    check = checks.trace(out, d / "m.json", 5)
    assert check(0, "") == []
    _rewrite_json(out / "index.json", lambda p: p["stages"][1].pop("stress"))
    assert check(0, "")
    _rewrite_json(out / "index.json", lambda p: p["stages"].pop())
    assert check(0, "")


def test_sweep_check_rejects_a_width_one_net_that_separates(outputs, tmp_path):
    csv_path = _copy(outputs, tmp_path, "s.csv")
    check = checks.sweep(csv_path, (1, 2, 3), 2)
    assert check(0, "") == []
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "1.0"
    lines[1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert check(0, "")


def test_a_traceback_or_undocumented_exit_fails_the_call(tmp_path, monkeypatch):
    missing = tmp_path / "missing.json"
    step = workloads._check_sep(missing, missing, tmp_path / "r.json", 2)
    code, _, problems = run.run_step(step)
    assert code == 2 and problems
    bad_flags = workloads.Step("gen", ("gen", "--annulus", "--n", "x", "-o", str(missing)),
                               frozenset({0}), (), lambda code, stdout: [])
    code, _, problems = run.run_step(bad_flags)
    assert code == 2 and problems

    def crash(argv):
        raise ValueError("boom")

    monkeypatch.setattr(sys.modules["topoclass.cli"], "main", crash)
    code, _, problems = run.run_step(bad_flags)
    assert code is None and "ValueError: boom" in problems[0]


def test_changed_files_blames_the_step_that_wrote_them(tmp_path):
    steps = (
        workloads.Step("gen", (), frozenset({0}), (tmp_path / "a.json",), None),
        workloads.Step("urysohn", (), frozenset({0}), (tmp_path / "field",), None),
    )
    (tmp_path / "a.json").write_text("1")
    (tmp_path / "field").mkdir()
    (tmp_path / "field" / "field.csv").write_text("x")
    reference = run.digests(tmp_path)
    assert run.changed_files(steps, tmp_path, reference) == {}
    (tmp_path / "field" / "field.csv").write_text("y")
    assert list(run.changed_files(steps, tmp_path, reference)) == [1]
