"""Output checks for one CLI call each, independent of the workload seed.

Each factory returns ``check(code, stdout) -> list of problems``; an empty
list means the call's outputs are right.  Exit codes are checked against
the call's own outputs (``train`` exits 0 iff its last accuracy reaches the
target, ``check-sep`` exits 0 iff ``voronoi_ok``), never against a stored
hash: a legitimate change may move the last digits of a float such as the
Isomap ``stress``.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

import topoclass as tc

# null_space_basis contract: ||W v|| <= KERNEL_TOL * ||W||_2 * ||v||
KERNEL_TOL = 1e-10
# the witness's two full-net outputs must agree to this
OUTPUT_DIFF_TOL = 1e-9
# urysohn's default --grid-size
GRID_SIZE = 101


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _svg_ok(path):
    text = Path(path).read_text(encoding="utf-8")
    return text.startswith("<?xml") and text.rstrip().endswith("</svg>")


def gen(data_path, bands, n):
    """n points per class, class k inside the radius band bands[k]."""

    def check(code, stdout):
        cloud = tc.load_cloud(data_path)
        if cloud.class_count != len(bands):
            return [f"{cloud.class_count} classes, expected {len(bands)}"]
        problems = []
        for k, (lo, hi) in enumerate(bands):
            norms = np.linalg.norm(cloud.class_points(k), axis=1)
            if norms.size != n:
                problems.append(f"class {k} has {norms.size} points, expected {n}")
            elif norms.min() < lo or norms.max() > hi:
                problems.append(f"class {k} has norms outside [{lo}, {hi}]")
        return problems

    return check


def train(model_path, history_path, target):
    """Exit 0 iff the history's last accuracy reaches the target."""

    def check(code, stdout):
        tc.load_model(model_path)
        rows = _read_csv(history_path)
        if not rows:
            return ["history is empty"]
        last = float(rows[-1]["accuracy"])
        if (code == 0) != (last >= target):
            return [f"exit {code} disagrees with last accuracy {last} (target {target})"]
        return []

    return check


def separation(report_path, class_count):
    """Exit 0 iff voronoi_ok, violations empty iff voronoi_ok, one disc per class."""

    def check(code, stdout):
        report = _read_json(report_path)
        ok = report["voronoi_ok"]
        problems = []
        if (code == 0) != (ok is True):
            problems.append(f"exit {code} disagrees with voronoi_ok={ok}")
        if ok != (len(report["violating_points"]) == 0):
            problems.append("voronoi_ok disagrees with the violation list")
        if len(report["discs"]) != class_count:
            problems.append(f"{len(report['discs'])} discs for {class_count} classes")
        return problems

    return check


def witness(witness_path, model_path):
    """Outputs agree below 1e-9; W p within null_space_basis's relative bound."""

    def check(code, stdout):
        payload = _read_json(witness_path)
        w = np.array(_read_json(model_path)["layers"][0]["weight"], dtype=np.float64)
        problems = []
        diff = payload["net_output_diff"]
        if not diff < OUTPUT_DIFF_TOL:
            problems.append(f"net_output_diff {diff} is not below {OUTPUT_DIFF_TOL}")
        scale = KERNEL_TOL * float(np.linalg.norm(w, 2))
        for key in ("p1", "p2"):
            p = np.array(payload[key], dtype=np.float64)
            residual = float(np.linalg.norm(w @ p))
            bound = scale * float(np.linalg.norm(p))
            if not residual <= bound:
                problems.append(f"|W {key}| = {residual:.3e} exceeds {bound:.3e}")
        return problems

    return check


def urysohn(data_path, out_dir):
    """The field is exactly k on class k, recomputed through the library.

    Also the command's own per-class report, and the grid CSV and SVG.
    """

    def check(code, stdout):
        cloud = tc.load_cloud(data_path)
        classes = cloud.split_by_class()
        if cloud.class_count == 2:
            field = tc.urysohn_binary(classes[0], classes[1])
        else:
            field = tc.urysohn_multiclass(classes)
        problems = []
        for k in range(cloud.class_count):
            if not (field(cloud.class_points(k)) == k).all():
                problems.append(f"library field is not exactly {k} on class {k}")
            line = f"class {k}: field in [{float(k):.3g}, {float(k):.3g}] (target {k})"
            if line not in stdout.splitlines():
                problems.append(f"command did not report {line!r}")
        values = [float(row["value"]) for row in _read_csv(Path(out_dir) / "field.csv")]
        if len(values) != GRID_SIZE * GRID_SIZE:
            problems.append(f"field.csv has {len(values)} rows, expected {GRID_SIZE ** 2}")
        top = cloud.class_count - 1
        if not all(0.0 <= v <= top for v in values):
            problems.append(f"field.csv has values outside [0, {top}]")
        if not _svg_ok(Path(out_dir) / "field.svg"):
            problems.append("field.svg is not a complete SVG document")
        return problems

    return check


def trace(out_dir, model_path, knn):
    """index.json lists every stage with its dims, knn/stress when projected."""

    def check(code, stdout):
        layers = _read_json(model_path)["layers"]
        dims = [len(layers[0]["weight"][0])] + [len(layer["bias"]) for layer in layers]
        names = ["input"] + [
            f"layer{i}_{layer['activation']}" for i, layer in enumerate(layers, start=1)
        ]
        stages = _read_json(Path(out_dir) / "index.json")["stages"]
        if len(stages) != len(dims):
            return [f"index.json lists {len(stages)} stages, the model has {len(dims)}"]
        problems = []
        for i, (entry, dim, name) in enumerate(zip(stages, dims, names)):
            if (entry["index"], entry["name"], entry["dim"]) != (i, name, dim):
                problems.append(f"stage {i} is {entry!r}, expected {name} of dim {dim}")
            projected = dim > 3
            if entry["projected"] != projected:
                problems.append(f"stage {i} projected={entry['projected']} at dim {dim}")
            if projected:
                k, stress = entry.get("knn"), entry.get("stress")
                if not isinstance(k, int) or k < knn:
                    problems.append(f"stage {i} knn={k!r}, expected an integer >= {knn}")
                if not isinstance(stress, float) or not math.isfinite(stress) or stress < 0.0:
                    problems.append(f"stage {i} stress={stress!r} is not a finite value >= 0")
            elif "knn" in entry or "stress" in entry:
                problems.append(f"stage {i} is not projected but has knn/stress")
            if not _svg_ok(Path(out_dir) / entry["svg"]):
                problems.append(f"stage {i} SVG is not a complete SVG document")
        return problems

    return check


def sweep(csv_path, widths, dim):
    """One row per width; exactly the bottleneck widths carry a witness.

    Width 1 cannot separate the disc from the annulus, so its best accuracy
    stays below 1.
    """

    def check(code, stdout):
        rows = _read_csv(csv_path)
        got = [int(row["width"]) for row in rows]
        if got != list(widths):
            return [f"widths {got}, expected {list(widths)}"]
        problems = []
        for row, width in zip(rows, widths):
            acc = float(row["best_accuracy"])
            if not 0.0 <= acc <= 1.0:
                problems.append(f"width {width}: accuracy {acc} outside [0, 1]")
            fields = (row["witness_gap"], row["witness_p1"], row["witness_p2"])
            if width < dim and not all(fields):
                problems.append(f"width {width} is a bottleneck but has no witness")
            if width >= dim and any(fields):
                problems.append(f"width {width} is no bottleneck but has a witness")
            if width == 1 and not acc < 1.0:
                problems.append(f"width 1 reached accuracy {acc}")
        return problems

    return check
