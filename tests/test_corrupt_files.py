"""Property tests: corrupt dataset and model files end in a documented exit code.

Starting from a small valid two-class cloud, hypothesis rewrites the JSON
file with finite extremes up to +-1e308, integers too large for int64 or
float64, booleans in place of integers, values of the wrong type and short
label lists, then runs ``urysohn`` and ``check-sep`` through ``cli.main``.
Starting from a valid bottleneck net (2 -> 1 relu -> 2 softmax) or the
six-layer demo net, it rewrites model files with booleans, numeric strings,
``null``, huge integers and +-1e308 entries, ragged weight rows, wrong
activations and missing keys, then runs ``check-sep`` and ``witness``.
Every call must return 0, 1, 2 or 3: no exception and no numpy
``RuntimeWarning`` may escape.

The flags of ``train`` and ``sweep-bottleneck`` get the same treatment on
the valid cloud: learning rates of 0, below 0, inf, nan and 1e308; 1 to 3
epochs and epochs <= 0; batch sizes of 0 and past the point count; target
accuracies of 0, nan, above 1 and subnormal; empty, zero, non-integer,
oversized and mismatched ``--dims`` and ``--widths``; and seeds below 0 or
at 2^64 and past.  Each call must return 0, 1 or 2.  Batch sizes past
int64 train as one batch of every point.

So do the numeric flags of ``urysohn`` (``--grid-size``, ``--grid-extent``)
at 0, negative, subnormal, 1e154, 1e308, inf and nan, and ``check-sep
--format`` and ``--out`` with unknown formats and paths that cannot be
written: each call must return 0, 1, 2 or 3.  ``witness`` has no numeric
flags: its points sit at the fixed radii ``topology.WITNESS_RADII``.

So do the flags of ``gen`` (point counts and dimensions from below 1 to
past int64, radius bands that are empty, reversed, touching, infinite,
NaN, subnormal or past 1e150), ``trace`` (``--knn`` from below 1 to 2^64,
with and without ``--include-pre``, on a net with Isomap-projected stages
and one without, into a directory or onto a file) and ``isomap``
(``--knn``, ``--target-dim``, ``--format`` and ``--largest-component``).
"""

import json
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from topoclass.cli import main
from topoclass.data import gen_annulus2d
from topoclass.network import build_paper_net, build_relu_net, save_model
from topoclass.numerics import make_rng

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3}
BASE = gen_annulus2d(4, 0)
BASE_PAYLOAD = {
    "dim": BASE.dim,
    "class_count": BASE.class_count,
    "points": BASE.points.tolist(),
    "labels": BASE.labels.tolist(),
}
N = len(BASE)

EXTREMES = st.sampled_from(
    [1e308, -1e308, sys.float_info.max, -sys.float_info.max, 1e200, -1e200, 1e154, 5e-324]
) | st.floats(allow_nan=False, allow_infinity=False)
# integers past int64 and past the float64 range
BIG_INTEGERS = st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**309, -(10**400)])
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    BIG_INTEGERS,
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
FIELDS = ("dim", "class_count", "points", "labels")


def _set_coordinate(payload, value, i, j):
    payload["points"][i][j] = value


def _set_label(payload, value, i):
    payload["labels"][i] = value


def _set_row(payload, value, i):
    payload["points"][i] = value


def _cut_labels(payload, keep):
    payload["labels"] = payload["labels"][:keep]


def _set_field(payload, value, key):
    payload[key] = value


INDEX = st.integers(0, N - 1)
MUTATIONS = st.one_of(
    st.tuples(st.just(_set_coordinate), EXTREMES, INDEX, st.integers(0, 1)),
    st.tuples(st.just(_set_field), st.booleans(), st.sampled_from(["dim", "class_count"])),
    st.tuples(st.just(_set_label), st.booleans(), INDEX),
    st.tuples(st.just(_set_field), WRONG_TYPES, st.sampled_from(FIELDS)),
    st.tuples(st.just(_set_label), WRONG_TYPES, INDEX),
    st.tuples(st.just(_set_row), WRONG_TYPES, INDEX),
    st.tuples(st.just(_set_coordinate), WRONG_TYPES, INDEX, st.integers(0, 1)),
    st.tuples(st.just(_cut_labels), st.integers(0, N - 1)),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    model = root / "model.json"
    save_model(build_paper_net(make_rng(0)), model)
    bottleneck = root / "bottleneck.json"
    save_model(build_relu_net((2, 1, 2), make_rng(1)), bottleneck)
    clean = root / "clean.json"
    clean.write_text(json.dumps(BASE_PAYLOAD), encoding="utf-8")
    return {
        "root": root,
        "model": model,
        "bottleneck": bottleneck,
        "data": root / "data.json",
        "clean": clean,
    }


def _corrupt(mutations):
    payload = json.loads(json.dumps(BASE_PAYLOAD))
    for apply, *args in mutations:
        try:
            apply(payload, *args)
        except (TypeError, IndexError, KeyError):
            pass  # an earlier mutation changed the shape this one edits
    return payload


def _exit_code(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage error
            return exc.code


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_corrupt_dataset_ends_in_a_documented_exit_code(files, mutations, capsys):
    files["data"].write_text(json.dumps(_corrupt(mutations)), encoding="utf-8")
    urysohn = ["urysohn", files["data"], "--grid-size", 5, "--out-dir", files["root"] / "u"]
    assert _exit_code(urysohn) in DOCUMENTED_EXIT_CODES
    assert _exit_code(["check-sep", files["model"], files["data"]]) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()


def _model_payload(net):
    return {
        "layers": [
            {"activation": lay.activation, "weight": lay.weight.tolist(), "bias": lay.bias.tolist()}
            for lay in net.layers
        ]
    }


BASE_MODELS = (
    _model_payload(build_relu_net((2, 1, 2), make_rng(1))),
    _model_payload(build_paper_net(make_rng(2))),
)
# every entry a model file may hold in place of a finite float
ENTRIES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["1.5", "0", "NaN", ""]),
    BIG_INTEGERS,
    st.sampled_from([1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324]),
    EXTREMES,
)
LAYER_KEYS = ("activation", "weight", "bias")


def _layer(payload, layer):
    layers = payload["layers"]
    return layers[layer % len(layers)]


def _set_weight(payload, value, layer, i, j):
    rows = _layer(payload, layer)["weight"]
    row = rows[i % len(rows)]
    row[j % len(row)] = value


def _set_bias(payload, value, layer, i):
    bias = _layer(payload, layer)["bias"]
    bias[i % len(bias)] = value


def _set_weight_row(payload, value, layer, i):
    rows = _layer(payload, layer)["weight"]
    rows[i % len(rows)] = value


def _set_layer_key(payload, value, layer, key):
    _layer(payload, layer)[key] = value


def _drop_layer_key(payload, layer, key):
    del _layer(payload, layer)[key]


LAYER = st.integers(0, 6)
SLOT = st.integers(0, 5)
MODEL_MUTATIONS = st.one_of(
    st.tuples(st.just(_set_weight), ENTRIES, LAYER, SLOT, SLOT),
    st.tuples(st.just(_set_bias), ENTRIES, LAYER, SLOT),
    # ragged rows: one row one entry short or long, or not a list at all
    st.tuples(st.just(_set_weight_row), st.lists(EXTREMES, max_size=6) | WRONG_TYPES, LAYER, SLOT),
    st.tuples(
        st.just(_set_layer_key),
        st.sampled_from(["tanh", "Relu", "", "softmax"]) | WRONG_TYPES,
        LAYER,
        st.just("activation"),
    ),
    st.tuples(st.just(_set_layer_key), WRONG_TYPES, LAYER, st.sampled_from(LAYER_KEYS)),
    st.tuples(st.just(_drop_layer_key), LAYER, st.sampled_from(LAYER_KEYS)),
)


def _corrupt_model(base, mutations):
    payload = json.loads(json.dumps(base))
    for apply, *args in mutations:
        try:
            apply(payload, *args)
        except (TypeError, IndexError, KeyError, ZeroDivisionError, AttributeError):
            pass  # an earlier mutation changed the shape this one edits
    return payload


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    base=st.sampled_from(BASE_MODELS),
    mutations=st.lists(MODEL_MUTATIONS, min_size=1, max_size=3),
)
def test_corrupt_model_ends_in_a_documented_exit_code(files, base, mutations, capsys):
    model = files["root"] / "corrupt_model.json"
    model.write_text(json.dumps(_corrupt_model(base, mutations)), encoding="utf-8")
    assert _exit_code(["check-sep", model, files["clean"]]) in DOCUMENTED_EXIT_CODES
    assert _exit_code(["witness", model]) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()


TRAINING_FLAGS = {
    "--lr": ["0", "-0.5", "-inf", "inf", "nan", "1e308", "0.05"],
    "--batch-size": ["0", "-1", "3", str(N + 1), "1000", str(2**64), "9999999999999999999999999"],
    "--target-accuracy": ["0", "nan", "-1", "1.5", "inf", "5e-324", "0.5", "1"],
    "--seed": ["-1", str(2**64), str(2**64 - 1), str(2**63), "0"],
}
EPOCHS = st.sampled_from(["1", "2", "3", "0", "-4"])  # always set: 500 is slow
DIMS = st.sampled_from(
    ["", "0", "2", "2,0,2", "x", "2,x,2", "2,2.5,2", "2,,2", "2,-1,2", "3,2", "2,3", "2,1,3"]
    + ["2,1025,2", "2,9999999999999999999999999,2", "2,1,2", "2,3,3,2"]
)
WIDTHS = st.sampled_from(
    ["", "0", "x", "1,,2", "-1", "1.5", "1025", "9999999999999999999999999", "1", "1,2,3"]
)
SEEDS = st.sampled_from(["-1", "0", "1", "2", "101", str(2**64), str(2**64 + 1)])


def _flags(table):
    """Some of the table's flags, each with one of its values, as ``--flag=value``."""
    optional = {flag: st.none() | st.sampled_from(values) for flag, values in table.items()}
    return st.fixed_dictionaries(optional).map(
        lambda chosen: [f"{flag}={value}" for flag, value in chosen.items() if value is not None]
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(flags=_flags(TRAINING_FLAGS), epochs=EPOCHS, dims=st.none() | DIMS)
def test_train_flags_end_in_a_documented_exit_code(files, flags, epochs, dims, capsys):
    arch = ["--paper-net"] if dims is None else [f"--dims={dims}"]
    out = files["root"] / "flags_model.json"
    argv = ["train", files["clean"], *arch, f"--epochs={epochs}", *flags, "-o", out]
    assert _exit_code(argv) in {0, 1, 2}
    capsys.readouterr()


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    flags=_flags(TRAINING_FLAGS),
    epochs=EPOCHS,
    widths=st.none() | WIDTHS,
    seeds=st.none() | SEEDS,
)
def test_sweep_flags_end_in_a_documented_exit_code(files, flags, epochs, widths, seeds, capsys):
    optional = [f"--widths={widths}"] * (widths is not None) + [f"--seeds={seeds}"] * (
        seeds is not None
    )
    out = files["root"] / "flags_sweep.csv"
    argv = ["sweep-bottleneck", files["clean"], f"--epochs={epochs}", *optional, *flags, "-o", out]
    assert _exit_code(argv) in {0, 1, 2}
    capsys.readouterr()


# 0, negative, subnormal, huge, infinite and nan values of a numeric flag
NUMBERS = ["0", "-2.5", "-1e308", "5e-324", "1e154", "1e308", "inf", "nan"]
FLAG_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FLAG_SETTINGS
@given(size=st.sampled_from(NUMBERS + ["1", "5"]), extent=st.sampled_from(NUMBERS + ["2.5"]))
@example(size="5", extent="1e308")  # 2 * extent overflows linspace's span
def test_urysohn_grid_flags_end_in_a_documented_exit_code(files, size, extent, capsys):
    out = files["root"] / "grid"
    argv = ["urysohn", files["clean"], f"--grid-size={size}", f"--grid-extent={extent}"]
    assert _exit_code([*argv, "--out-dir", out]) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()


@FLAG_SETTINGS
@given(
    fmt=st.none() | st.sampled_from(["json", "csv", "xml", ""]),
    out=st.none() | st.sampled_from(["", "report.out", ".", "missing/report.out"]),
)
def test_check_sep_output_flags_end_in_a_documented_exit_code(files, fmt, out, capsys):
    flags = [f"--format={fmt}"] * (fmt is not None)
    if out is not None:
        flags.append(f"--out={files['root'] / out if out else ''}")
    argv = ["check-sep", files["model"], files["clean"], *flags]
    assert _exit_code(argv) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()


# point counts and dimensions below 1, small, and past int64; 40-D shells
# draw radially (between about 10 and 17 dimensions the rejection sampler
# draws up to 2 million rows a batch)
COUNTS = ["0", "-1", "1", "3", str(2**64), "9999999999999999999999999", "x"]
GEN_FLAGS = {
    "--n": COUNTS,
    "--dim": ["0", "-3", "1", "3", "40", str(2**64), "2.5"],
    "--bands": [
        "", "0:1", "0:0.9,1:2", "0:1,1:2", "2:1", "1:1", "-1:1", "0:nan", "0:inf", "x:1", "0:1:2",
        "0:1e308", "1e-320:2e-320", "0:5e-324", "0:1e150", "0:1e-150", "0:1,2:3,4:5",
    ],
    "--seed": ["-1", "0", str(2**64)],
}


@FLAG_SETTINGS
@given(
    geometry=st.sampled_from([["--annulus"], ["--shells"], [], ["--annulus", "--shells"]]),
    flags=_flags(GEN_FLAGS),
    csv=st.booleans(),
)
def test_gen_flags_end_in_a_documented_exit_code(files, geometry, flags, csv, capsys):
    root = files["root"]
    extra = [f"--csv={root / 'gen.csv'}"] if csv else []
    argv = ["gen", *geometry, *flags, *extra, "-o", root / "gen.json"]
    assert _exit_code(argv) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()


KNN = ["0", "-1", "1", "2", "7", "8", str(2**64), "x"]


@FLAG_SETTINGS
@given(
    model=st.sampled_from(["model", "bottleneck"]),
    knn=st.none() | st.sampled_from(KNN),
    include_pre=st.booleans(),
    onto_file=st.booleans(),
)
def test_trace_flags_end_in_a_documented_exit_code(
    files, model, knn, include_pre, onto_file, capsys
):
    flags = [f"--knn={knn}"] * (knn is not None) + ["--include-pre"] * include_pre
    out = files["clean"] if onto_file else files["root"] / "trace"
    argv = ["trace", files[model], files["clean"], *flags, "--out-dir", out]
    assert _exit_code(argv) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()


@FLAG_SETTINGS
@given(
    knn=st.none() | st.sampled_from(KNN),
    target_dim=st.none() | st.sampled_from(["0", "-1", "1", "3", "8", "9", str(2**64)]),
    fmt=st.none() | st.sampled_from(["json", "csv", "xml"]),
    largest=st.booleans(),
)
def test_isomap_flags_end_in_a_documented_exit_code(files, knn, target_dim, fmt, largest, capsys):
    flags = [f"--knn={knn}"] * (knn is not None)
    flags += [f"--target-dim={target_dim}"] * (target_dim is not None)
    flags += [f"--format={fmt}"] * (fmt is not None) + ["--largest-component"] * largest
    argv = ["isomap", files["clean"], *flags, "--out-dir", files["root"] / "embed"]
    assert _exit_code(argv) in DOCUMENTED_EXIT_CODES
    capsys.readouterr()
