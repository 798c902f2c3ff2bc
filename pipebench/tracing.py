"""Spans and counters recorded from outside the program.

The traced run replaces each listed public function of ``topoclass`` with a
wrapper that opens a span around the call, in every ``topoclass.*``
namespace that binds it (``cli`` imports names directly, and module globals
are looked up at call time, so every caller sees the wrapper).  ``restore``
puts every original binding back.

Spans are kept in memory as ``[id, parent id, name, start, end]`` lists and
written out when the run ends.  Only calls made inside a root span, which
the runner opens around one CLI command, are recorded: the benchmark's own
output checks call the same library functions and must not be counted.
"""

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> public functions timed at their boundary; span names are
# "<layer>.<function>"
LAYERS = {
    "data": ("gen_annulus2d", "gen_nested_shells", "load_cloud", "save_cloud"),
    "network": (
        "forward_trace",
        "forward_batch",
        "load_model",
        "save_model",
        "build_relu_net",
        "strict_argmax_batch",
    ),
    "training": ("train",),
    "isomap": (
        "knn_graph",
        "geodesic_distances",
        "classical_mds",
        "pairwise_distances",
        "graph_components",
    ),
    "numerics": ("eigh_symmetric", "null_space_basis"),
    "topology": (
        "full_separability_report",
        "check_thm3",
        "min_enclosing_ball",
        "urysohn_binary",
        "urysohn_multiclass",
        "kernel_witness",
    ),
    "svg": ("scatter_svg", "heatmap_svg"),
}


class Recorder:
    """In-memory spans with parent ids, plus counters and maxima."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = {}
        self._stack = []

    @property
    def active(self):
        return bool(self._stack)

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self.clock(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")
        self.spans[sid][4] = self.clock()

    def count(self, name, n=1):
        self.counts[name] += n

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)


def self_times(spans):
    """Per span name: summed duration minus the durations of child spans.

    Spans come from one thread, so children of a span do not overlap and
    their summed duration is the part of the parent's interval they cover.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def total_time(spans, name):
    """Summed duration of the spans called ``name`` with no ancestor of that name."""
    names = {sid: span_name for sid, _, span_name, _, _ in spans}
    parents = {sid: parent for sid, parent, _, _, _ in spans}
    total = 0.0
    for _, parent, span_name, start, end in spans:
        if span_name != name:
            continue
        ancestor = parent
        while ancestor is not None and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor is None:
            total += end - start
    return total


def _rows(a):
    arr = np.asarray(a)
    return 1 if arr.ndim < 2 else arr.shape[0]


def _wrap_field(rec, field):
    def traced_field(x):
        if not rec.active:
            return field(x)
        rec.count("topology.field.points", _rows(x))
        sid = rec.open("topology.field")
        try:
            return field(x)
        finally:
            rec.close(sid)

    return traced_field


# counters and maxima that _observe and the wrappers fill in, besides the
# "<layer>.<function>.calls" count of every wrapped function
COUNTERS = (
    "isomap.nodes",
    "isomap.edges",
    "isomap.k_doublings",
    "isomap.clamped",
    "numerics.eigh_symmetric.rows_max",
    "training.epochs",
    "training.sgd_steps",
    "topology.meb_exact.calls",
    "topology.meb_coreset.calls",
    "topology.field.points",
    "svg.bytes",
)


def _observe(rec, name, args, result):
    """Counters read from a finished call's arguments and result."""
    if name == "isomap.knn_graph":
        rec.count("isomap.nodes", result.node_count)
        rec.count("isomap.edges", result.edge_count())
    elif name == "isomap.classical_mds":
        rec.count("isomap.clamped", result.clamped)
    elif name == "numerics.eigh_symmetric":
        rec.maximum("numerics.eigh_symmetric.rows_max", np.asarray(args[0]).shape[0])
    elif name == "training.train":
        cloud, cfg = args[1], args[2]
        epochs = result[1].epochs_run()
        rec.count("training.epochs", epochs)
        rec.count("training.sgd_steps", epochs * math.ceil(len(cloud) / cfg.batch_size))
    elif name == "topology.min_enclosing_ball":
        exact = np.asarray(args[0]).shape[1] <= 3
        rec.count("topology.meb_exact.calls" if exact else "topology.meb_coreset.calls")
    elif name in ("topology.urysohn_binary", "topology.urysohn_multiclass"):
        return _wrap_field(rec, result)
    elif name.startswith("svg."):
        rec.count("svg.bytes", len(result))
    return result


def _make_wrapper(rec, name, fn, disconnected):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.count(name + ".calls")
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except disconnected:
            # a disconnected kNN graph makes the trace command double k
            if name == "isomap.geodesic_distances":
                rec.count("isomap.k_doublings")
            raise
        finally:
            rec.close(sid)
        return _observe(rec, name, args, result)

    return traced


def _topoclass_modules():
    return [
        mod
        for modname, mod in sorted(sys.modules.items())
        if mod is not None and (modname == "topoclass" or modname.startswith("topoclass."))
    ]


def install(rec):
    """Wrap every listed function wherever a topoclass module binds it.

    Returns the list of ``(module, attribute, original)`` bindings replaced,
    which ``restore`` puts back.
    """
    importlib.import_module("topoclass.cli")  # binds names from every layer
    disconnected = sys.modules["topoclass.errors"].DisconnectedError
    wrappers = {}
    for layer, functions in LAYERS.items():
        module = sys.modules[f"topoclass.{layer}"]
        for fn_name in functions:
            original = getattr(module, fn_name)
            wrapper = _make_wrapper(rec, f"{layer}.{fn_name}", original, disconnected)
            wrappers[id(original)] = (original, wrapper)
    replaced = []
    for module in _topoclass_modules():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced.append((module, attr, value))
    return replaced


def restore(replaced):
    for module, attr, original in replaced:
        setattr(module, attr, original)
