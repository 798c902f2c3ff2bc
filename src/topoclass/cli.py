"""topoclass command line: experiments end to end, files out.

Subcommands: gen, train, trace, check-sep, witness, sweep-bottleneck,
isomap, urysohn.  Exit codes: 0 success, 1 quality failure (target not
reached, separation not achieved, disconnected graph, a result outside its
numerical contract, a sweep worker that ended without its result), 2
usage, schema or unreadable-path error (including a training stack or a
dense Isomap too large to hold), 3 precondition not applicable.  Every
command is a pure function of its flags; rerunning with the same flags
rewrites byte-identical files.

``sweep-bottleneck`` trains its widths in parallel, one forked process
per usable core (``_train_stacks``); its rows, files, output and exit
code are those of training the widths one after another.
"""

import argparse
import functools
import json
import math
import os
import pickle
import signal
import sys
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import network as net_mod
from . import topology as topo_mod
from . import training as train_mod
from .errors import (
    DisconnectedError,
    NumericalError,
    SpecError,
    TopoclassError,
    WorkerError,
)
from .isomap import (
    NeighborGraph,
    classical_mds,
    embedding_to_csv,
    embedding_to_json,
    geodesic_distances,
    graph_components,
    isomap as isomap_embed,
    knn_graph,
)
from .numerics import make_rng
from .svg import heatmap_svg, scatter_svg

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3
# urysohn writes size**2 cells: at 1024, field.csv and field.svg together take about 140 MB
MAX_GRID_SIZE = 1024
MAX_WIDTH = 1024  # training holds every net's activations on every point at once
MAX_SEEDS = 100
# gen holds every coordinate and its JSON text in memory: about 0.5 GB at 10^7
MAX_COORDINATES = 10**7
# a training stack of S nets holds its parameters and every layer's
# activations on all n points at once: S * (n * (sum of layer widths) +
# sum of out * (in + 1) over the layers) floats, 2 GiB at this limit
MAX_STACK_ENTRIES = 2**28
# dense Isomap holds about 7 n x n float64 arrays at once: 0.94 GB at this n
MAX_ISOMAP_POINTS = 2**12


def _check_stack_size(nets, dims, n, processes=1):
    """Refuse, before allocating, stacks of ``nets`` nets of ``dims`` on ``n`` points.

    Each of ``processes`` processes holds one such stack at a time.
    """
    units = sum(dims[1:])
    params = sum(out * (fan_in + 1) for fan_in, out in zip(dims, dims[1:]))
    entries = processes * nets * (n * units + params)
    if entries > MAX_STACK_ENTRIES:
        plural = "s" if nets > 1 else ""
        stack = f"{nets} net{plural} x ({n} points x {units} units + {params} parameters)"
        each = f", in each of {processes} processes" if processes > 1 else ""
        raise SpecError(
            f"{entries} floats to hold ({stack}, widths {','.join(map(str, dims))}{each}): "
            f"more than MAX_STACK_ENTRIES = {MAX_STACK_ENTRIES}"
        )


def _check_isomap_size(n):
    """Refuse, before allocating, a dense Isomap of ``n`` points."""
    if n > MAX_ISOMAP_POINTS:
        raise SpecError(f"Isomap of {n} points: more than MAX_ISOMAP_POINTS = {MAX_ISOMAP_POINTS}")


def _sweep_dims(in_dim, width, class_count):
    # first-layer width under test, then a tail wide enough that downstream
    # capacity never confounds the bottleneck effect
    return (in_dim, width, 8, 8, class_count)


def _parse_bands(text):
    bands = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise SpecError(f"band {part!r} must look like lo:hi")
        try:
            bands.append((float(pieces[0]), float(pieces[1])))
        except ValueError as exc:
            raise SpecError(f"band {part!r} has non-numeric radii") from exc
    return bands


def _parse_widths(text, flag):
    try:
        widths = tuple(int(d) for d in text.split(","))
    except ValueError as exc:
        raise SpecError(f"{flag} must be a comma list of integers, got {text!r}") from exc
    if not all(1 <= w <= MAX_WIDTH for w in widths):
        raise SpecError(f"{flag} widths must be in [1, {MAX_WIDTH}], got {text!r}")
    return widths


def cmd_gen(args):
    bands = None if args.annulus else _parse_bands(args.bands)
    dim, classes = (2, 2) if args.annulus else (args.dim, len(bands))
    if args.n * classes * dim > MAX_COORDINATES:
        raise SpecError(
            f"--n {args.n} points per class, {classes} classes in R^{dim}: more than "
            f"{MAX_COORDINATES} coordinates"
        )
    if args.annulus:
        cloud = data_mod.gen_annulus2d(args.n, args.seed)
    else:
        cloud = data_mod.gen_nested_shells(dim, bands, args.n, args.seed)
    data_mod.save_cloud(cloud, args.out)
    if args.csv:
        data_mod.cloud_to_csv(cloud, args.csv)
    print(f"wrote {args.out}: {len(cloud)} points in R^{cloud.dim}, {cloud.class_count} classes")
    for k, (count, lo, hi) in enumerate(data_mod.class_norm_ranges(cloud)):
        print(f"  class {k}: {count} points, norms in [{lo:.6f}, {hi:.6f}]")
    return EXIT_OK


def cmd_train(args):
    cloud = data_mod.load_cloud(args.data)
    dims = net_mod.PAPER_NET_DIMS if args.paper_net else _parse_widths(args.dims, "--dims")
    _check_stack_size(1, dims, len(cloud))
    net = net_mod.build_relu_net(dims, make_rng(args.seed))
    cfg = train_mod.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        target_accuracy=args.target_accuracy,
    )
    trained, history = train_mod.train(net, cloud, cfg)
    net_mod.save_model(trained, args.out)
    history_path = args.history or str(Path(args.out).with_suffix("")) + "_history.csv"
    history.to_csv(history_path)
    final = history.accuracies[-1]
    print(
        f"trained {len(dims) - 1} layers for {history.epochs_run()} epochs; "
        f"final accuracy {final:.4f}; wrote {args.out} and {history_path}"
    )
    return EXIT_OK if final >= args.target_accuracy else EXIT_QUALITY


def _project_stage(points, k_start):
    """Isomap a high-dimensional stage to 3-D, doubling k past disconnection."""
    n = points.shape[0]
    _check_isomap_size(n)
    k = min(k_start, n - 1)
    while True:
        try:
            return isomap_embed(points, k, 3), k
        except DisconnectedError:
            if k >= n - 1:
                raise
            k = min(2 * k, n - 1)


def cmd_trace(args):
    if args.knn < 1:
        raise SpecError(f"--knn must be >= 1, got {args.knn}")
    net = net_mod.load_model(args.model)
    cloud = data_mod.load_cloud(args.data)
    trace = net_mod.forward_trace(net, cloud, include_pre=args.include_pre)

    # every stage is projected and drawn before anything is written, so a
    # stage that fails leaves no files behind
    index, svgs = [], []
    for i, (name, points) in enumerate(trace.stages):
        dim = points.shape[1]
        entry = {"index": i, "name": name, "dim": dim, "projected": dim > 3}
        plotted = points
        if dim > 3:
            result, k_used = _project_stage(points, args.knn)
            plotted = result.coordinates
            entry["knn"] = k_used
            entry["stress"] = result.stress
        title = f"stage {i}: {name} (dim {dim})" + (" via isomap" if dim > 3 else "")
        svgs.append(scatter_svg(plotted, trace.labels, title))
        entry["svg"] = f"stage_{i:02d}_{name}.svg"
        index.append(entry)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for entry, svg in zip(index, svgs):
        (out_dir / entry["svg"]).write_text(svg, encoding="utf-8")
    data_mod.write_json({"stages": index}, out_dir / "index.json")
    print(f"wrote {len(index)} stage SVGs and index.json to {out_dir}")
    return EXIT_OK


def cmd_check_sep(args):
    net = net_mod.load_model(args.model)
    cloud = data_mod.load_cloud(args.data)
    report = topo_mod.full_separability_report(net, cloud)
    if args.out:
        if args.format == "json":
            data_mod.write_json(report.to_jsonable(), args.out)
        else:
            rows = (
                (str(idx), "" if assigned is None else str(assigned), str(true))
                for idx, assigned, true in report.violating_points
            )
            data_mod.write_csv(args.out, ["index", "assigned", "true"], rows)
    print(json.dumps(report.to_jsonable()))
    return EXIT_OK if report.voronoi_ok else EXIT_QUALITY


def cmd_witness(args):
    net = net_mod.load_model(args.model)
    first = net.layers[0]
    rows, cols = first.weight.shape
    if rows >= cols:
        print(
            f"no bottleneck: first layer is {rows}x{cols} (rows >= cols); "
            "theorem does not apply"
        )
        return EXIT_NOT_APPLICABLE
    witness = topo_mod.kernel_witness(first.weight, args.inner_r, args.outer_r)
    # one point per call: a two-row batch may round differently in BLAS
    first_net = net_mod.Mlp(layers=(first,))
    f1_p1 = net_mod.forward(first_net, witness.p1)
    f1_p2 = net_mod.forward(first_net, witness.p2)
    out_p1 = net_mod.forward(net, witness.p1)
    out_p2 = net_mod.forward(net, witness.p2)
    payload = witness.to_jsonable()
    payload["first_layer_image_p1"] = f1_p1.tolist()
    payload["first_layer_image_p2"] = f1_p2.tolist()
    payload["net_output_p1"] = out_p1.tolist()
    payload["net_output_p2"] = out_p2.tolist()
    payload["net_output_diff"] = float(np.abs(out_p1 - out_p2).max())
    if args.out:
        data_mod.write_json(payload, args.out)
    print(json.dumps(payload))
    return EXIT_OK


def _usable_cores():
    """The cores this process may run on; 1 where the platform cannot say."""
    sched_getaffinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(sched_getaffinity(0)) if sched_getaffinity else 1


def _train_share(cloud, stacks, cfgs):
    """Yield each stack's ``train_many`` results, or the exception it raised.

    Stops after the first exception.
    """
    for _, nets in stacks:
        try:
            outcome = train_mod.train_many(nets, cloud, cfgs)
        except Exception as exc:  # the caller raises the first failure in width order
            outcome = exc
        yield outcome
        if isinstance(outcome, Exception):
            return


def _train_stacks(cloud, stacks, cfgs, processes):
    """``train_many(nets, cloud, cfgs)`` for each ``(width, nets)`` of ``stacks``.

    Stack i trains in process i % ``processes``: this process takes share
    0 and ``os.fork`` makes the others.  A worker pickles each outcome into
    its pipe as soon as it has it and leaves by ``os._exit``; like this
    process, it stops at its first failure.  Returns the results in stack
    order, or raises the failure of the first stack that failed; a worker
    that ended without sending an outcome fails its stack with WorkerError.
    Every worker is reaped before this returns or raises, and killed first
    when this process leaves by an exception, such as KeyboardInterrupt.
    With one process this is the plain loop.
    """
    outcomes = [None] * len(stacks)
    workers = []  # (pid, read end, first stack of its share), not yet reaped
    try:
        for first in range(1, processes):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    for _, pipe, _ in workers:
                        pipe.close()
                    with os.fdopen(write_end, "wb") as pipe:
                        for outcome in _train_share(cloud, stacks[first::processes], cfgs):
                            pickle.dump(outcome, pipe)
                            pipe.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            workers.append((pid, os.fdopen(read_end, "rb"), first))
        own = range(0, len(stacks), processes)
        for i, outcome in zip(own, _train_share(cloud, stacks[::processes], cfgs)):
            outcomes[i] = outcome
        while workers:
            pid, pipe, first = workers[0]
            lost = None
            for i in range(first, len(stacks), processes):
                try:
                    outcomes[i] = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the worker ended before sending it
                    lost = i
                    break
                if isinstance(outcomes[i], Exception):
                    break
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            pipe.close()
            if lost is not None:
                how = f"exit {code}" if code >= 0 else f"killed by {signal.Signals(-code).name}"
                outcomes[lost] = WorkerError(
                    f"the process training width {stacks[lost][0]} ended without "
                    f"its result ({how})"
                )
    finally:
        for pid, pipe, _ in workers:  # left early by an exception: stop them
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run_bottleneck_sweep(cloud, widths, seeds, base_seed, lr, epochs, batch_size, target):
    """Train first-layer-width variants; per width, keep the best accuracy.

    The seeds of one width train together in one stack (train_many), with
    results identical to training them one by one, and the widths train
    in parallel, one process per usable core (``_train_stacks``).  Returns
    one dict per width (ordered by width) with the best accuracy over the
    seeds and, when the width is an actual bottleneck, a kernel witness
    from the best net's first layer.
    """
    processes = min(len(widths), _usable_cores())
    widest = _sweep_dims(cloud.dim, max(widths), cloud.class_count)
    _check_stack_size(seeds, widest, len(cloud), processes)
    run_seeds = range(base_seed, base_seed + seeds)
    cfgs = [
        train_mod.TrainConfig(
            learning_rate=lr,
            epochs=epochs,
            batch_size=batch_size,
            seed=seed,
            target_accuracy=target,
        )
        for seed in run_seeds
    ]
    stacks = []
    for width in widths:
        dims = _sweep_dims(cloud.dim, width, cloud.class_count)
        nets = [net_mod.build_relu_net(dims, make_rng(seed)) for seed in run_seeds]
        stacks.append((width, nets))
    rows = []
    for width, results in zip(widths, _train_stacks(cloud, stacks, cfgs, processes)):
        seed_accs = [max(history.accuracies) for _, history in results]
        row = {
            "width": width,
            "best_accuracy": max(seed_accs),
            "seed_accuracies": seed_accs,
            "witness": None,
        }
        if width < cloud.dim:
            best_net = results[seed_accs.index(max(seed_accs))][0]
            row["witness"] = topo_mod.kernel_witness(best_net.layers[0].weight)
        rows.append(row)
    return rows


def cmd_sweep(args):
    cloud = data_mod.load_cloud(args.data)
    widths = _parse_widths(args.widths, "--widths")
    if not 1 <= args.seeds <= MAX_SEEDS:
        raise SpecError(f"--seeds must be in [1, {MAX_SEEDS}], got {args.seeds}")
    rows = run_bottleneck_sweep(
        cloud,
        widths,
        args.seeds,
        args.seed,
        args.lr,
        args.epochs,
        args.batch_size,
        args.target_accuracy,
    )
    table = []
    for row in rows:
        witness = row["witness"]
        cells = [str(row["width"]), repr(float(row["best_accuracy"]))]
        if witness is None:
            cells += ["", "", ""]
        else:
            cells.append(repr(float(witness.output_gap)))
            cells += [";".join(map(repr, p.tolist())) for p in (witness.p1, witness.p2)]
        table.append(cells)
    header = ["width", "best_accuracy", "witness_gap", "witness_p1", "witness_p2"]
    data_mod.write_csv(args.out, header, table)
    for row in rows:
        print(f"width {row['width']}: best accuracy {row['best_accuracy']:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_isomap(args):
    cloud = data_mod.load_cloud(args.data)
    _check_isomap_size(len(cloud))
    labels = cloud.labels
    graph = knn_graph(cloud.points, args.knn)
    if args.largest_component:
        # kNN edges never leave a component, so this subgraph is the kNN
        # graph of the kept points
        keep = max(graph_components(graph), key=len)
        graph = NeighborGraph(weights=graph.weights[np.ix_(keep, keep)])
        labels = labels[keep]
    result = classical_mds(geodesic_distances(graph), args.target_dim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        embedding_to_json(result, out_dir / "embedding.json")
    else:
        embedding_to_csv(result, out_dir / "embedding.csv", labels=labels)
    svg = scatter_svg(result.coordinates, labels, f"isomap k={args.knn} (stress {result.stress:.3g})")
    (out_dir / "embedding.svg").write_text(svg, encoding="utf-8")
    print(f"embedded {len(labels)} points to R^{args.target_dim}; stress {result.stress:.6g}")
    return EXIT_OK


def cmd_urysohn(args):
    extent = args.grid_extent
    size = args.grid_size
    if not 1 <= size <= MAX_GRID_SIZE:
        raise SpecError(f"--grid-size must be in [1, {MAX_GRID_SIZE}], got {size}")
    if not (math.isfinite(2.0 * extent) and extent > 0.0):
        raise SpecError(f"--grid-extent must be positive with 2 * extent finite, got {extent}")
    cloud = data_mod.load_cloud(args.data)
    if cloud.dim != 2:
        raise SpecError("urysohn maps are rendered for 2-D data only")
    classes = cloud.split_by_class()
    field = topo_mod.urysohn_multiclass(classes)

    xs = ys = np.linspace(-extent, extent, size)
    values = topo_mod.urysohn_grid(classes, xs, ys)
    # the field on the classes, like the grid, is evaluated before anything
    # is written, so a failure leaves no files behind
    on_classes = [field(points) for points in classes]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis_text = [repr(v) for v in xs.tolist()]
    rows = chain.from_iterable(
        zip(axis_text, repeat(y), map(repr, row.tolist())) for y, row in zip(axis_text, values)
    )
    data_mod.write_csv(out_dir / "field.csv", ["x", "y", "value"], rows)
    (out_dir / "field.svg").write_text(
        heatmap_svg(xs, ys, values, f"urysohn separator ({cloud.class_count} classes)"),
        encoding="utf-8",
    )
    for k, on_class in enumerate(on_classes):
        print(f"class {k}: field in [{on_class.min():.3g}, {on_class.max():.3g}] (target {k})")
    print(f"wrote field.csv and field.svg to {out_dir}")
    return EXIT_OK


@functools.cache  # one parser per process: parse_args fills a fresh namespace each call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="topoclass",
        description="train tracing MLPs, certify separability, build separators and witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a ball/shell dataset")
    geom = gen.add_mutually_exclusive_group(required=True)
    geom.add_argument("--annulus", action="store_true", help="2-D disc (r<=0.9) vs annulus (1<=r<=2)")
    geom.add_argument("--shells", action="store_true", help="concentric bands in --dim dimensions")
    gen.add_argument("--n", type=int, default=500, help="samples per class (default 500)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dim", type=int, default=2, help="ambient dimension for --shells (default 2)")
    gen.add_argument(
        "--bands",
        default="0:0.9,1:2",
        help="radius bands lo:hi,lo:hi,... for --shells; one class per band (default 0:0.9,1:2)",
    )
    gen.add_argument("-o", "--out", required=True, help="output dataset JSON")
    gen.add_argument("--csv", default=None, help="also export the dataset as CSV")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="fit an MLP by SGD on cross-entropy")
    tr.add_argument("data", help="dataset JSON")
    arch = tr.add_mutually_exclusive_group(required=True)
    arch.add_argument("--paper-net", action="store_true", help="the 2,5,5,2,2,2,2 demo net")
    arch.add_argument("--dims", help="full width chain, e.g. 2,5,5,2,2,2,2")
    tr.add_argument("--lr", type=float, default=0.05)
    tr.add_argument("--epochs", type=int, default=500)
    tr.add_argument("--batch-size", type=int, default=32)
    tr.add_argument("--seed", type=int, default=0, help="seeds both init and shuffling")
    tr.add_argument("--target-accuracy", type=float, default=0.999)
    tr.add_argument("-o", "--out", required=True, help="output model JSON")
    tr.add_argument("--history", default=None, help="history CSV (default <out>_history.csv)")
    tr.set_defaults(func=cmd_train)

    trc = sub.add_parser("trace", help="per-layer activation clouds as SVGs")
    trc.add_argument("model")
    trc.add_argument("data")
    trc.add_argument("--out-dir", required=True)
    trc.add_argument("--knn", type=int, default=10, help="isomap neighborhood size (default 10)")
    trc.add_argument("--include-pre", action="store_true", help="also record pre-activation stages")
    trc.set_defaults(func=cmd_trace)

    chk = sub.add_parser("check-sep", help="Voronoi criterion + disc certificate")
    chk.add_argument("model")
    chk.add_argument("data")
    chk.add_argument("--out", default=None, help="write the report to this path")
    chk.add_argument("--format", choices=["json", "csv"], default="json")
    chk.set_defaults(func=cmd_check_sep)

    wit = sub.add_parser("witness", help="kernel witness for a bottleneck first layer")
    wit.add_argument("model")
    wit.add_argument("--inner-r", type=float, default=0.5, help="|p1| (default 0.5)")
    wit.add_argument("--outer-r", type=float, default=1.5, help="|p2| (default 1.5)")
    wit.add_argument("--out", default=None, help="write the witness JSON to this path")
    wit.set_defaults(func=cmd_witness)

    swp = sub.add_parser("sweep-bottleneck", help="accuracy vs first-layer width")
    swp.add_argument("data")
    swp.add_argument("--widths", default="1,2,3,4,5")
    swp.add_argument("--seeds", type=int, default=5, help="seeds per width (default 5)")
    swp.add_argument("--seed", type=int, default=0, help="base seed")
    swp.add_argument("--epochs", type=int, default=500)
    swp.add_argument("--lr", type=float, default=0.05)
    swp.add_argument("--batch-size", type=int, default=32)
    swp.add_argument("--target-accuracy", type=float, default=0.99)
    swp.add_argument("-o", "--out", required=True, help="output CSV")
    swp.set_defaults(func=cmd_sweep)

    iso = sub.add_parser("isomap", help="embed a dataset to low dimension")
    iso.add_argument("data")
    iso.add_argument("--knn", type=int, default=10)
    iso.add_argument("--target-dim", type=int, default=3)
    iso.add_argument("--format", choices=["json", "csv"], default="json")
    iso.add_argument(
        "--largest-component",
        action="store_true",
        help="drop everything outside the largest kNN-graph component first",
    )
    iso.add_argument("--out-dir", required=True)
    iso.set_defaults(func=cmd_isomap)

    ury = sub.add_parser("urysohn", help="sample and plot the metric separator field")
    ury.add_argument("data", help="2-D dataset JSON")
    ury.add_argument("--grid-extent", type=float, default=2.5, help="half-width > 0 (default 2.5)")
    ury.add_argument(
        "--grid-size", type=int, default=101, help=f"per axis, 1 to {MAX_GRID_SIZE} (default 101)"
    )
    ury.add_argument("--out-dir", required=True)
    ury.set_defaults(func=cmd_urysohn)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DisconnectedError, NumericalError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    except (TopoclassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
