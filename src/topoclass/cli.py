"""topoclass command line: experiments end to end, files out.

Subcommands: gen, train, trace, check-sep, witness, sweep-bottleneck,
isomap, urysohn.  Exit codes: 0 success, 1 quality failure (target not
reached, separation not achieved, disconnected graph, a result outside its
numerical contract), 2 usage, schema or unreadable-path error, 3
precondition not applicable.  Every command is a pure function of its
flags; rerunning with the same flags rewrites byte-identical files.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import network as net_mod
from . import topology as topo_mod
from . import training as train_mod
from .errors import ConfigError, DisconnectedError, NumericalError, SpecError, TopoclassError
from .isomap import (
    embedding_to_csv,
    embedding_to_json,
    isomap as isomap_embed,
    # not called here: pipebench's wrap test checks that tracing reaches
    # names cli imports directly, and it uses this one
    knn_graph,  # noqa: F401
    largest_component_indices,
)
from .numerics import make_rng
from .svg import heatmap_svg, scatter_svg

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3


def _sweep_dims(in_dim, width, class_count):
    # first-layer width under test, then a tail wide enough that downstream
    # capacity never confounds the bottleneck effect
    return (in_dim, width, 8, 8, class_count)


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


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


def _parse_dims(text):
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError as exc:
        raise SpecError(f"--dims must be a comma list of integers, got {text!r}") from exc
    return dims


def cmd_gen(args):
    if args.annulus:
        cloud = data_mod.gen_annulus2d(args.n, args.seed)
    else:
        cloud = data_mod.gen_nested_shells(args.dim, _parse_bands(args.bands), args.n, args.seed)
    data_mod.save_cloud(cloud, args.out)
    if args.csv:
        data_mod.cloud_to_csv(cloud, args.csv)
    print(f"wrote {args.out}: {len(cloud)} points in R^{cloud.dim}, {cloud.class_count} classes")
    for k, (count, lo, hi) in enumerate(data_mod.class_norm_ranges(cloud)):
        print(f"  class {k}: {count} points, norms in [{lo:.6f}, {hi:.6f}]")
    return EXIT_OK


def cmd_train(args):
    cloud = data_mod.load_cloud(args.data)
    dims = net_mod.PAPER_NET_DIMS if args.paper_net else _parse_dims(args.dims)
    if dims[0] != cloud.dim or dims[-1] != cloud.class_count:
        raise ConfigError(
            f"--dims {dims} does not match data (dim {cloud.dim}, "
            f"{cloud.class_count} classes)"
        )
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
    k = min(k_start, n - 1)
    while True:
        try:
            return isomap_embed(points, k, 3), k
        except DisconnectedError:
            if k >= n - 1:
                raise
            k = min(2 * k, n - 1)


def cmd_trace(args):
    net = net_mod.load_model(args.model)
    cloud = data_mod.load_cloud(args.data)
    trace = net_mod.forward_trace(net, cloud, include_pre=args.include_pre)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    index = []
    for i, (name, points) in enumerate(trace.stages):
        dim = points.shape[1]
        entry = {"index": i, "name": name, "dim": dim, "projected": dim > 3}
        plotted = points
        if dim > 3:
            result, k_used = _project_stage(points, args.knn)
            plotted = result.coordinates
            entry["knn"] = k_used
            entry["stress"] = result.stress
        svg_name = f"stage_{i:02d}_{name}.svg"
        title = f"stage {i}: {name} (dim {dim})" + (" via isomap" if dim > 3 else "")
        (out_dir / svg_name).write_text(
            scatter_svg(plotted, trace.labels, title), encoding="utf-8"
        )
        entry["svg"] = svg_name
        index.append(entry)
    _write_json({"stages": index}, out_dir / "index.json")
    print(f"wrote {len(index)} stage SVGs and index.json to {out_dir}")
    return EXIT_OK


def cmd_check_sep(args):
    net = net_mod.load_model(args.model)
    cloud = data_mod.load_cloud(args.data)
    report = topo_mod.full_separability_report(net, cloud)
    if args.out:
        if args.format == "json":
            _write_json(report.to_jsonable(), args.out)
        else:
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["index", "assigned", "true"])
                for idx, assigned, true in report.violating_points:
                    writer.writerow([idx, "" if assigned is None else assigned, true])
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
    f1_p1 = net_mod.forward_batch(
        net_mod.Mlp(layers=(first,)), witness.p1[np.newaxis, :]
    )[0]
    f1_p2 = net_mod.forward_batch(
        net_mod.Mlp(layers=(first,)), witness.p2[np.newaxis, :]
    )[0]
    out_p1 = net_mod.forward(net, witness.p1)
    out_p2 = net_mod.forward(net, witness.p2)
    payload = witness.to_jsonable()
    payload["first_layer_image_p1"] = f1_p1.tolist()
    payload["first_layer_image_p2"] = f1_p2.tolist()
    payload["net_output_p1"] = out_p1.tolist()
    payload["net_output_p2"] = out_p2.tolist()
    payload["net_output_diff"] = float(np.abs(out_p1 - out_p2).max())
    if args.out:
        _write_json(payload, args.out)
    print(json.dumps(payload))
    return EXIT_OK


def run_bottleneck_sweep(cloud, widths, seeds, base_seed, lr, epochs, batch_size, target):
    """Train first-layer-width variants; per width, keep the best accuracy.

    Returns one dict per width (ordered by width) with the best accuracy
    over the seeds and, when the width is an actual bottleneck, a kernel
    witness from the best net's first layer.
    """
    rows = []
    for width in widths:
        dims = _sweep_dims(cloud.dim, width, cloud.class_count)
        seed_accs = []
        best_net = None
        for s in range(seeds):
            seed = base_seed + s
            net = net_mod.build_relu_net(dims, make_rng(seed))
            cfg = train_mod.TrainConfig(
                learning_rate=lr,
                epochs=epochs,
                batch_size=batch_size,
                seed=seed,
                target_accuracy=target,
            )
            trained, history = train_mod.train(net, cloud, cfg)
            acc = max(history.accuracies)
            if best_net is None or acc > max(seed_accs):
                best_net = trained
            seed_accs.append(acc)
        row = {
            "width": width,
            "best_accuracy": max(seed_accs),
            "seed_accuracies": seed_accs,
            "witness": None,
        }
        if width < cloud.dim:
            row["witness"] = topo_mod.kernel_witness(best_net.layers[0].weight)
        rows.append(row)
    return rows


def cmd_sweep(args):
    cloud = data_mod.load_cloud(args.data)
    widths = [int(w) for w in args.widths.split(",")]
    if any(w < 1 for w in widths):
        raise SpecError("widths must be positive")
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
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["width", "best_accuracy", "witness_gap", "witness_p1", "witness_p2"])
        for row in rows:
            witness = row["witness"]
            writer.writerow(
                [
                    row["width"],
                    repr(float(row["best_accuracy"])),
                    "" if witness is None else repr(float(witness.output_gap)),
                    "" if witness is None else ";".join(repr(float(x)) for x in witness.p1),
                    "" if witness is None else ";".join(repr(float(x)) for x in witness.p2),
                ]
            )
    for row in rows:
        print(f"width {row['width']}: best accuracy {row['best_accuracy']:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_isomap(args):
    cloud = data_mod.load_cloud(args.data)
    points = cloud.points
    labels = cloud.labels
    if args.largest_component:
        keep = largest_component_indices(points, args.knn)
        points = points[keep]
        labels = labels[keep]
    result = isomap_embed(points, args.knn, args.target_dim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        embedding_to_json(result, out_dir / "embedding.json")
    else:
        embedding_to_csv(result, out_dir / "embedding.csv", labels=labels)
    svg = scatter_svg(result.coordinates, labels, f"isomap k={args.knn} (stress {result.stress:.3g})")
    (out_dir / "embedding.svg").write_text(svg, encoding="utf-8")
    print(f"embedded {points.shape[0]} points to R^{args.target_dim}; stress {result.stress:.6g}")
    return EXIT_OK


def cmd_urysohn(args):
    cloud = data_mod.load_cloud(args.data)
    if cloud.dim != 2:
        raise SpecError("urysohn maps are rendered for 2-D data only")
    classes = cloud.split_by_class()
    if cloud.class_count == 2:
        field = topo_mod.urysohn_binary(classes[0], classes[1])
    else:
        field = topo_mod.urysohn_multiclass(classes)

    extent = args.grid_extent
    size = args.grid_size
    xs = np.linspace(-extent, extent, size)
    ys = np.linspace(-extent, extent, size)
    grid = np.array([[x, y] for y in ys for x in xs])
    values = field(grid).reshape(size, size)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "field.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(values[j, i]))])
    (out_dir / "field.svg").write_text(
        heatmap_svg(xs, ys, values, f"urysohn separator ({cloud.class_count} classes)"),
        encoding="utf-8",
    )
    for k in range(cloud.class_count):
        on_class = field(cloud.class_points(k))
        print(f"class {k}: field in [{on_class.min():.3g}, {on_class.max():.3g}] (target {k})")
    print(f"wrote field.csv and field.svg to {out_dir}")
    return EXIT_OK


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
    ury.add_argument("--grid-extent", type=float, default=2.5, help="half-width (default 2.5)")
    ury.add_argument("--grid-size", type=int, default=101, help="samples per axis (default 101)")
    ury.add_argument("--out-dir", required=True)
    ury.set_defaults(func=cmd_urysohn)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DisconnectedError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    except (TopoclassError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
