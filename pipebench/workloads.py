"""The three workloads: CLI calls made in set-up, and the calls of one pass.

Every workload is one closed-loop client: one caller runs the commands of a
pass in order, each after the previous one returns.  The program receives
only the generated files and flags.  The workload seed goes to
``gen --seed``, so it varies the data; every command that trains keeps the
README's training seed 0.  The training seed decides whether a paper net's
ReLUs die and it runs all 500 epochs at chance accuracy (about one seed in
ten when both seeds vary), which would change a tour pass by half; with the
initialisation fixed, the passes of different seeds differ only as their
data do.

How much work a data set takes still depends on the data: the tour's paper
net reaches accuracy 1 within 29 to 125 epochs on 39 of data seeds 0-39,
and not within the default 500 on the other, which alone would make a
tour pass a third longer; the tour caps it at 100 epochs, and a net that
stops short exits 1, as the CLI documents.  The Jacobi eigensolve of
``trace`` takes a different number of sweeps on each data set.  So
``tour`` runs its commands on two data sets per pass and ``trace`` on
four, from data seeds ``d*s`` to ``d*s + d - 1`` for workload seed ``s``
and ``d`` data sets.  ``sweep`` caps training at 20 epochs: over data seeds
0-24 its 25 nets then run 436 to 478 epochs in all, where at 100 epochs a
data seed could cost a fifth more than another.

* ``tour``: the README quick tour at README size (500 points per class)
  without ``trace``, ``sweep-bottleneck`` and ``isomap``, then a 4-class
  leg.  The mixed, user-shaped load: training, the Urysohn grid and
  heatmap, and the minimum enclosing ball.  The 4-class leg's 4-D outputs
  take the core-set MEB path instead of Welzl, and ``urysohn_multiclass``
  instead of ``urysohn_binary``, so a change that speeds one path and slows
  the other shows.
* ``trace``: ``trace --knn 10`` on four paper-net models, each trained for
  100 epochs on a 40-per-class annulus made in set-up.
  Almost all Isomap: two 5-D stages, each a kNN graph, all-pairs geodesics
  and the MDS eigensolve.  At README size one call takes minutes, and at
  100 per class 12 to 15 s.  Calls of under 2 s let the reference loop the
  runner times between calls follow the host's changes of speed.
* ``sweep``: ``sweep-bottleneck --widths 1,2,3,4,5 --seeds 5 --epochs 20``
  at README size on an annulus made in set-up.  Almost all small-matrix
  SGD steps (about 15,000 a pass), where Python overhead dominates; no
  Isomap and a single witness, so it bypasses what ``trace`` stresses.
"""

from dataclasses import dataclass
from pathlib import Path

from pipebench import checks

ANNULUS_BANDS = ((0.0, 0.9), (1.0, 2.0))
SHELL_BANDS = ((0.0, 0.5), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5))
SWEEP_WIDTHS = (1, 2, 3, 4, 5)
TRACE_KNN = 10
TRACE_N = 40  # points per class
TRACE_EPOCHS = 100
SWEEP_EPOCHS = 20
TOUR_DATA_SETS = 2  # per pass
TOUR_EPOCHS = 100  # the paper net's budget
TRACE_DATA_SETS = 4
TRAIN_SEED = 0
# every subcommand a workload runs
COMMANDS = ("gen", "train", "check-sep", "witness", "urysohn", "trace", "sweep-bottleneck")


@dataclass(frozen=True)
class Step:
    """One CLI call: its argv, documented exit codes, outputs and check."""

    command: str  # the subcommand; names the cmd.<command>_s metric
    argv: tuple
    exits: frozenset  # exit codes documented for this input
    outputs: tuple  # files and directories the call writes
    check: object  # checks.* closure: (code, stdout) -> list of problems


@dataclass(frozen=True)
class Workload:
    setup: tuple  # steps that make the fixture files
    steps: tuple  # steps of one pass


def _gen(out, seed, n, bands):
    if bands == ANNULUS_BANDS:
        geometry = ["--annulus"]
    else:
        spec = ",".join(f"{lo:g}:{hi:g}" for lo, hi in bands)
        geometry = ["--shells", "--dim", "2", "--bands", spec]
    return Step(
        "gen",
        ("gen", *geometry, "--n", str(n), "--seed", str(seed), "-o", str(out)),
        frozenset({0}),
        (out,),
        checks.gen(out, bands, n),
    )


def _train(data, out, arch, target, exits=frozenset({0, 1})):
    history = out.with_name(out.stem + "_history.csv")
    argv = ("train", str(data), *arch, "--seed", str(TRAIN_SEED))
    if target != 0.999:  # the CLI default
        argv += ("--target-accuracy", f"{target:g}")
    return Step(
        "train",
        argv + ("-o", str(out)),
        exits,
        (out, history),
        checks.train(out, history, target),
    )


def _check_sep(model, data, out, class_count):
    return Step(
        "check-sep",
        ("check-sep", str(model), str(data), "--out", str(out)),
        frozenset({0, 1}),
        (out,),
        checks.separation(out, class_count),
    )


def _urysohn(data, out_dir):
    return Step(
        "urysohn",
        ("urysohn", str(data), "--out-dir", str(out_dir)),
        frozenset({0}),
        (out_dir,),
        checks.urysohn(data, out_dir),
    )


def tour(seed, fixtures, work):
    steps = ()
    for j in range(TOUR_DATA_SETS):
        data_seed = seed * TOUR_DATA_SETS + j
        annulus, model = work / f"annulus{j}.json", work / f"model{j}.json"
        narrow, witness = work / f"narrow{j}.json", work / f"witness{j}.json"
        shells, model4 = work / f"shells4_{j}.json", work / f"model4_{j}.json"
        steps += (
            _gen(annulus, data_seed, 500, ANNULUS_BANDS),
            _train(annulus, model, ("--paper-net", "--epochs", str(TOUR_EPOCHS)), 1.0),
            _check_sep(model, annulus, work / f"report{j}.json", 2),
            # a one-row first layer cannot separate the shells: documented exit 1
            _train(annulus, narrow, ("--dims", "2,1,2"), 0.999, frozenset({1})),
            Step(
                "witness",
                ("witness", str(narrow), "--out", str(witness)),
                frozenset({0}),
                (witness,),
                checks.witness(witness, narrow),
            ),
            _urysohn(annulus, work / f"field{j}"),
            _gen(shells, data_seed, 250, SHELL_BANDS),
            _train(shells, model4, ("--dims", "2,16,16,4"), 0.999),
            _check_sep(model4, shells, work / f"report4_{j}.json", 4),
            _urysohn(shells, work / f"field4_{j}"),
        )
    return Workload(setup=(), steps=steps)


def trace(seed, fixtures, work):
    setup, steps = (), ()
    for j in range(TRACE_DATA_SETS):
        annulus, model = fixtures / f"annulus{j}.json", fixtures / f"model{j}.json"
        out_dir = work / f"trace{j}"
        setup += (
            _gen(annulus, seed * TRACE_DATA_SETS + j, TRACE_N, ANNULUS_BANDS),
            # a fixed epoch budget, which no seed tried reaches the target
            # within, makes set-up the same work on every seed
            _train(annulus, model, ("--paper-net", "--epochs", str(TRACE_EPOCHS)), 1.0),
        )
        steps += (
            Step(
                "trace",
                ("trace", str(model), str(annulus), "--knn", str(TRACE_KNN),
                 "--out-dir", str(out_dir)),
                frozenset({0}),
                (out_dir,),
                checks.trace(out_dir, model, TRACE_KNN),
            ),
        )
    return Workload(setup=setup, steps=steps)


def sweep(seed, fixtures, work):
    annulus, out = fixtures / "annulus.json", work / "sweep.csv"
    widths = ",".join(str(w) for w in SWEEP_WIDTHS)
    step = Step(
        "sweep-bottleneck",
        ("sweep-bottleneck", str(annulus), "--widths", widths, "--seeds", "5",
         "--epochs", str(SWEEP_EPOCHS), "--seed", str(TRAIN_SEED), "-o", str(out)),
        frozenset({0}),
        (out,),
        checks.sweep(out, SWEEP_WIDTHS, 2),
    )
    return Workload(setup=(_gen(annulus, seed, 500, ANNULUS_BANDS),), steps=(step,))


WORKLOADS = {"tour": tour, "trace": trace, "sweep": sweep}


def purpose(name, m):
    """What the traced run must show for the workload to do its job.

    ``m`` holds the traced per-layer metrics; returns (ok, description).
    """
    if name == "trace":
        share = m["layer.isomap.share"] + m["layer.numerics.share"]
        return share >= 0.9, f"isomap+numerics self time covers {share:.1%} of cmd.trace_s"
    if name == "sweep":
        cmd = m["cmd.sweep-bottleneck_s"]
        share = m["training.train.total_s"] / cmd if cmd else 0.0
        return share >= 0.9, f"training.train covers {share:.1%} of cmd.sweep-bottleneck_s"
    shares = {layer: m[f"layer.{layer}.share"] for layer in ("training", "topology", "svg")}
    coreset = m["topology.meb_coreset.calls"]
    ok = all(v > 0.0 for v in shares.values()) and coreset > 0
    text = ", ".join(f"{layer} {v:.1%}" for layer, v in shares.items())
    return ok, f"self-time shares {text}; meb_coreset.calls {coreset:g}"


def step_of(steps, path):
    """The step that declared ``path`` (a file or a file under a directory)."""
    path = Path(path)
    for step in steps:
        for out in step.outputs:
            if path == out or out in path.parents:
                return step
    return None
