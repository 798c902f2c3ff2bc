"""Pipeline benchmark: drive the topoclass CLI in-process, check every output.

    python3 pipebench/run.py --workload tour --seed 0 --seconds 25 --trace 0
    python3 pipebench/run.py --workload all          # every workload, one process each

One closed-loop client calls ``topoclass.cli.main(argv)`` for each command of
a pass and waits for it to return; passes repeat until ``run_seconds`` of
``BENCHMARK.json`` have been measured, and at least twice, so that the
second pass can show it rewrote byte-identical files; a ``--seconds``
given on the command line must equal ``run_seconds``.  Set-up (process
start, ``import topoclass`` and the workload's fixture files) runs several
times in fresh child processes, and its median is ``setup_s``.

A pass's wall time is ``pass_s``.  The host this benchmark was built on is
shared, and runs the same code up to 1.7 times slower while its neighbours
are busy, so ``pass_s`` of one workload moves by a fifth from run to run.
A short reference loop of plain numpy calls (``reference_seconds``) is
therefore timed between every two commands, and each command's time over
the mean of the loops around it, summed over the pass, is ``pass_ref``:
the pass time in units of the reference loop.  The loop runs no topoclass
code, so a faster program lowers ``pass_ref`` as much as ``pass_s``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes: traced passes wrap the
public functions of every module (see ``tracing``) and report the per-layer
metrics, and the traced pass time against the untraced one is the tracing
overhead.  The last line of standard output is one JSON object; the lines
before it print every metric with its unit and sample count.  Full results,
the environment and the spans go to ``.pipebench/``.  The exit code is 1
when any output check fails.
"""

import os

# one BLAS thread, fixed before numpy loads, in this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench"
SETUP_REPEATS = 15
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60
REFERENCE_CALLS = 6000  # about 0.045 s on a 2-vCPU x86-64 host


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def environment():
    import numpy
    import topoclass

    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": numba_ok,
        "backend": topoclass.BACKEND,
        "commit": _commit(),
    }


def reference_seconds():
    """Seconds this host takes for a fixed piece of work that is not topoclass's.

    The work is what the program's inner loops are made of: numpy calls on
    small matrices, whose time is mostly the interpreter's and numpy's call
    overhead.  A shared host runs everything up to 1.7 times slower while its
    neighbours are busy, in spells of seconds to tens of seconds.  Timed
    right before and after each command, this loop slows with the command,
    so the command's time over the loop's stays steady.  Of the loops tried,
    this one tracked the training and Isomap code best: over a minute of
    alternating calls it cut the quartile spread of a training call from
    0.40 to 0.06, and of a ``trace`` call from 0.27 to 0.09, where a
    pure-Python loop or larger arrays left two to three times as much.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(32, 5)), rng.normal(size=(8, 5))
    start = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        np.maximum(a @ b.T, 0.0).sum()
    return time.perf_counter() - start


def run_step(step, rec=None):
    """One CLI call: (exit code or None on a traceback, seconds, problems).

    With a recorder, the call runs inside a root span named after the
    command; the output check runs after it, outside the timed region.
    """
    from topoclass import cli

    out, err = io.StringIO(), io.StringIO()
    problems = []
    sid = rec.open(f"cli.{step.command}") if rec is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(step.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        problems.append("traceback:\n" + traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        if sid is not None:
            rec.close(sid)
    if code is not None:
        if code not in step.exits:
            problems.append(f"exit {code}, documented {sorted(step.exits)}: {err.getvalue()}")
        try:
            problems += step.check(code, out.getvalue())
        except Exception as exc:  # a corrupt output file fails this call, not the run
            problems.append(f"unreadable output: {exc!r}")
    return code, seconds, problems


def digests(directory):
    """sha256 of every file under ``directory``, keyed by relative path."""
    return {
        path.relative_to(directory): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def output_bytes(step):
    total = 0
    for out in step.outputs:
        if out.is_dir():
            total += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        elif out.is_file():
            total += out.stat().st_size
    return total


def setup_child(name, seed, target):
    """Child process: import topoclass and make the fixture files in ``target``."""
    from pipebench import workloads

    target.mkdir(parents=True, exist_ok=True)
    for step in workloads.WORKLOADS[name](seed, target, target).setup:
        _, _, problems = run_step(step)
        if problems:
            print(f"set-up {' '.join(step.argv)} failed: {problems}", file=sys.stderr)
            return 1
    print(f"ready {time.time()!r}")
    return 0


def measure_setup(name, seed, base):
    """Median set-up time over fresh processes, and the fixture directory."""
    times = []
    dirs = []
    for i in range(SETUP_REPEATS):
        target = base / f"setup{i}"
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-into", str(target)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "ready":
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(lines[-1]) - start)
        dirs.append(target)
    reference = digests(dirs[0])
    for other in dirs[1:]:
        if digests(other) != reference:
            raise RuntimeError(f"set-up in {other.name} wrote different fixture files")
    return times, dirs[0]


def layer_metrics(rec, cmd_times):
    """Per-layer metrics of one traced pass; 0 for what the pass never reached."""
    from pipebench import tracing, workloads

    pass_s = sum(cmd_times.values())
    selfs = tracing.self_times(rec.spans)
    m = dict.fromkeys(tracing.COUNTERS, 0)
    for layer, functions in tracing.LAYERS.items():
        names = [f"{layer}.{fn}" for fn in functions]
        if layer == "topology":
            names.append("topology.field")
        for name in names:
            m[name + ".self_s"] = selfs.get(name, 0.0)
            m[name + ".calls"] = 0
        m[f"layer.{layer}.share"] = sum(selfs.get(n, 0.0) for n in names) / pass_s
    for cmd in workloads.COMMANDS:
        m[f"cmd.{cmd}_s"] = cmd_times.get(cmd, 0.0)
        m[f"cli.{cmd}.self_s"] = selfs.get(f"cli.{cmd}", 0.0)
    m.update(rec.counts)
    m.update(rec.maxima)
    steps = m["training.sgd_steps"]
    m["training.step_us"] = m["training.train.self_s"] / steps * 1e6 if steps else 0.0
    m["training.train.total_s"] = tracing.total_time(rec.spans, "training.train")
    return m


def pass_metrics(cmd_times, cmd_refs, ref_times, written, rec):
    """Metrics of one pass; a traced pass adds the per-layer ones.

    ``cmd_refs`` holds each command's time in reference units, and
    ``ref_times`` the reference loop's times taken between the commands.
    """
    m = {"pass_s": sum(cmd_times.values()), "pass_ref": sum(cmd_refs.values()),
         "host.ref_s": statistics.median(ref_times), "cli.io.bytes_written": written}
    m.update({f"cmd.{cmd}_s": t for cmd, t in cmd_times.items()})
    if rec is not None:
        m.update(layer_metrics(rec, cmd_times))
    return m


def run_pass(steps, work, rec):
    """One pass in a fresh directory.

    Returns seconds per command, the same in reference units (the command's
    time over the mean of the reference loops timed before and after it),
    the reference loop's times, bytes written and problems per step.
    """
    from pipebench import tracing

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd_times, cmd_refs, written, problems = defaultdict(float), defaultdict(float), 0, {}
    ref_times = [reference_seconds()]
    replaced = tracing.install(rec) if rec is not None else []
    try:
        for i, step in enumerate(steps):
            _, seconds, found = run_step(step, rec)
            ref_times.append(reference_seconds())
            cmd_times[step.command] += seconds
            cmd_refs[step.command] += seconds / statistics.fmean(ref_times[-2:])
            written += output_bytes(step)
            if found:
                problems[i] = found
    finally:
        tracing.restore(replaced)
    return dict(cmd_times), dict(cmd_refs), ref_times, written, problems


def changed_files(steps, work, reference):
    """Problems per step, for each file that differs from the first pass's."""
    from pipebench import workloads

    got = digests(work)
    problems = {}
    for rel in sorted(set(got) | set(reference)):
        if got.get(rel) != reference.get(rel):
            step = workloads.step_of(steps, work / rel)
            i = steps.index(step) if step is not None else len(steps) - 1
            problems.setdefault(i, []).append(f"{rel} differs from the first pass")
    return problems


def run_workload(name, seed, seconds, traced):
    """Set up, then run passes.

    Returns (metrics, attempted, failures, untraced passes, spans, run dir);
    metrics map a name to (median over passes, sample count).
    """
    from pipebench import tracing, workloads

    base = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    setup_times, fixtures = measure_setup(name, seed, base)
    work = base / "pass"
    steps = workloads.WORKLOADS[name](seed, fixtures, work).steps

    samples = {False: defaultdict(list), True: defaultdict(list)}  # keyed by "traced pass"
    failures, spans, reference = [], [], None
    started = time.perf_counter()
    pass_no = 0
    reference_seconds()  # warm-up
    while pass_no < MIN_PASSES or time.perf_counter() - started < seconds:
        rec = tracing.Recorder() if traced and pass_no % 2 == 1 else None
        cmd_times, cmd_refs, ref_times, written, problems = run_pass(steps, work, rec)
        if reference is None:
            reference = digests(work)
        else:
            for i, found in changed_files(steps, work, reference).items():
                problems.setdefault(i, []).extend(found)
        failures += [{"pass": pass_no, "argv": list(steps[i].argv), "problems": found}
                     for i, found in sorted(problems.items())]
        if rec is not None:
            spans.append({"pass": pass_no, "spans": rec.spans})
        for key, value in pass_metrics(cmd_times, cmd_refs, ref_times, written, rec).items():
            samples[rec is not None][key].append(value)
        pass_no += 1
    attempted = pass_no * len(steps)

    def summary(table):
        return {k: (statistics.median(v), len(v)) for k, v in table.items()}

    passes = [dict(zip(samples[False], values)) for values in zip(*samples[False].values())]

    metrics = summary(samples[False])
    metrics["setup_s"] = (statistics.median(setup_times), len(setup_times))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    metrics["fail_frac"] = (len(failures) / attempted, attempted)
    if traced:
        untraced = metrics
        metrics = summary(samples[True])
        for key in ("pass_s", "pass_ref"):
            metrics["tracing." + key] = metrics.pop(key)
            metrics[key] = untraced[key]
        metrics["tracing.overhead"] = (metrics["tracing.pass_ref"][0] / untraced["pass_ref"][0],
                                       metrics["tracing.pass_ref"][1])
    return metrics, attempted, failures, passes, spans, base


def unit_of(name, units):
    if name in units:
        return units[name]
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_frac", ".overhead")):
        return "ratio"
    return "count"


def report(name, seed, seconds, traced, bench):
    listed = bench["per_layer"] if traced else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        metrics, attempted, failures, passes, spans, base = run_workload(
            name, seed, seconds, traced)
        failed = len(failures)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for failure in failures:
        print(f"FAILED pass {failure['pass']}: {' '.join(failure['argv'])}", file=sys.stderr)
        for problem in failure["problems"]:
            print(f"  {problem}", file=sys.stderr)
    print(f"{name} seed {seed} trace {int(traced)}: {attempted} calls, {failed} failed")
    for key in sorted(metrics):
        value, n = metrics[key]
        print(f"  {key:<42} {value:>14.6g} {unit_of(key, units):<6} (n={n})")
    if traced:
        from pipebench import workloads

        ok, text = workloads.purpose(name, {k: v for k, (v, _) in metrics.items()})
        print(f"purpose {'confirmed' if ok else 'NOT confirmed'}: {text}")
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed}
    record = {"workload": name, "seed": seed, "trace": int(traced), "env": env,
              "metrics": {k: {"value": v, "unit": unit_of(k, units), "n": n}
                          for k, (v, n) in sorted(metrics.items())},
              "attempted": attempted, "failed": failed, "failures": failures,
              "untraced_passes": passes}
    (base / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        (base / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own fresh process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in ("tour", "trace", "sweep"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                      "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 1 if status or not combined["correct"] else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("tour", "trace", "sweep", "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds in BENCHMARK.json, which fixes the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "topoclass" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no topoclass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import topoclass

    if Path(topoclass.__file__).resolve().parent != SRC / "topoclass":
        print(f"error: imported topoclass from {topoclass.__file__}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        return setup_child(args.workload, args.seed, args.setup_into)
    if args.workload == "all":
        return run_all(args)
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds}, but BENCHMARK.json fixes run_seconds {seconds}",
              file=sys.stderr)
        return 2
    return report(args.workload, args.seed, seconds, bool(args.trace), bench)


if __name__ == "__main__":
    sys.exit(main())
