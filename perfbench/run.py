#!/usr/bin/env python3
"""The repo benchmark: builds the C core, runs one workload, checks it.

    python3 perfbench/run.py --workload live-scan --seed 1 --seconds 25 --trace 0

Workloads (each a closed loop with one client thread and one worker):

* ``live-scan``: ``detect`` in process on the compiled core, frame after
  frame, over probe-tilt sweeps of distinct 300 x 600 frames.
* ``tune``: ``evaluate`` (topol, 3-fold manifest) and then ``gridsearch``
  over epsilon x tau, both through ``cli.main`` on a dataset on disk.
* ``fallback-scan``: the live-scan stream, shorter sweeps, on the pure
  numpy backend.

Each run first sets up ``SETUP_REPS`` times, each time in a fresh
interpreter (build the core from ``src/``, import the package, make the
inputs, detect one frame), and reports the median as ``setup_s``.  It then
measures whole passes until ``--seconds`` of measured time have run,
checks every output, re-runs a few frames on the other backend for
bit-identity, and prints one JSON line last: the end-to-end metrics with
``--trace 0``, the per-layer metrics from alternating traced and
untraced passes with ``--trace 1``.  Everything it writes goes under
``.bench_build/`` and is removed at exit.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORE = "toposhadow._kernels._core"
KERNELS = ("correlate1d_replicate", "thin_points", "rips_triangles", "occurrence_counts")

BACKEND = {"live-scan": "compiled", "tune": "compiled", "fallback-scan": "pure"}
SWEEP_FRAMES = {"live-scan": 100, "fallback-scan": 40}
SETUP_REPS = 3
PARITY_FRAMES = 3
TUNE_FRAMES = 20
GRID = {"epsilon": [50.0, 60.0, 70.0], "tau": [1.0, 2.0, 3.0]}  # holds the defaults


class BenchError(Exception):
    """The benchmark cannot run here (missing source, failed build)."""


class _BuiltCore(importlib.abc.MetaPathFinder):
    """Resolve the compiled core to the copy this run built."""

    def __init__(self, path):
        self.path = str(path)

    def find_spec(self, name, path, target=None):
        if name == CORE:
            return importlib.util.spec_from_file_location(name, self.path)
        return None


def build_core(dest):
    """Compile ``_coremodule.c`` out of tree; return (library, compile line)."""
    dest.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(dest), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "setup.py", "build_ext",
           "--build-lib", str(dest / "lib"), "--build-temp", str(dest / "tmp")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    built = sorted((dest / "lib").glob("toposhadow/_kernels/_core.*"))
    if not built:
        lines = [ln for ln in (proc.stderr + proc.stdout).splitlines() if ln.strip()]
        raise BenchError("C core not built: " + (lines[-1] if lines else f"exit {proc.returncode}"))
    compile_line = next(
        (ln for ln in proc.stdout.splitlines() if "_coremodule.c" in ln and " -c " in ln), "?"
    )
    return built[0], compile_line


def import_package(workload, core):
    """Import toposhadow from ``src/`` on the workload's backend."""
    os.environ["TOPOSHADOW_KERNELS"] = BACKEND[workload]
    sys.meta_path.insert(0, _BuiltCore(core))
    sys.path.insert(0, str(ROOT / "src"))
    import toposhadow.cli  # noqa: F401

    return sys.modules["toposhadow"]


def prepare(workload, seed, core, workdir):
    """The set-up a run repeats: import, make the inputs, detect one frame."""
    pkg = import_package(workload, core)
    if workload == "tune":
        frames, entries = inputs.dataset(seed, TUNE_FRAMES)
        inputs.write_dataset(frames, entries, workdir / "data")
        state = {"frames": frames, "entries": entries, "data": workdir / "data"}
        warm = next(iter(frames.values()))[0]
    else:
        stream = inputs.TiltStream(seed, SWEEP_FRAMES[workload])
        state = {"stream": stream}
        warm = stream.sweep(0)[0][0]
    pkg.detect(warm)
    return pkg, state


def time_setup(args, workdir):
    """Run the set-up SETUP_REPS times in fresh interpreters; return
    (median seconds, last core, compile line)."""
    times = []
    for rep in range(SETUP_REPS):
        repdir = workdir / f"setup{rep}"
        start = time.perf_counter()
        core, compile_line = build_core(repdir / "build")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--prepare", str(repdir), "--core", str(core)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times), core, compile_line


@contextlib.contextmanager
def swapped_backend(kernels, name):
    """Point the kernel dispatch table at backend ``name`` for a while."""
    impl = kernels.get_backend(name)
    saved = {n: getattr(kernels, n) for n in KERNELS}
    for n in KERNELS:
        setattr(kernels, n, getattr(impl, n))
    try:
        yield
    finally:
        for n, fn in saved.items():
            setattr(kernels, n, fn)


class Run:
    """Counters and pass timings of one run."""

    def __init__(self, seconds, traced):
        self.seconds = seconds
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.passes = []  # (traced?, wall seconds, label vectors, Tracer or None)
        self.frame_ms = []  # untraced per-frame detect times, scan workloads

    def passes_to_run(self):
        """Yield (index, traced?) until the measured time is used up; a
        traced run alternates untraced and traced passes, in pairs."""
        index = 0
        while True:
            measured = sum(p[1] for p in self.passes)
            pair_done = not self.traced or index % 2 == 0
            if index > 0 and measured >= self.seconds and pair_done:
                return
            yield index, self.traced and index % 2 == 1
            index += 1


def run_scan(pkg, state, run):
    """Closed loop over tilt sweeps: each frame starts when the last ended."""
    stream = state["stream"]
    epsilon = pkg.Params().epsilon
    hits = total = 0
    kept = []  # (frame, labels, confidence) of the first frames, for parity
    for index, traced in run.passes_to_run():
        frames = stream.sweep(index)
        means, wall = [], 0.0
        tracer = tracing.Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            for img, truth in frames:
                run.attempted += 1
                start = time.perf_counter()
                try:
                    res = pkg.detect(img)
                except Exception as exc:  # an operation failed; count it and go on
                    run.failed += 1
                    run.errors.append(f"detect raised {exc!r}")
                    continue
                elapsed = time.perf_counter() - start
                wall += elapsed
                if not traced:
                    run.frame_ms.append(1000.0 * elapsed)
                means.append(res.mean_confidence)
                hits += int(np.count_nonzero(res.labels == truth))
                total += len(truth)
                run.errors += checks.check_frame(res.labels, res.confidence, truth, epsilon)
                if len(kept) < PARITY_FRAMES:
                    kept.append((img, res.labels.copy(), res.confidence.copy()))
        run.passes.append((traced, wall, len(means), tracer))
        if len(means) == len(frames):
            run.errors += [f"sweep {index}: {e}" for e in checks.check_trajectory(means)]
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.errors += checks.check_accuracy(hits, total, "scan")
    return kept


def tune_commands(data):
    grid = [f"--grid={name}=" + ",".join(f"{v:g}" for v in values) for name, values in GRID.items()]
    evaluate = ["evaluate", "--dataset", str(data), "--folds", str(data / "folds.txt"),
                "--method", "topol", "--workers", "1"]
    return evaluate, ["gridsearch", "--dataset", str(data), *grid, "--workers", "1"]


def run_tune(pkg, state, run):
    """Closed loop of evaluate-then-gridsearch passes through cli.main."""
    entries = state["entries"]
    n_frames = len(state["frames"])
    defaults = pkg.Params()
    if defaults.epsilon not in GRID["epsilon"] or defaults.tau not in GRID["tau"]:
        run.errors.append("the default parameters are not in the grid")
    combos = 1
    for values in GRID.values():
        combos *= len(values)
    commands = list(zip(tune_commands(state["data"]), (len(entries), n_frames * combos)))
    first = None
    for index, traced in run.passes_to_run():
        outputs, wall, vectors = [], 0.0, 0
        tracer = tracing.Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            for argv, n_vectors in commands:
                run.attempted += n_vectors
                out = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out):
                        code = pkg.cli.main(argv)
                except Exception as exc:  # an operation failed; count it and go on
                    code = repr(exc)
                wall += time.perf_counter() - start
                if code != 0:
                    run.failed += n_vectors
                    run.errors.append(f"{argv[0]} failed: {code}")
                else:
                    vectors += n_vectors
                outputs.append(out.getvalue())
        run.passes.append((traced, wall, vectors, tracer))
        if first is None:
            first = outputs
        elif outputs != first:
            run.errors.append(f"pass {index} printed other output than pass 0")
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cells = {}
    for _, _, fold, role in entries:
        cells[(fold, role)] = cells.get((fold, role), 0) + 1
    errors, (tp, tn, fp, fn) = checks.check_evaluate(first[0], cells, inputs.W)
    run.errors += errors
    run.errors += checks.check_accuracy(tp + tn, tp + tn + fp + fn, "evaluate unseen rows")
    run.errors += checks.check_gridsearch(first[1], GRID, (tp + tn) / (tp + tn + fp + fn))


def check_parity(pkg, workload, kept, run):
    """Re-run the first frames on the other backend: labels and confidence
    must be bit-identical."""
    other = "pure" if BACKEND[workload] == "compiled" else "compiled"
    with swapped_backend(pkg._kernels, other):
        for i, (img, labels, confidence) in enumerate(kept):
            res = pkg.detect(img)
            if not (np.array_equal(res.labels, labels)
                    and res.confidence.tobytes() == confidence.tobytes()):
                run.errors.append(f"frame {i}: {other} backend output differs")


def end_to_end(run, workload, setup_s):
    untraced = [p for p in run.passes if not p[0]]
    walls = [p[1] for p in untraced]
    vectors = sum(p[2] for p in untraced)
    if workload == "tune":
        frame_ms = [1000.0 * p[1] / p[2] for p in untraced]
    else:
        frame_ms = run.frame_ms
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "frames_per_s": (vectors / sum(walls), "1/s"),
        "frame_p50_ms": (statistics.median(frame_ms), "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


def per_layer(run):
    untraced = [p for p in run.passes if not p[0]]
    traced = [p for p in run.passes if p[0]]
    snaps = [(p[3], p[2]) for p in traced]

    def per_vector_ms(*names):
        return statistics.median(1000.0 * t.seconds(*names) / v for t, v in snaps)

    def per_pass(scale, *names):
        return statistics.median(scale * t.seconds(*names) for t, _ in snaps)

    first, first_vectors = snaps[0]
    calls, sizes = first.calls, first.sizes
    overhead = statistics.median(p[1] for p in traced) / statistics.median(
        p[1] for p in untraced) - 1.0
    return {
        "saliency.filter_stack_ms": (per_vector_ms("saliency.filter_stack"), "ms"),
        "saliency.std_map_ms": (per_vector_ms("saliency.std_map"), "ms"),
        "saliency.threshold_ms": (per_vector_ms("saliency.threshold_points"), "ms"),
        "sparsify.density_field_ms": (per_vector_ms("sparsify.density_field"), "ms"),
        "sparsify.thin_ms": (per_vector_ms("sparsify.thin"), "ms"),
        "topology.rips_ms": (per_vector_ms("topology.rips_triangles"), "ms"),
        "topology.occurrence_ms": (per_vector_ms("topology.occurrence_map"), "ms"),
        "topology.confidence_ms": (
            per_vector_ms("topology.confidence_map", "topology.mean_confidence"), "ms"),
        "classify.labels_ms": (
            per_vector_ms("classify.scanline_counts", "classify.classify_scanlines"), "ms"),
        "classify.detect_self_ms": (per_vector_ms("classify.detect"), "ms"),
        "kernels.correlate1d_ms": (per_vector_ms("kernels.correlate1d"), "ms"),
        "kernels.thin_points_ms": (per_vector_ms("kernels.thin_points"), "ms"),
        "kernels.rips_triangles_ms": (per_vector_ms("kernels.rips_triangles"), "ms"),
        "kernels.occurrence_counts_ms": (per_vector_ms("kernels.occurrence_counts"), "ms"),
        "kernels.correlate1d_calls": (
            calls.get("kernels.correlate1d", 0) / first_vectors, "count"),
        "evaluation.detect_calls": (calls.get("classify.detect", 0), "count"),
        "evaluation.frontend_reuse": (
            len(first.frontend) / max(1, calls.get("saliency.filter_stack", 0)), "ratio"),
        "evaluation.evaluate_folds_s": (per_pass(1.0, "evaluation.evaluate_folds"), "s"),
        "evaluation.grid_search_s": (per_pass(1.0, "evaluation.grid_search"), "s"),
        "frame_io.load_ms": (per_pass(1000.0, "frame_io.load_dataset", "frame_io.load_image",
                                      "frame_io.load_labels"), "ms"),
        "cli.self_ms": (per_pass(1000.0, "cli.main"), "ms"),
        "saliency.cloud_points": (sizes.get("saliency.cloud_points", 0), "count"),
        "sparsify.thinned_points": (sizes.get("sparsify.thinned_points", 0), "count"),
        "topology.triangles": (sizes.get("topology.triangles", 0), "count"),
        "topology.cap_headroom": (first.headroom or 0, "count"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }


def describe(pkg, core, compile_line):
    print(f"workload backend: {pkg._kernels.BACKEND}")
    print(f"core: {Path(core).relative_to(ROOT)}")
    print(f"nproc: {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    print(f"python: {platform.python_version()}  numpy: {np.__version__}")
    print(f"compile: {compile_line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BACKEND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--core", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.prepare is not None:  # one timed set-up, in its own interpreter
        prepare(args.workload, args.seed, args.core, args.prepare)
        return 0

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src/toposhadow/__init__.py").is_file():
        print(f"error: no toposhadow source tree at {ROOT}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        setup_s, core, compile_line = time_setup(args, workdir)
        pkg, state = prepare(args.workload, args.seed, core, workdir / "main")
        describe(pkg, core, compile_line)
        run = Run(args.seconds, bool(args.trace))
        if args.workload == "tune":
            run_tune(pkg, state, run)
        else:
            kept = run_scan(pkg, state, run)
            check_parity(pkg, args.workload, kept, run)
        metrics = per_layer(run) if args.trace else end_to_end(run, args.workload, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in run.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
