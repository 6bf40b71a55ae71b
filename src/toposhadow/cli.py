"""Command-line surface: detect, evaluate, trajectory, sweep, gridsearch, synth.

Data outputs (files/stdout) are byte-reproducible; timing and progress
diagnostics go to stderr.  Exit codes: 0 success, 1 usage, 2 I/O,
3 data/format, 4 resource exhaustion (triangle cap or out of memory).
"""

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import frame_io
from .baseline import select_kappa, thresh_classify
from .classify import detect
from .errors import FormatError, TriangleCapError
from .evaluation import (
    RATIOS,
    evaluate_folds,
    fit_normal_target,
    grid_search,
    load_folds,
    oracle_predictor,
    perturb_sweep,
    topol_predictor,
    trajectory_rmse,
    write_folds,
)
from .saliency import PARAM_FIELDS, Params, field_value
from .synth import PhantomSpec, make_dataset, synth_tilt_sequence

_METHODS = ("topol", "thresh", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _workers(text):
    """The value of ``--workers``: a whole number of threads, at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


_WORKERS_HELP = (
    "frames run on this many threads (default 1); at 1 frames are reported "
    "one at a time in order, on two threads: the calling thread builds each "
    "deviation map while a helper finishes the one before; at N >= 2 a pool "
    "of N runs them; either way the kernels are held serial, so it keeps "
    "two or N threads busy"
)


def _diag(message):
    print(f"error: {message}", file=sys.stderr)


def parse_config(path):
    """Read ``key = value`` lines; unknown keys are rejected."""
    known = PARAM_FIELDS | {"method"}
    config = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
            if key in config:
                raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
            config[key] = raw
    return config


def _load_params(args):
    config = parse_config(args.config) if args.config else {}
    try:
        params = Params(**{k: field_value(k, v) for k, v in config.items() if k != "method"})
    except ValueError as exc:
        raise FormatError(f"config: {exc}") from None
    return params, config


def _value_list(name, text):
    """The comma-separated values in `text`, coerced for Params field `name`."""
    values = [field_value(name, v) for v in text.split(",") if v != ""]
    if not values:
        raise FormatError(f"empty value list for {name!r}")
    return values


def _float_repr(value):
    return repr(float(value))


def _metric_row(metrics):
    counts = [metrics.tp, metrics.tn, metrics.fp, metrics.fn]
    return [str(n) for n in counts] + [_float_repr(getattr(metrics, n)) for n in RATIOS]


@contextlib.contextmanager
def _output(path):
    """stdout for no path or ``-``, otherwise a file closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as out:
            yield out


def _bresenham(r0, c0, r1, c1):
    """Integer line pixels from (r0,c0) to (r1,c1), inclusive."""
    points = []
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r0 < r1 else -1
    sc = 1 if c0 < c1 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        points.append((r, c))
        if r == r1 and c == c1:
            break
        e2 = 2 * err
        if e2 > -dr:
            err -= dr
            c += sc
        if e2 < dc:
            err += dc
            r += sr
    return points


def cmd_detect(args):
    params, _ = _load_params(args)
    img = frame_io.load_image(args.input)
    t0 = time.perf_counter()
    result = detect(img, params)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if args.out_labels:
        frame_io.write_labels(result.labels, args.out_labels)
    if args.out_confidence:
        frame_io.write_map(result.confidence, args.out_confidence, args.confidence_format)
    if args.overlay:
        _write_overlay(img, result, params.crop_rows, args.overlay)
    print(f"mean_confidence={_float_repr(result.mean_confidence)}")
    print(
        f"detect: {elapsed_ms:.2f} ms, cloud {result.cloud_size}, "
        f"triangles {result.triangle_count}",
        file=sys.stderr,
    )
    return 0


def _write_overlay(img, result, crop_rows, path):
    """Overlay with triangle edges; vertices live in cropped coordinates."""
    base = np.asarray(img)
    height, width = base.shape
    rgb = np.repeat(base.astype(np.uint8)[:, :, None], 3, axis=2).astype(np.int64)
    shadow = np.asarray(result.labels, dtype=bool)
    cols = np.nonzero(shadow)[0]
    rgb[:, cols, 0] = rgb[:, cols, 0] // 3
    rgb[:, cols, 1] = (rgb[:, cols, 1] + 255) // 2
    rgb[:, cols, 2] = (rgb[:, cols, 2] + 255) // 2
    cx = result.triangle_complex
    edge_color = np.array([255, 96, 32], dtype=np.int64)
    seen = set()
    for i, j, k in cx.triangles:
        for a, b in ((i, j), (i, k), (j, k)):
            key = (int(a), int(b))
            if key in seen:
                continue
            seen.add(key)
            r0, c0 = cx.vertices[a]
            r1, c1 = cx.vertices[b]
            for r, c in _bresenham(int(r0), int(c0), int(r1), int(c1)):
                rr = r + crop_rows
                if 0 <= rr < height and 0 <= c < width:
                    rgb[rr, c] = edge_color
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(rgb.clip(0, 255).astype(np.uint8).tobytes())


def cmd_evaluate(args):
    params, config = _load_params(args)
    method = args.method or config.get("method", "topol")
    if method not in _METHODS:
        raise FormatError(f"unknown method {method!r}")
    dataset = frame_io.load_dataset(args.dataset)
    folds = load_folds(args.folds)
    chosen_kappa = {}
    if method == "topol":
        make_predict = topol_predictor(params)
    elif method == "oracle":
        make_predict = oracle_predictor()
    else:
        if args.kappa is None and not args.fit_kappa:
            raise FormatError("thresh needs --kappa or --fit-kappa")

        def make_predict(fold, seen):
            if args.kappa is not None:
                kappa = float(args.kappa)
            else:
                frames = [img for img, _ in seen.values()]
                labels = [lab for _, lab in seen.values()]
                kappa, _acc = select_kappa(frames, labels, params.crop_rows)
            chosen_kappa[fold] = kappa
            return lambda img, truth: thresh_classify(img, kappa, params.crop_rows)

    report = evaluate_folds(dataset, folds, make_predict, workers=args.workers)
    with _output(args.out) as out:
        for fold in sorted(chosen_kappa):
            out.write(f"# fold {fold} kappa={_float_repr(chosen_kappa[fold])}\n")
        out.write(",".join(["fold", "role", "tp", "tn", "fp", "fn", *RATIOS]) + "\n")
        for row in report.rows:
            out.write(",".join([str(row.fold), row.role] + _metric_row(row.metrics)) + "\n")
        for role in ("seen", "unseen"):
            if role not in report.averages:
                continue
            avg = report.averages[role]
            ratios = [_float_repr(avg[name]) for name in RATIOS]
            out.write(",".join(["avg", role, "", "", "", ""] + ratios) + "\n")
    return 0


def cmd_trajectory(args):
    params, _ = _load_params(args)
    names = sorted(n for n in os.listdir(args.frames_dir) if n.endswith(".pgm"))
    if len(names) < 3:
        raise FormatError(f"{args.frames_dir}: need at least 3 frames, found {len(names)}")
    means = []
    for name in names:
        img = frame_io.load_image(os.path.join(args.frames_dir, name))
        means.append(detect(img, params).mean_confidence)
    target = fit_normal_target(means)
    rmse = trajectory_rmse(means, target)
    with _output(args.out) as out:
        out.write("frame,mean_confidence,target\n")
        for name, measured, fitted in zip(names, means, target):
            stem = name[: -len(".pgm")]
            out.write(f"{stem},{_float_repr(measured)},{_float_repr(fitted)}\n")
        out.write(f"# rmse={_float_repr(rmse)}\n")
    return 0


def cmd_sweep(args):
    params, _ = _load_params(args)
    values = _value_list(args.param, args.values)
    dataset = frame_io.load_dataset(args.dataset)
    rows = perturb_sweep(dataset, args.param, values, params, workers=args.workers)
    with _output(args.out) as out:
        out.write(",".join(["value", *RATIOS]) + "\n")
        for value, metrics in rows:
            ratios = [getattr(metrics, name) for name in RATIOS]
            out.write(",".join(_float_repr(v) for v in [value, *ratios]) + "\n")
    return 0


def cmd_gridsearch(args):
    params, _ = _load_params(args)
    grid = {}
    for spec in args.grid:
        if "=" not in spec:
            raise FormatError(f"bad --grid entry {spec!r}, want name=v1,v2,...")
        name, _, raw = spec.partition("=")
        name = name.strip()
        if name in grid:
            raise FormatError(f"duplicate grid parameter {name!r}")
        grid[name] = _value_list(name, raw)
    dataset = frame_io.load_dataset(args.dataset)
    best_params, best_score = grid_search(dataset, grid, params, workers=args.workers)
    for name in grid:
        value = getattr(best_params, name)
        print(f"{name}={_float_repr(value) if isinstance(value, float) else value}")
    print(f"accuracy={_float_repr(best_score)}")
    return 0


def cmd_synth(args):
    os.makedirs(args.out, exist_ok=True)
    if args.tilt is not None:
        frames = synth_tilt_sequence(args.tilt, PhantomSpec(seed=args.seed))
        for i, (img, labels) in enumerate(frames):
            stem = os.path.join(args.out, f"tilt{i:03d}")
            frame_io.write_image(img, stem + ".pgm")
            frame_io.write_labels(labels, stem + ".labels")
        print(f"wrote {len(frames)} tilt frames to {args.out}", file=sys.stderr)
        return 0
    frames, entries = make_dataset(
        n_frames=args.frames, base=PhantomSpec(), seed=args.seed
    )
    for frame_id, (img, labels) in frames.items():
        stem = os.path.join(args.out, frame_id)
        frame_io.write_image(img, stem + ".pgm")
        frame_io.write_labels(labels, stem + ".labels")
    write_folds(entries, os.path.join(args.out, "folds.txt"))
    print(f"wrote {len(frames)} frames + folds.txt to {args.out}", file=sys.stderr)
    return 0


def build_parser():
    parser = _Parser(prog="toposhadow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="classify one frame and write its maps")
    p.add_argument("--input", required=True)
    p.add_argument("--config")
    p.add_argument("--out-labels")
    p.add_argument("--out-confidence")
    p.add_argument(
        "--confidence-format", choices=("linear-8bit", "csv-float"), default="linear-8bit"
    )
    p.add_argument("--overlay")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="fold-based evaluation to CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--config")
    p.add_argument("--kappa", type=float)
    p.add_argument("--fit-kappa", action="store_true")
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("trajectory", help="per-frame confidence vs fitted bell curve")
    p.add_argument("--frames-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("sweep", help="vary one parameter, evaluate each value")
    p.add_argument("--dataset", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--config")
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gridsearch", help="exhaustive parameter grid search")
    p.add_argument("--dataset", required=True)
    p.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="name=v1,v2,...",
        help="one entry per parameter; may be repeated",
    )
    p.add_argument("--config")
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("synth", help="generate a synthetic dataset or tilt sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tilt", type=int, help="write an n-frame tilt sequence instead")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TriangleCapError as exc:
        _diag(exc)
        return 4
    except MemoryError as exc:
        _diag(f"{args.command} ran out of memory" + (f": {exc}" if str(exc) else ""))
        return 4
    except FormatError as exc:
        _diag(exc)
        return 3
    except OSError as exc:
        _diag(exc)
        return 2
    except ValueError as exc:
        _diag(exc)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
