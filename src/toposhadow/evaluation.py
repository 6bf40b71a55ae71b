"""Metrics, fold-based evaluation, trajectory scoring, and sweeps."""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .classify import (
    CLOUD_FIELDS,
    TEXTURE_FIELDS,
    back_end,
    classify_scanlines,
    salient_cloud,
    texture,
)
from .errors import FormatError
from .saliency import Params, field_value

# the ratios a MetricsReport derives from its counts, in report order
RATIOS = ("acc", "tnr", "tpr", "ppv")


@dataclass(frozen=True)
class MetricsReport:
    """Scan-line confusion counts; shadow is the positive class.

    The four ratios are derived from the counts on access, so the
    defining identities hold by construction.  A ratio with a zero
    denominator is NaN, never silently 0.
    """

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn

    @property
    def acc(self):
        return _ratio(self.tp + self.tn, self.total)

    @property
    def tnr(self):
        return _ratio(self.tn, self.tn + self.fp)

    @property
    def tpr(self):
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def ppv(self):
        return _ratio(self.tp, self.tp + self.fp)

    def __add__(self, other):
        return MetricsReport(
            self.tp + other.tp,
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
        )


def _ratio(num, den):
    return num / den if den else math.nan


def confusion(pred, truth):
    """Confusion counts of a predicted label vector against truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    p = pred.astype(bool)
    t = truth.astype(bool)
    return MetricsReport(
        tp=int(np.count_nonzero(p & t)),
        tn=int(np.count_nonzero(~p & ~t)),
        fp=int(np.count_nonzero(p & ~t)),
        fn=int(np.count_nonzero(~p & t)),
    )


class FoldSpec:
    """Named partition of frames into per-fold seen/unseen cells.

    Built from manifest lines ``<frame-id> <group-id> <fold#>
    <seen|unseen>`` (one line per frame per fold).  Within a fold a
    frame appears at most once and a group is never split across roles.
    """

    def __init__(self, entries):
        self._members = {}
        self._groups = {}
        roles_by_fold_group = {}
        for frame_id, group_id, fold, role in entries:
            fold = int(fold)
            if fold < 1:
                raise FormatError(f"fold numbers start at 1, got {fold}")
            if role not in ("seen", "unseen"):
                raise FormatError(f"unknown role {role!r}")
            cell = self._members.setdefault((fold, role), [])
            other = self._members.get((fold, _other_role(role)), [])
            if frame_id in cell or frame_id in other:
                raise FormatError(f"frame {frame_id!r} listed twice for fold {fold}")
            cell.append(frame_id)
            prev_group = self._groups.setdefault(frame_id, group_id)
            if prev_group != group_id:
                raise FormatError(f"frame {frame_id!r} has conflicting group ids")
            prev_role = roles_by_fold_group.setdefault((fold, group_id), role)
            if prev_role != role:
                raise FormatError(
                    f"group {group_id!r} split across seen/unseen in fold {fold}"
                )
        if not self._members:
            raise FormatError("empty fold manifest")

    def folds(self):
        return sorted({fold for fold, _ in self._members})

    def members(self, fold, role):
        return list(self._members.get((fold, role), []))

    def frame_ids(self):
        return sorted(self._groups)

    def group_of(self, frame_id):
        return self._groups[frame_id]


def _other_role(role):
    return "unseen" if role == "seen" else "seen"


def load_folds(path):
    """Parse a fold manifest file into a FoldSpec."""
    entries = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            frame_id, group_id, fold_text, role = parts
            try:
                fold = int(fold_text)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad fold number {fold_text!r}") from None
            entries.append((frame_id, group_id, fold, role))
    return FoldSpec(entries)


def write_folds(entries, path):
    """Write manifest lines (frame_id, group_id, fold, role)."""
    with open(path, "w", encoding="ascii") as fh:
        for frame_id, group_id, fold, role in entries:
            fh.write(f"{frame_id} {group_id} {fold} {role}\n")


@dataclass(frozen=True)
class FoldResult:
    fold: int
    role: str
    metrics: MetricsReport


@dataclass(frozen=True)
class EvalReport:
    """Per-(fold, role) pooled metrics plus the across-fold averages."""

    rows: tuple
    averages: dict


def evaluate_folds(dataset, folds, make_predict):
    """Evaluate a predictor under a fold manifest.

    ``dataset`` maps frame id -> (image, truth labels).  ``make_predict``
    is called once per fold with (fold, seen subset) and must return a
    ``predict(frames) -> labels`` callable, ``frames`` a list of (image,
    truth) pairs and ``labels`` one label vector per pair; confusion
    counts are pooled over the frames of each (fold, role) cell and the
    four ratios averaged across folds per role.

    A fold-independent ``make_predict`` returns the same callable for
    every fold; each frame is then predicted once and its labels reused
    in every fold, so that callable must give the same labels for the
    same frame each time.  A new callable per fold (a predictor fitted
    on the seen frames) predicts each frame once per fold.
    """
    missing = [fid for fid in folds.frame_ids() if fid not in dataset]
    if missing:
        raise FormatError("missing annotations for: " + ", ".join(missing))
    rows = []
    predict, labels = None, {}
    for fold in folds.folds():
        seen_ids = folds.members(fold, "seen")
        unseen_ids = folds.members(fold, "unseen")
        fold_predict = make_predict(fold, {fid: dataset[fid] for fid in seen_ids})
        if fold_predict is not predict:
            predict, labels = fold_predict, {}
        for role, ids in (("seen", seen_ids), ("unseen", unseen_ids)):
            if not ids:
                continue
            todo = [fid for fid in ids if fid not in labels]
            labels.update(zip(todo, predict([dataset[fid] for fid in todo])))
            reports = (confusion(labels[fid], dataset[fid][1]) for fid in ids)
            rows.append(FoldResult(fold, role, sum(reports, MetricsReport(0, 0, 0, 0))))
    averages = {}
    for role in ("seen", "unseen"):
        per_fold = [r.metrics for r in rows if r.role == role]
        if per_fold:
            averages[role] = {
                name: sum(getattr(m, name) for m in per_fold) / len(per_fold)
                for name in RATIOS
            }
    return EvalReport(rows=tuple(rows), averages=averages)


def _map_ordered(build, finish, items, workers):
    """``[finish(item, build(item)) for item in items]`` on ``workers``
    threads: a pool of N >= 2 runs both stages of an item on one thread.

    One worker is a two-stage pipeline: the calling thread builds each
    item while a helper thread finishes the one before.  ``finish`` takes
    its value out of a one-item list, so at most two built values are
    alive at once.  A deviation map splits only while its caller is the
    only Python thread, so only the pipeline's first map, built before
    its helper starts, splits: the pipeline keeps two threads busy and
    the pool N.  Outputs, and the first error in item order, are the
    same either way.
    """
    with ThreadPoolExecutor(max_workers=workers) as pool:
        if workers > 1:
            return list(pool.map(lambda item: finish(item, build(item)), items))
        results, pending = [], None
        for item in items:
            try:
                slot = [build(item)]
            finally:
                if pending is not None:
                    results.append(pending.result())
            pending = pool.submit(lambda item, slot: finish(item, slot.pop()), item, slot)
        if pending is not None:
            results.append(pending.result())
        return results


def topol_predictor(params=None, workers=1):
    """make_predict for the pipeline detector: one callable for every
    fold, which runs ``_scores_each`` on ``workers`` threads with the one
    combination ``params``.
    """
    combos = [Params() if params is None else params]

    def predict(frames):
        rows = _scores_each(frames, combos, workers, lambda labels, truth: labels)
        return [row[0] for row in rows]

    return _every_fold(predict)


def oracle_predictor():
    """make_predict that returns the ground truth (upper bound)."""
    return _every_fold(lambda frames: [truth for _, truth in frames])


def _every_fold(predict):
    def make_predict(fold, seen):
        del fold, seen
        return predict

    return make_predict


def fit_normal_target(measured):
    """Bell-shaped target through the min/max of a trajectory.

    T_i = m + (Mx - m) * exp(-(i - mu)^2 / (2 s^2)) with mu the middle
    index and s = n/6, so three standard deviations span the sequence.
    """
    t = np.asarray(measured, dtype=np.float64)
    if t.ndim != 1 or len(t) < 3:
        raise ValueError("need at least 3 frames")
    n = len(t)
    lo = t.min()
    hi = t.max()
    mu = (n - 1) / 2.0
    s = n / 6.0
    i = np.arange(n, dtype=np.float64)
    return lo + (hi - lo) * np.exp(-((i - mu) ** 2) / (2.0 * s * s))


def trajectory_rmse(measured, target):
    """Root-mean-square error between two equal-length trajectories."""
    a = np.asarray(measured, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("trajectory length mismatch")
    d = b - a
    return float(np.sqrt((d * d).mean()))


def perturb_sweep(dataset, name, values, base=None, workers=1):
    """One pooled evaluation per parameter value, everything else at base.

    Returns a list of (value, MetricsReport) rows in input order, each
    value coerced by ``field_value``.
    """
    rows = _grid_rows(dataset, {name: values}, base, workers)
    return [(getattr(params, name), pooled) for params, pooled in rows]


def grid_search(dataset, grid, base=None, workers=1):
    """Exhaustive search over a dict of parameter value lists.

    Combinations are visited in row-major order of the grid definition;
    the accuracy-maximizing combination wins and ties keep the earlier
    combination.  Returns (best Params, best accuracy).
    """
    if not dataset:
        raise ValueError("empty dataset")
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("empty grid")
    # max keeps the first of equal keys, as a strict > scan would
    params, pooled = max(_grid_rows(dataset, grid, base, workers), key=lambda row: row[1].acc)
    return params, pooled.acc


def _grid_rows(dataset, grid, base, workers):
    """(Params, pooled MetricsReport) for every combination of ``grid``,
    a dict of value lists, in row-major order.  Every value is coerced
    and every combination built, so checked, before any frame runs.
    """
    if base is None:
        base = Params()
    values = [[field_value(name, v) for v in grid[name]] for name in grid]
    combos = [replace(base, **dict(zip(grid, row))) for row in itertools.product(*values)]
    return list(zip(combos, _pooled_each(dataset, combos, workers)))


def _pooled_each(dataset, combos, workers=1):
    """Pooled confusion over the dataset, frames in id order, for each
    Params in ``combos``; all zeros for an empty dataset."""
    pooled = [MetricsReport(0, 0, 0, 0)] * len(combos)
    frames = [dataset[fid] for fid in sorted(dataset)]
    for reports in _scores_each(frames, combos, workers, confusion):
        pooled = [total + report for total, report in zip(pooled, reports)]
    return pooled


def _scores_each(frames, combos, workers, score):
    """``score(labels, truth)`` for each (image, truth) pair in
    ``frames`` and each Params in ``combos``: one list per frame, in
    ``combos`` order, ``labels`` being those of ``detect(image, params)``.

    The unit of work is one deviation map: a frame and a group of
    combinations that share their ``TEXTURE_FIELDS`` values, frames in
    order and groups in the order of those values.  ``_map_ordered``
    builds each unit's map, then on it a thinned cloud once per distinct
    ``CLOUD_FIELDS`` values, its triangles and scan-line counts once per
    distinct (epsilon, triangle_cap) on that cloud, and only thresholds
    and scores the counts per combination, in grid order.  A combination
    whose triangles exceed the cap raises where it would alone: the
    first one with a new (cloud, epsilon, triangle_cap) builds them.
    """
    texture_key, cloud_key = attrgetter(*TEXTURE_FIELDS), attrgetter(*CLOUD_FIELDS)
    groups = {}
    for index, params in enumerate(combos):
        groups.setdefault(texture_key(params), []).append(index)
    ordered = [group for _, group in sorted(groups.items())]
    rows = [[None] * len(combos) for _ in frames]
    units = [(frame, row, group) for frame, row in zip(frames, rows) for group in ordered]

    def build(unit):
        (img, _), _, group = unit
        return texture(img, combos[group[0]])

    def finish(unit, saliency):
        (img, truth), row, group = unit
        clouds, counts = {}, {}
        for index in group:
            params = combos[index]
            key = cloud_key(params)
            if key not in clouds:
                clouds[key] = salient_cloud(saliency, params)
            mesh = key, params.epsilon, params.triangle_cap
            if mesh not in counts:
                counts[mesh] = back_end(clouds[key], np.shape(img)[1], params)[1]
            row[index] = score(classify_scanlines(counts[mesh], params.tau), truth)

    _map_ordered(build, finish, units, workers)
    return rows
