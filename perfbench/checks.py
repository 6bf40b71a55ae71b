"""Correctness checks on the program's outputs.

Each check returns a list of error strings; an empty list means the output
is correct.  The checks recompute what they need from the generator's
truth and from the formulas themselves, never with the package's own
helpers, so a fault in the package cannot also hide in its check.
"""

import math

import numpy as np

ACCURACY_FLOOR = 0.95
TRAJECTORY_RMSE_LIMIT = 0.25


def far_shadow(truth, epsilon):
    """Columns farther than ``epsilon`` from every visible (0) column."""
    visible = np.flatnonzero(np.asarray(truth) == 0)
    cols = np.arange(len(truth))
    if visible.size == 0:
        return np.ones(len(truth), dtype=bool)
    dist = np.abs(cols[:, None] - visible[None, :]).min(axis=1)
    return dist > epsilon


def check_frame(labels, confidence, truth, epsilon):
    """A triangle has edges of at most ``epsilon``, so no triangle reaches
    a column that far from every visible column: those columns are
    shadow and carry zero confidence in every row."""
    labels = np.asarray(labels)
    if labels.shape != np.asarray(truth).shape:
        return [f"labels have shape {labels.shape}, truth {np.shape(truth)}"]
    far = far_shadow(truth, epsilon)
    errors = []
    wrong = np.flatnonzero(far & (labels != 1))
    if wrong.size:
        errors.append(f"{wrong.size} far shadow columns labelled visible, first {wrong[0]}")
    covered = np.flatnonzero(far & np.any(np.asarray(confidence) != 0, axis=0))
    if covered.size:
        errors.append(f"{covered.size} far shadow columns with confidence, first {covered[0]}")
    return errors


def check_accuracy(correct, total, what):
    acc = correct / total
    if acc >= ACCURACY_FLOOR:
        return []
    return [f"{what}: pooled accuracy {acc:.4f} < {ACCURACY_FLOOR}"]


def trajectory_rmse(means):
    """RMSE of a mean-confidence trajectory against the bell through its
    extremes: T_i = m + (M - m) exp(-(i - mu)^2 / (2 s^2)), mu the middle
    index, s = n/6."""
    t = np.asarray(means, dtype=np.float64)
    n = len(t)
    mu, s = (n - 1) / 2.0, n / 6.0
    i = np.arange(n, dtype=np.float64)
    target = t.min() + (t.max() - t.min()) * np.exp(-((i - mu) ** 2) / (2.0 * s * s))
    return float(np.sqrt(np.mean((target - t) ** 2)))


def bell_peak(means):
    """Centre of the bell that best fits the trajectory.

    Least squares over T_i = a + b exp(-(i - c)^2 / (2 s^2)) with s = n/6
    and b > 0, for c on a quarter-frame grid.  Returns c, or None when no
    upward bell fits.  Per-frame means jitter by a few percent (greedy
    thinning reacts to every pixel), so a single frame's maximum can sit
    off the middle by more than the rise of the flat-topped bell there;
    the fitted centre uses every frame.
    """
    t = np.asarray(means, dtype=np.float64)
    n = len(t)
    i = np.arange(n, dtype=np.float64)
    s = n / 6.0
    best = None
    for c in np.arange(0.0, n - 0.75, 0.25):
        basis = np.stack([np.ones(n), np.exp(-((i - c) ** 2) / (2.0 * s * s))], axis=1)
        coef, *_ = np.linalg.lstsq(basis, t, rcond=None)
        resid = float(np.sum((basis @ coef - t) ** 2))
        if coef[1] > 0 and (best is None or resid < best[0]):
            best = (resid, float(c))
    return None if best is None else best[1]


def check_trajectory(means):
    """The trajectory peaks within the middle tenth of the sweep and stays
    within the RMSE limit of the bell curve."""
    n = len(means)
    errors = []
    peak = bell_peak(means)
    if peak is None or abs(peak - (n - 1) / 2.0) > n / 20.0:
        errors.append(f"trajectory peaks at frame {peak} of {n}, outside the middle tenth")
    rmse = trajectory_rmse(means)
    if not rmse <= TRAJECTORY_RMSE_LIMIT:
        errors.append(f"trajectory RMSE {rmse:.4f} > {TRAJECTORY_RMSE_LIMIT}")
    return errors


def _ratio(num, den):
    return num / den if den else math.nan


def _same(text, value):
    got = float(text)
    return got == value or (math.isnan(got) and math.isnan(value))


def check_evaluate(text, cells, width):
    """Check an ``evaluate`` CSV against the manifest.

    ``cells`` maps (fold, role) to the number of frames in that cell.  Each
    cell has one row; its counts sum to frames x width, and its four
    ratios equal a recomputation from its counts.  Returns (errors,
    [tp, tn, fp, fn] summed over the unseen rows).
    """
    lines = text.splitlines()
    errors = []
    unseen = [0, 0, 0, 0]
    if not lines or lines[0] != "fold,role,tp,tn,fp,fn,acc,tnr,tpr,ppv":
        return ["evaluate: missing CSV header"], unseen
    seen_cells = set()
    for line in lines[1:]:
        parts = line.split(",")
        if parts[0] == "avg":
            continue
        if len(parts) != 10:
            errors.append(f"evaluate: malformed row {line!r}")
            continue
        cell = (int(parts[0]), parts[1])
        if cell not in cells or cell in seen_cells:
            errors.append(f"evaluate: unexpected or repeated row {line!r}")
            continue
        seen_cells.add(cell)
        tp, tn, fp, fn = (int(v) for v in parts[2:6])
        if tp + tn + fp + fn != cells[cell] * width:
            errors.append(f"evaluate: counts of {cell} sum to {tp + tn + fp + fn}, "
                          f"want {cells[cell] * width}")
        want = (
            _ratio(tp + tn, tp + tn + fp + fn),
            _ratio(tn, tn + fp),
            _ratio(tp, tp + fn),
            _ratio(tp, tp + fp),
        )
        if not all(_same(t, v) for t, v in zip(parts[6:], want)):
            errors.append(f"evaluate: ratios of {cell} do not match its counts")
        if cell[1] == "unseen":
            unseen = [a + b for a, b in zip(unseen, (tp, tn, fp, fn))]
    missing = set(cells) - seen_cells
    if missing:
        errors.append(f"evaluate: no row for {sorted(missing)}")
    return errors, unseen


def check_gridsearch(text, grid, baseline_acc):
    """The winner lies in the grid and scores at least ``baseline_acc``,
    the accuracy of a combination that is in the grid."""
    values = {}
    for line in text.splitlines():
        name, sep, value = line.partition("=")
        if not sep:
            return [f"gridsearch: malformed line {line!r}"]
        values[name] = float(value)
    if set(values) != set(grid) | {"accuracy"}:
        return [f"gridsearch: printed {sorted(values)}, want {sorted(grid)} and accuracy"]
    errors = [
        f"gridsearch: winner {name}={values[name]} is not in the grid {grid[name]}"
        for name in grid
        if values[name] not in grid[name]
    ]
    if not values["accuracy"] >= baseline_acc:
        errors.append(f"gridsearch: winner accuracy {values['accuracy']} is below "
                      f"the default parameters' {baseline_acc}")
    return errors
