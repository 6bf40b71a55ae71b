"""Column-sum baseline classifier and its threshold fit."""

import numpy as np

from .frame_io import crop_top


def thresh_classify(img, kappa, crop_rows=100):
    """Label a column shadow (1) iff its cropped intensity sum is
    strictly below kappa; a sum exactly equal to kappa is visible.
    """
    return (column_sums(img, crop_rows) < kappa).astype(np.uint8)


def column_sums(img, crop_rows=100):
    """Cropped per-column intensity sums (the classifier's statistic)."""
    img = np.asarray(img, dtype=np.float64)
    return crop_top(img, crop_rows).sum(axis=0)


def select_kappa(frames, labels, crop_rows=100, step=100.0):
    """Pick the threshold maximizing scan-line accuracy on labeled data.

    Candidates are the multiples of ``step`` from 0 up to the smallest
    multiple strictly greater than the largest column sum, so a
    threshold above every sum is always reachable.  Ties go to the
    smaller candidate.  Returns (kappa, accuracy).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    frames = list(frames)
    labels = list(labels)
    if not frames or len(frames) != len(labels):
        raise ValueError("need a non-empty dataset with one label vector per frame")
    sums = []
    truth = []
    for img, lab in zip(frames, labels):
        s = column_sums(img, crop_rows)
        lab = np.asarray(lab)
        if lab.shape != s.shape:
            raise ValueError("label length mismatch")
        sums.append(s)
        truth.append(lab.astype(bool))
    sums = np.concatenate(sums)
    truth = np.concatenate(truth)
    total = len(sums)
    order = np.argsort(sums, kind="stable")
    sums_sorted = sums[order]
    shadow_sorted = truth[order]
    # prefix[i] = among the i smallest sums, how many are truly shadow
    prefix = np.concatenate([[0], np.cumsum(shadow_sorted)])
    n_shadow = int(prefix[-1])
    n_visible = total - n_shadow
    top = int(np.floor(sums.max() / step)) + 2
    best_kappa = best_acc = None
    for i in range(top):
        kappa = i * step
        below = int(np.searchsorted(sums_sorted, kappa, side="left"))
        correct = int(prefix[below]) + (n_visible - (below - int(prefix[below])))
        acc = correct / total
        if best_acc is None or acc > best_acc:
            best_kappa, best_acc = kappa, acc
    return best_kappa, best_acc
