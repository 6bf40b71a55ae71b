"""Synthetic speckle phantoms with exact scan-line ground truth.

The pipeline keys on spatial intensity variation, so the generator only
has to produce variance-bearing texture (clipped Gaussian speckle plus
bright elliptical blobs) in visible regions and flat dark noise in
shadow regions.  Everything is a pure function of PhantomSpec and seed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry and statistics of one synthetic frame.

    ``shadow_intervals`` are inclusive (first, last) column pairs; they
    must be disjoint and inside the frame.
    """

    width: int = 600
    height: int = 300
    shadow_intervals: tuple = ((340, 460),)
    speckle_mean: float = 90.0
    speckle_sigma: float = 25.0
    shadow_mean: float = 8.0
    shadow_sigma: float = 3.0
    blob_density: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("frame dimensions must be positive")
        last = -1
        for pair in self.shadow_intervals:
            if len(pair) != 2:
                raise ValueError("intervals are (first, last) column pairs")
            a, b = pair
            if not 0 <= a <= b < self.width:
                raise ValueError(f"interval {pair} outside frame of width {self.width}")
            if a <= last:
                raise ValueError("shadow intervals must be sorted and disjoint")
            last = b
        if self.speckle_mean <= self.shadow_mean:
            raise ValueError("speckle must be brighter than shadow")
        if self.speckle_sigma < 0 or self.shadow_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.blob_density < 0:
            raise ValueError("blob_density must be non-negative")


def synth_phantom(spec):
    """Render one frame. Returns (uint8 image, uint8 label vector)."""
    rng = np.random.default_rng(spec.seed)
    h, w = spec.height, spec.width
    img = rng.normal(spec.speckle_mean, spec.speckle_sigma, size=(h, w))
    n_blobs = int(round(spec.blob_density * h * w / 1000.0))
    for _ in range(n_blobs):
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        ax_r = rng.uniform(2.0, 7.0)
        ax_c = rng.uniform(1.5, 5.0)
        amp = rng.uniform(25.0, 70.0)
        rr = int(math.ceil(2.5 * ax_r))
        rc = int(math.ceil(2.5 * ax_c))
        r0, r1 = max(0, r - rr), min(h, r + rr + 1)
        c0, c1 = max(0, c - rc), min(w, c + rc + 1)
        dr = (np.arange(r0, r1, dtype=np.float64) - r) / ax_r
        dc = (np.arange(c0, c1, dtype=np.float64) - c) / ax_c
        img[r0:r1, c0:c1] += amp * np.exp(-(dr[:, None] ** 2 + dc[None, :] ** 2))
    labels = np.zeros(w, dtype=np.uint8)
    for a, b in spec.shadow_intervals:
        img[:, a : b + 1] = rng.normal(spec.shadow_mean, spec.shadow_sigma, size=(h, b - a + 1))
        labels[a : b + 1] = 1
    img = np.clip(img, 0.0, 255.0)
    return np.floor(img + 0.5).astype(np.uint8), labels


# the tilt band's width as a fraction of the frame at the ends and at the
# middle of the sequence, and the step its pixel width snaps to
_W_MIN, _W_MAX, _BAND_STEP = 0.1, 0.9, 60


def synth_tilt_sequence(n, spec=None):
    """Frames of a simulated probe tilt: a centred visible band whose
    width follows a bell curve over the sequence, on fixed texture.

    The band is widest at the middle frame and narrowest at the ends;
    texture is identical across frames (same seed) so the confidence
    trajectory reflects geometry, not noise.  The width is snapped to
    multiples of ``_BAND_STEP``: frames sharing a width are then
    bit-identical, and the area change between adjacent width levels is
    large enough to dominate the point-thinning jitter a few-pixel edge
    shift would otherwise cause.  Returns a list of (image, labels)
    pairs.
    """
    if n < 3:
        raise ValueError("need at least 3 frames")
    if spec is None:
        spec = PhantomSpec()
    mu = (n - 1) / 2.0
    s = n / 6.0
    frames = []
    for i in range(n):
        frac = _W_MIN + (_W_MAX - _W_MIN) * math.exp(-((i - mu) ** 2) / (2.0 * s * s))
        band = _BAND_STEP * int(round(frac * spec.width / _BAND_STEP))
        band = max(_BAND_STEP, min(band, spec.width))
        start = (spec.width - band) // 2
        intervals = []
        if start > 0:
            intervals.append((0, start - 1))
        if start + band < spec.width:
            intervals.append((start + band, spec.width - 1))
        frames.append(synth_phantom(replace(spec, shadow_intervals=tuple(intervals))))
    return frames


def make_dataset(n_frames=50, base=None, seed=0, n_groups=10, n_folds=3):
    """Generate a labeled multi-frame dataset plus a fold manifest.

    Each frame gets randomized shadow intervals (mixing narrow and wide
    shadows) and its own derived seed.  Frames are grouped and each
    group is held out (unseen) in exactly one fold, seen in the rest.
    Returns (frames, entries): frames maps frame id -> (image, labels),
    entries are (frame_id, group_id, fold, role) manifest rows.
    """
    if n_frames < 1 or n_groups < 1 or n_folds < 1:
        raise ValueError("counts must be positive")
    if base is None:
        base = PhantomSpec()
    rng = np.random.default_rng(seed)
    frames = {}
    entries = []
    for i in range(n_frames):
        intervals = _sample_intervals(rng, base.width)
        frame_seed = int(rng.integers(0, 2**31))
        spec = replace(base, shadow_intervals=intervals, seed=frame_seed)
        frame_id = f"frame{i:03d}"
        frames[frame_id] = synth_phantom(spec)
        group = i * n_groups // n_frames
        home = group % n_folds + 1
        for fold in range(1, n_folds + 1):
            role = "unseen" if fold == home else "seen"
            entries.append((frame_id, f"g{group}", fold, role))
    return frames, entries


def _sample_intervals(rng, width):
    """One or two disjoint shadow intervals with a mix of widths.

    Narrow shadows (59-60 px) put their flanking tissue columns just
    over 60 px apart, so edges at the default length threshold can
    never span them while clearly larger thresholds can; wide shadows
    are unbridgeable at any swept threshold.
    """
    margin = 60
    gap = 50
    two = bool(rng.random() < 0.5)
    widths = []
    for _ in range(2 if two else 1):
        if rng.random() < 0.4:
            widths.append(int(rng.integers(59, 61)))
        else:
            widths.append(int(rng.integers(110, 161)))
    if two:
        half = width // 2
        a0 = int(rng.integers(margin, half - gap // 2 - widths[0]))
        b0 = a0 + widths[0] - 1
        a1 = int(rng.integers(max(b0 + gap, half), width - margin - widths[1]))
        b1 = a1 + widths[1] - 1
        return ((a0, b0), (a1, b1))
    a = int(rng.integers(margin, width - margin - widths[0]))
    return ((a, a + widths[0] - 1),)
