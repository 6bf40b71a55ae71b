"""Seeded synthetic inputs: probe-tilt frame streams and a labelled dataset.

The generator uses numpy only, so the inputs stay the same when the
package under test changes.  Frames follow the package's phantom model:
Gaussian speckle with bright elliptical blobs where tissue is visible, dim
flat noise in shadow columns, 8-bit, 300 x 600.  Truth labels are exact:
1 marks a shadow column.
"""

import math
from pathlib import Path

import numpy as np

H, W = 300, 600
JITTER = 4.0  # frame-to-frame speckle decorrelation, grey levels


def texture(rng):
    """One frame of visible-tissue texture (float64, not yet clipped)."""
    img = rng.normal(90.0, 25.0, size=(H, W))
    for _ in range(H * W // 1000):
        r, c = int(rng.integers(0, H)), int(rng.integers(0, W))
        ax_r, ax_c = rng.uniform(2.0, 7.0), rng.uniform(1.5, 5.0)
        amp = rng.uniform(25.0, 70.0)
        rr, rc = math.ceil(2.5 * ax_r), math.ceil(2.5 * ax_c)
        r0, r1 = max(0, r - rr), min(H, r + rr + 1)
        c0, c1 = max(0, c - rc), min(W, c + rc + 1)
        dr = (np.arange(r0, r1) - r) / ax_r
        dc = (np.arange(c0, c1) - c) / ax_c
        img[r0:r1, c0:c1] += amp * np.exp(-(dr[:, None] ** 2 + dc[None, :] ** 2))
    return img


def shadow_noise(rng):
    return rng.normal(8.0, 3.0, size=(H, W))


def render(tissue, shadow, intervals):
    """Paint inclusive (first, last) shadow intervals over the tissue.

    Returns (uint8 frame, uint8 truth labels).
    """
    img = tissue.copy()
    labels = np.zeros(W, dtype=np.uint8)
    for a, b in intervals:
        img[:, a : b + 1] = shadow[:, a : b + 1]
        labels[a : b + 1] = 1
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5).astype(np.uint8), labels


def bell(i, n):
    """The sweep's bell shape, 1 at the middle frame; s = n/6."""
    mu, s = (n - 1) / 2.0, n / 6.0
    return math.exp(-((i - mu) ** 2) / (2.0 * s * s))


def tilt_intervals(i, n):
    """Shadow intervals of frame i of an n-frame probe-tilt sweep.

    A centred visible band widens from 10% of the width at the ends of the
    sweep to 90% at its middle, following the bell curve.
    """
    band = int(round((0.1 + 0.8 * bell(i, n)) * W))
    start = (W - band) // 2
    intervals = []
    if start > 0:
        intervals.append((0, start - 1))
    if start + band < W:
        intervals.append((start + band, W - 1))
    return tuple(intervals)


class TiltStream:
    """Probe-tilt sweeps of ``n`` frames; no two frames of a run are equal.

    A sweep scans one tissue texture from a small seeded pool, shifted
    circularly by a per-sweep offset.  Each frame adds its own speckle
    decorrelation (small Gaussian jitter) and its own shadow noise, both
    drawn from pools and shifted by an offset unique to the frame, so
    frames never repeat bit for bit and reuse across frames gains
    nothing, while the texture stays put under the sweep so that its
    mean confidence follows the visible band.  A frame renders in about
    2 ms.
    """

    def __init__(self, seed, n, pool=8, jitter=JITTER):
        rng = np.random.default_rng([seed, 1])
        self.n = n
        self.tissue = [texture(rng) for _ in range(pool)]
        self.jitter = [rng.normal(0.0, jitter, size=(H, W)) for _ in range(pool)]
        self.shadow = [shadow_noise(rng) for _ in range(pool)]

    def sweep(self, index):
        """Frames of sweep ``index``: a list of (frame, truth) pairs."""
        pool = len(self.tissue)
        tissue = np.roll(self.tissue[index % pool], _shift(index // pool), axis=(0, 1))
        frames = []
        for i in range(self.n):
            j = index * self.n + i
            shift = _shift(j // pool)
            jitter = np.roll(self.jitter[j % pool], shift, axis=(0, 1))
            shadow = np.roll(self.shadow[j % pool], shift, axis=(0, 1))
            frames.append(render(tissue + jitter, shadow, tilt_intervals(i, self.n)))
        return frames


def _shift(m):
    """Circular shift, one to one in m for m < H * W: 131 is prime to H and
    257 to W."""
    return (131 * m) % H, (257 * (m // H)) % W


def sample_intervals(rng):
    """One or two shadows, each narrow (59-60 px) or wide (110-160 px).

    Narrow shadows leave their flanking tissue columns just over 60 px
    apart, so the triangle edge bound (epsilon) and the column bar (tau)
    both change labels, and a parameter grid has something to choose.
    """
    margin, gap, half = 60, 50, W // 2
    widths = [
        int(rng.integers(59, 61)) if rng.random() < 0.4 else int(rng.integers(110, 161))
        for _ in range(2 if rng.random() < 0.5 else 1)
    ]
    if len(widths) == 2:
        a0 = int(rng.integers(margin, half - gap // 2 - widths[0]))
        b0 = a0 + widths[0] - 1
        a1 = int(rng.integers(max(b0 + gap, half), W - margin - widths[1]))
        return ((a0, b0), (a1, a1 + widths[1] - 1))
    a = int(rng.integers(margin, W - margin - widths[0]))
    return ((a, a + widths[0] - 1),)


def dataset(seed, n_frames, n_groups=10, n_folds=3):
    """A labelled dataset and its fold manifest.

    Frames are grouped in order; each group is unseen in exactly one fold
    and seen in the others.  Returns ({frame id: (frame, truth)},
    [(frame id, group id, fold, role)]).
    """
    rng = np.random.default_rng([seed, 2])
    frames, entries = {}, []
    for i in range(n_frames):
        intervals = sample_intervals(rng)
        frame_id = f"frame{i:03d}"
        frames[frame_id] = render(texture(rng), shadow_noise(rng), intervals)
        group = i * n_groups // n_frames
        for fold in range(1, n_folds + 1):
            role = "unseen" if fold == group % n_folds + 1 else "seen"
            entries.append((frame_id, f"g{group}", fold, role))
    return frames, entries


def write_dataset(frames, entries, directory):
    """Write binary PGM frames, label sidecars and ``folds.txt``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for frame_id, (img, labels) in frames.items():
        (directory / f"{frame_id}.pgm").write_bytes(b"P5\n%d %d\n255\n" % (W, H) + img.tobytes())
        (directory / f"{frame_id}.labels").write_text("".join(map(str, labels)) + "\n")
    lines = "".join(f"{f} {g} {fold} {role}\n" for f, g, fold, role in entries)
    (directory / "folds.txt").write_text(lines)
