"""Grayscale frame and sidecar I/O.

Images travel as 8-bit PGM files (binary P5 preferred, ASCII P2 accepted)
and are held in memory as 2D numpy arrays indexed [row, column], row 0 at
the top.  Scan-line labels live in flat ``<frame>.labels`` sidecars: one
'0'/'1' character per image column, '1' marking an acoustic-shadow column.
Real-valued maps are written either as max-scaled 8-bit PGM or as CSV with
the true maximum recorded in a header comment.
"""

import os

import numpy as np

from .errors import FormatError, number_text

__all__ = [
    "load_image",
    "write_image",
    "crop_top",
    "load_labels",
    "write_labels",
    "write_map",
    "load_dataset",
]


def _read_pgm_tokens(data, count):
    """Yield the first `count` whitespace-separated tokens after the magic,
    honoring '#' comments, and the offset just past the last one."""
    tokens = []
    pos = 2  # past the 2-byte magic
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos] in b" \t\r\n":
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < n and data[pos] not in b" \t\r\n":
            pos += 1
        if start == pos:
            raise FormatError("malformed PGM header: truncated")
        tokens.append(data[start:pos])
    return tokens, pos


def load_image(path):
    """Load an 8-bit PGM (P5 or P2) as a uint8 array of shape (height, width).

    Pixel values are taken verbatim; no rescaling.  Raises FormatError with
    a distinct message for a bad magic, a malformed header, an unsupported
    bit depth (maxval != 255), or a truncated/overlong payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise FormatError(f"{path}: not a PGM file (too short)")
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise FormatError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        tokens, pos = _read_pgm_tokens(data, 3)
        width, height, maxval = (int(t) for t in tokens)
    except (FormatError, ValueError) as exc:
        raise FormatError(f"{path}: malformed PGM header ({exc})") from None
    if width < 1 or height < 1:
        raise FormatError(f"{path}: malformed PGM header (empty dimensions)")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported bit depth (maxval {maxval}, want 255)")
    if magic == b"P5":
        payload = data[pos + 1 :]  # single whitespace byte ends the header
        if len(payload) != width * height:
            raise FormatError(
                f"{path}: truncated payload ({len(payload)} bytes, "
                f"want {width * height})"
            )
        pixels = np.frombuffer(payload, dtype=np.uint8)
    else:
        fields = data[pos:].split()
        if len(fields) != width * height:
            raise FormatError(
                f"{path}: truncated payload ({len(fields)} samples, "
                f"want {width * height})"
            )
        try:
            pixels = np.array([int(f) for f in fields], dtype=np.int64)
        except ValueError:
            raise FormatError(f"{path}: malformed ASCII sample") from None
        if pixels.min() < 0 or pixels.max() > 255:
            raise FormatError(f"{path}: sample out of range [0, 255]")
        pixels = pixels.astype(np.uint8)
    return pixels.reshape(height, width)


def write_image(img, path):
    """Write a (height, width) uint8 array as binary PGM (P5)."""
    img = np.ascontiguousarray(np.asarray(img, dtype=np.uint8))
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(img.tobytes())


def crop_top(img, rows):
    """Drop `rows` rows from the top of the frame; width is unchanged."""
    img = np.asarray(img)
    if not 0 <= rows < img.shape[0]:
        raise ValueError(
            f"crop_rows must lie in [0, {img.shape[0]}), the frame height, got {number_text(rows)}"
        )
    return img[rows:]


def load_labels(path, expected_width=None):
    """Parse one label sidecar: exactly W characters from {'0','1'} plus an
    optional trailing newline.  Returns a uint8 vector."""
    with open(path, "rb") as fh:
        text = fh.read().decode("ascii", errors="replace")
    text = text.rstrip("\r\n")
    bad = set(text) - {"0", "1"}
    if bad:
        raise FormatError(
            f"{path}: invalid label character {sorted(bad)[0]!r}"
        )
    if expected_width is not None and len(text) != expected_width:
        raise FormatError(
            f"{path}: label length mismatch ({len(text)} labels for "
            f"width {expected_width})"
        )
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def write_labels(labels, path):
    """Write a 0/1 vector as a flat character string plus newline."""
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        fh.write("".join("1" if v else "0" for v in labels))
        fh.write("\n")


def load_dataset(directory):
    """Load all ``<frame>.pgm`` + ``<frame>.labels`` pairs, sorted by id.

    Returns {frame_id: (image, labels)}.  Frames without a sidecar raise
    FormatError naming the offender; label/width mismatches are rejected.
    """
    dataset = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".pgm"):
            continue
        frame_id = name[: -len(".pgm")]
        img = load_image(os.path.join(directory, name))
        sidecar = os.path.join(directory, frame_id + ".labels")
        if not os.path.exists(sidecar):
            raise FormatError(f"{sidecar}: missing label sidecar")
        dataset[frame_id] = (img, load_labels(sidecar, img.shape[1]))
    return dataset


def write_map(field, path, mode="linear-8bit"):
    """Write a real-valued 2D field.

    linear-8bit: PGM with v -> round(255 * v / max(field)); an all-zero
    field writes all zeros, and a value below zero, which no 8-bit pixel
    holds, raises ValueError.  csv-float: row-major full-precision CSV with
    the true maximum in a leading ``# max=`` comment line.
    """
    field = np.asarray(field, dtype=np.float64)
    if not np.all(np.isfinite(field)):
        raise ValueError("map contains non-finite values")
    peak = float(field.max()) if field.size else 0.0
    if mode == "linear-8bit":
        if field.size and field.min() < 0.0:
            raise ValueError("map contains negative values, which linear-8bit cannot write")
        if peak > 0.0:
            scaled = np.floor(field * 255.0 / peak + 0.5)
        else:
            scaled = np.zeros_like(field)
        write_image(scaled.astype(np.uint8), path)
    elif mode == "csv-float":
        # each distinct value is formatted once; values are told apart by
        # their bits, so -0.0 keeps its own repr
        bits = np.ascontiguousarray(field).view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        text = np.array([repr(float(v)) for v in distinct.view(np.float64)], dtype=object)
        with open(path, "w") as fh:
            fh.write(f"# max={peak!r}\n")
            for row in text[index.reshape(field.shape)]:
                fh.write(",".join(row.tolist()))
                fh.write("\n")
    else:
        raise ValueError(f"unknown map mode {mode!r}")
