"""Exception types shared across the package, and numbers in messages.

Kept in one place so the CLI can map each failure class to a distinct
exit code (I/O errors are plain OSError and need no class here).
"""

from decimal import MAX_EMAX, Context, Decimal


def number_text(value):
    """`value` as ``:.6g`` writes it, for a message; also an int past
    float range, which ``:.6g`` cannot convert: 10**400 is ``1e+400``."""
    try:
        return f"{value:.6g}"
    except OverflowError:
        return f"{Decimal(value).normalize(Context(prec=6, Emax=MAX_EMAX)):e}"


class FormatError(ValueError):
    """Malformed input data: bad PGM header, label sidecar, config file, ..."""


class TriangleCapError(RuntimeError):
    """Triangle enumeration aborted because the safety cap was exceeded."""

    def __init__(self, cap):
        super().__init__(
            f"triangle count exceeded the safety cap of {cap}; "
            "the point cloud is pathologically dense"
        )
        self.cap = cap
