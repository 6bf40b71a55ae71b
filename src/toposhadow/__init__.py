"""Topological visible-tissue detection for B-mode ultrasound frames.

Per-column acoustic-shadow labels and a per-pixel confidence map, from a
filter-stack saliency map, density-thinned point cloud, and proximity
triangles.  Includes a column-sum baseline, an evaluation harness, and a
synthetic phantom generator.
"""

from .baseline import select_kappa, thresh_classify
from .classify import DetectionResult, classify_scanlines, detect, scanline_counts
from .errors import FormatError, TriangleCapError
from .evaluation import (
    EvalReport,
    FoldSpec,
    MetricsReport,
    confusion,
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
from .frame_io import (
    crop_top,
    load_dataset,
    load_image,
    load_labels,
    write_image,
    write_labels,
    write_map,
)
from .saliency import (
    Params,
    deviation_map,
    filter_stack,
    gaussian_kernel_1d,
    std_map,
    threshold_points,
)
from .sparsify import density_field, thin
from .synth import PhantomSpec, make_dataset, synth_phantom, synth_tilt_sequence
from .topology import (
    Complex,
    confidence_map,
    mean_confidence,
    occurrence_map,
    rips_triangles,
)

__version__ = "0.1.0"

__all__ = [
    "Complex",
    "DetectionResult",
    "EvalReport",
    "FoldSpec",
    "FormatError",
    "MetricsReport",
    "Params",
    "PhantomSpec",
    "TriangleCapError",
    "classify_scanlines",
    "confidence_map",
    "confusion",
    "crop_top",
    "density_field",
    "detect",
    "deviation_map",
    "evaluate_folds",
    "filter_stack",
    "fit_normal_target",
    "gaussian_kernel_1d",
    "grid_search",
    "load_dataset",
    "load_folds",
    "load_image",
    "load_labels",
    "make_dataset",
    "mean_confidence",
    "occurrence_map",
    "oracle_predictor",
    "perturb_sweep",
    "rips_triangles",
    "scanline_counts",
    "select_kappa",
    "std_map",
    "synth_phantom",
    "synth_tilt_sequence",
    "thin",
    "thresh_classify",
    "threshold_points",
    "topol_predictor",
    "trajectory_rmse",
    "write_folds",
    "write_image",
    "write_labels",
    "write_map",
]
