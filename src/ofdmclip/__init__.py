"""ofdmclip: baseband OFDM PAPR reduction and link simulation.

Iterative clipping-and-filtering and peak windowing for crest-factor
reduction, with Monte Carlo CCDF and AWGN symbol-error-rate measurement.
"""

from .channel import awgn
from .crest import (ClipConfig, ClipReport, STRATEGIES, clip, oob_filter,
                    peak_window_suppress, rcf, threshold_from_ratio)
from .metrics import (CcdfCurve, ccdf_point_db, default_threshold_grid,
                      estimate_ccdf, papr_db)
from .modulation import (Constellation, SUPPORTED_ORDERS, constellation,
                         demap_points, map_bits)
from .simulate import papr_samples, ser_errors
from .transform import (OfdmConfig, analyze, embed_spectrum, extract_inband,
                        synthesize)
from .windows import DEFAULT_KAISER_BETA, WINDOW_NAMES, WindowKind, window

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "OfdmConfig", "synthesize", "analyze", "embed_spectrum", "extract_inband",
    "Constellation", "SUPPORTED_ORDERS", "constellation", "map_bits", "demap_points",
    "WindowKind", "WINDOW_NAMES", "DEFAULT_KAISER_BETA", "window",
    "ClipConfig", "ClipReport", "STRATEGIES", "threshold_from_ratio", "clip",
    "oob_filter", "peak_window_suppress", "rcf",
    "CcdfCurve", "papr_db", "estimate_ccdf", "ccdf_point_db", "default_threshold_grid",
    "awgn",
    "papr_samples", "ser_errors",
]
