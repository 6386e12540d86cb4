"""Caplet volatility stripping from cap quotes under the normal model."""

from .bachelier import (
    CapletQuoteInputs,
    NegativeTimeValueError,
    implied_vol,
    price,
    price_vector,
)
from .cli import RunConfig, compare_methods, evaluated_curve, run_pipeline
from .diagnostics import (
    CapQuoteSet,
    DiagnosticsReport,
    OutlierReport,
    cap_prices,
    decompose,
    detect_outliers,
    isotonic_floor,
)
from .stripping import (
    StripConfig,
    StripResult,
    add_synthetic_far_quote,
    bootstrap_sequential,
    place_nodes,
    strip_global,
    strip_time_value,
)
from .term_structures import CapletSchedule, InputError, ZeroCurve, build_schedule
from .vol_interpolation import FAMILIES, TransitionKernel, VolCurve, build_monotone_c2

__all__ = [
    "CapletQuoteInputs",
    "CapletSchedule",
    "CapQuoteSet",
    "DiagnosticsReport",
    "FAMILIES",
    "InputError",
    "NegativeTimeValueError",
    "OutlierReport",
    "RunConfig",
    "StripConfig",
    "StripResult",
    "TransitionKernel",
    "VolCurve",
    "ZeroCurve",
    "add_synthetic_far_quote",
    "bootstrap_sequential",
    "build_monotone_c2",
    "build_schedule",
    "cap_prices",
    "compare_methods",
    "decompose",
    "detect_outliers",
    "evaluated_curve",
    "implied_vol",
    "isotonic_floor",
    "run_pipeline",
    "place_nodes",
    "price",
    "price_vector",
    "strip_global",
    "strip_time_value",
]

__version__ = "0.1.0"
