"""Exact and numerical verification of a 2x2 hypergeometric matrix weight
with the symmetry of the square.

The package computes one family of sector integrals three independent ways:
iterated modified-Laplacian calculus in exact rational arithmetic, exact
closed-form sums and recurrences, and high-accuracy quadrature with the
assembled weight matrix.  Their agreement pins the weight's normalization
constant cos(pi k0) cos(pi k1) / (2 pi).

The float modules ``quad`` and ``weight`` import numpy, so their names are
looked up on first use, through the module ``__getattr__`` below: ``import
b2weight`` and the exact routes never load it.
"""

import importlib

from .errors import (
    DegenerateParameterError,
    InexactDivisionError,
    InvarianceError,
    NotProportionalError,
    RegionError,
    ToleranceError,
)
from .hyper import (
    AlphaBetaSeq,
    HypResult,
    ParamPoint,
    SqueezeReport,
    alpha_beta_recurrence,
    alpha_closed,
    asym_f_check,
    beta_closed,
    chu_vandermonde,
    euler_transform,
    f_values,
    gamma_fn,
    gauss_2f1,
    h_func,
    s_inner_closed,
    squeeze_check,
    stirling_ratio,
)
from .ring import ParamPoly, poch, poly_eval
from .vpoly import (
    GroupElement,
    P12,
    P14,
    PHI,
    VPoly,
    XPoly,
    alpha_beta_via_laplacian,
    dunkl_d,
    group_act,
    inner_product_S_exact,
    laplacian,
    laplacian_power,
    product_rule_residual,
)

# name -> the float module that defines it
_FLOAT_NAMES = dict.fromkeys(
    ("QuadResult", "asym_integral_check", "sector_inner_numeric", "singular_integral"), "quad"
) | dict.fromkeys(
    ("WeightEval", "c_norm", "combo_forms", "d_consts", "eval_K", "eval_L"), "weight"
)


def __getattr__(name: str):
    # looked up in the submodule on every access and never stored here, so
    # a wrapper that bench/tracer.py installs in the submodule is seen here
    # while it is installed, and not after it is removed
    if name not in _FLOAT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_FLOAT_NAMES[name]}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "AlphaBetaSeq",
    "DegenerateParameterError",
    "GroupElement",
    "HypResult",
    "InexactDivisionError",
    "InvarianceError",
    "NotProportionalError",
    "P12",
    "P14",
    "PHI",
    "ParamPoint",
    "ParamPoly",
    "QuadResult",
    "RegionError",
    "SqueezeReport",
    "ToleranceError",
    "VPoly",
    "WeightEval",
    "XPoly",
    "alpha_beta_recurrence",
    "alpha_beta_via_laplacian",
    "alpha_closed",
    "asym_f_check",
    "asym_integral_check",
    "beta_closed",
    "c_norm",
    "chu_vandermonde",
    "combo_forms",
    "d_consts",
    "dunkl_d",
    "euler_transform",
    "eval_K",
    "eval_L",
    "f_values",
    "gamma_fn",
    "gauss_2f1",
    "group_act",
    "h_func",
    "inner_product_S_exact",
    "laplacian",
    "laplacian_power",
    "poch",
    "poly_eval",
    "product_rule_residual",
    "s_inner_closed",
    "sector_inner_numeric",
    "singular_integral",
    "squeeze_check",
    "stirling_ratio",
    "__version__",
]
