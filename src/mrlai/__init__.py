"""Reliability toolkit for mean-residual-life ageing intensity analysis.

Evaluates the MRL-based ageing intensity L(t) for closed-form and
composite lifetime distributions, classifies ageing behaviour, checks
stochastic orders, and reproduces a corpus of published worked examples
against an independent quadrature oracle.
"""

from .ageing import (
    Convention,
    MrlProfile,
    hazard,
    hazard_ai,
    mrl,
    mrl_average,
    mrlai,
    mrlai_closed_form,
    profile,
    survival_from_mrl,
)
from .classify import (
    Grid,
    Kind,
    MonotonicityVerdict,
    classify_hazard_ai,
    classify_mrl,
    classify_mrla,
    classify_mrlai,
    scan_monotonicity,
)
from .distributions import (
    Convolution,
    Dist,
    Erlang,
    Exponential,
    Mixture,
    MrlExponential,
    MrlLinear,
    MrlPiecewise,
    MrlReciprocalLinear,
    OrderStatistic,
    Pareto,
    PieceExpAffine,
    PieceLinear,
    PieceRecipLinear,
    PieceSqrtAffine,
    Scaled,
    Uniform,
    Weibull,
    build,
    dump_spec,
    load_spec,
    load_spec_file,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from .errors import (
    BeyondSupport,
    Divergence,
    DomainError,
    GridError,
    NonConvergence,
    NonPositiveMrl,
    SpecError,
    ToolkitError,
    UnknownCase,
    UnsupportedCapability,
)
from .ops import convolution, mixture, order_statistic, parallel, scale
from .orders import (
    OrderVerdict,
    Relation,
    ScaleReport,
    Witness,
    check_scale_preservation,
    icx_order,
    linear_mrl_order,
    lr_order,
    mrl_order,
    mrlai_order,
    ratio_test,
    sufficient_conditions,
    vrl_order,
    weibull_rule,
)
from .quadrature import (
    CumulativeTable,
    QuadConfig,
    cumulative_on_grid,
    integrate_finite,
    integrate_tail,
)

__version__ = "1.0.0"
