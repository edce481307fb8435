"""Reliability capacity regions for DC grids with mean-reverting injections.

The package computes how likely a transmission line is to overload, in
current or in temperature, when nodal power injections fluctuate around a
scheduled operating point, and turns those overload decay rates into
polyhedral capacity regions and at-risk-line partitions.
"""
from .errors import (
    GridCapError,
    SchemaError,
    RoleError,
    GraphError,
    ParseError,
    ZeroBaseFlow,
    SingularReducedLaplacian,
    RankDeficiency,
    InfeasibleStart,
    ZeroVarianceLine,
    NoStochasticLines,
    NonUniformGamma,
    NonUniformTau,
    NonPositiveTau,
    NoBoundaryHit,
    BoundCollapse,
    EmptySlice,
    InsufficientHits,
)
from .grid_model import (
    GridNetwork,
    DcFlowMatrices,
    OperatingPoint,
    build_laplacian,
    build_flow_matrices,
    operating_point,
)
from .injections import (
    OuModel,
    ou_step_coefficients,
)
from .thermal import (
    filter_coefficients,
    overload_threshold_equivalence,
)
from .ld_rates import (
    PsiContext,
    DecayRateReport,
    psi,
    current_decay_rate,
    lb_decay_rate,
    taylor_decay_rate,
    full_report,
)
from .exact1d import (
    Exact1dProblem,
    Exact1dResult,
    ShotResult,
    certified_rate,
    exact_decay_rate,
)
from .region import (
    REGION_KINDS,
    CapacityRegion,
    Slice2D,
    RiskPartition,
    noise_margins,
    build_region,
    contains,
    slice2d,
    risk_partition,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    McIndicators,
    DecayFit,
    wilson_interval,
    overload_indicators,
    overload_probability,
    decay_slope,
)
from .io_formats import (
    NetworkDocument,
    MatpowerCaseSubset,
    BuiltModel,
    AnalysisDefaults,
    parse_native,
    serialize_native,
    parse_matpower,
    net_injections,
    apply_imax_rule,
    resolve_auto_ratings,
    build_model,
    export_report,
    export_region,
    export_slice,
    export_partition,
    export_mc,
    export_exact1d,
)

__version__ = "0.1.0"
