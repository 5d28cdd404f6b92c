"""Exact symmetric-group character degrees and certified exponential bounds.

The package computes degrees of irreducible symmetric-group characters via
the hook-length formula in exact big-integer arithmetic and certifies a
family of exponential lower bounds on them (hook-strip, rectangle,
overexponential square, staircase typing, diagram reduction, and the
classified theorem dispatch), each as a construction plus an exact or
log-domain comparison against the true degree.
"""

from .bounds import (
    ReductionTrace,
    general_bound,
    overexponential_bound,
    rectangle_bound,
    reduce_diagram,
    strict_bound,
    strip_bound,
    theorem_classify,
)
from .celltyping import CellTyping, cell_typing, rho
from .certificates import BoundCertificate, certificate_from_json, revalidate
from .degrees import (
    count_syt_bruteforce,
    degree,
    log_degree,
    standard_tableaux,
    sum_squares_identity,
    verify_remark_N_ge_h,
)
from .errors import (
    ConsistencyError,
    DepthLimitError,
    EmptySampleSpaceError,
    GuardExceededError,
    HookBoundError,
    HypothesisError,
)
from .partitions import (
    Partition,
    count_partitions,
    enumerate_partitions,
    format_rational,
    parse_rational,
    sample_partition,
    unrank_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CellTyping",
    "ConsistencyError",
    "DepthLimitError",
    "EmptySampleSpaceError",
    "GuardExceededError",
    "HookBoundError",
    "HypothesisError",
    "Partition",
    "ReductionTrace",
    "cell_typing",
    "certificate_from_json",
    "count_partitions",
    "count_syt_bruteforce",
    "degree",
    "enumerate_partitions",
    "format_rational",
    "general_bound",
    "log_degree",
    "overexponential_bound",
    "parse_rational",
    "rectangle_bound",
    "reduce_diagram",
    "revalidate",
    "rho",
    "sample_partition",
    "standard_tableaux",
    "strict_bound",
    "strip_bound",
    "sum_squares_identity",
    "theorem_classify",
    "unrank_partition",
    "verify_remark_N_ge_h",
]
