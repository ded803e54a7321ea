"""Envelope gaps of bilinear functions over the unit cube, and large cuts in signed graphs.

A bilinear function b(x) = sum a_ij x_i x_j with one term per edge of a
signed weighted graph admits two standard relaxations over [0,1]^n: the
termwise upper/lower envelopes and the convex/concave envelopes of b
itself.  This package computes both, measures the gap between them, finds
cuts whose weight certifies a large hull gap, and decides exactly when the
termwise relaxation already describes the hull.
"""

from __future__ import annotations

from .cuts import (
    CutSearchResult,
    all_subset_cut_extremes,
    all_subset_gamma,
    cut_range_bruteforce,
    extreme_cuts,
    find_large_cut,
    half_weight_partition,
    max_cut_bruteforce,
    min_cut_bruteforce,
)
from .envelopes import (
    DualCertificate,
    EvaluationPoint,
    GapReport,
    dual_certificate,
    envelopes_halfpoint,
    evaluate_bilinear,
    gap_ratio,
    gap_report,
    hull_envelopes_lp,
    mccormick_envelopes,
    mcgap_halfpoint,
)
from .errors import CapacityError, CertificateError, InputError, InvariantViolationError
from .experiments import (
    EXPERIMENT_KINDS,
    CutStressRecord,
    ExperimentConfig,
    GapRecord,
    HullCensusRecord,
    run_experiment,
)
from .graph import (
    Cut,
    SignedWeightedGraph,
    VertexSubset,
    cross_weight,
    cut_weight,
    gamma_abs_weight,
    gamma_weight,
    read_instance,
    write_instance,
)
from .hullcheck import HullExactness, ViolatingCycle, check_hull_exact, verify_exactness_numerically
from .instances import (
    INSTANCE_FAMILIES,
    hadamard_discrepancy_bound,
    hadamard_instance,
    random_pm1_bipartite,
    random_pm1_complete,
    signed_cycle,
    signed_path,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CertificateError",
    "Cut",
    "CutSearchResult",
    "CutStressRecord",
    "DualCertificate",
    "EXPERIMENT_KINDS",
    "EvaluationPoint",
    "ExperimentConfig",
    "GapRecord",
    "GapReport",
    "HullCensusRecord",
    "HullExactness",
    "INSTANCE_FAMILIES",
    "InputError",
    "InvariantViolationError",
    "SignedWeightedGraph",
    "VertexSubset",
    "ViolatingCycle",
    "all_subset_cut_extremes",
    "all_subset_gamma",
    "check_hull_exact",
    "cross_weight",
    "cut_range_bruteforce",
    "cut_weight",
    "dual_certificate",
    "envelopes_halfpoint",
    "evaluate_bilinear",
    "extreme_cuts",
    "find_large_cut",
    "gamma_abs_weight",
    "gamma_weight",
    "gap_ratio",
    "gap_report",
    "hadamard_discrepancy_bound",
    "hadamard_instance",
    "half_weight_partition",
    "hull_envelopes_lp",
    "max_cut_bruteforce",
    "mccormick_envelopes",
    "mcgap_halfpoint",
    "min_cut_bruteforce",
    "random_pm1_bipartite",
    "random_pm1_complete",
    "read_instance",
    "run_experiment",
    "signed_cycle",
    "signed_path",
    "verify_exactness_numerically",
    "write_instance",
]
