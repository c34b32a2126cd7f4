"""Step-size-adaptive search heuristics maintaining maximal feasible dual
solutions (2-approximate weighted vertex covers) under dynamic graph edits,
with exact arithmetic over Q(alpha^(1/4)) and a seeded benchmark harness."""

from .numeric import (Alpha, canonicalize_alpha, float_value, interval_sign,
                      q_max_for, sign_of_coeffs, step_coeffs)
from .graph import Edit, WeightedGraph, apply_edit, canonical_edge
from .dual import DualSolution, extract_cover
from .oracle import (CoverCertificate, ExactCoverResult, FitnessOutcome,
                     cover_certificate, enumerate_mfds, exhaustive_min_wvc,
                     reference_fitness, validate_mfds_naive)
from .instances import (HARD_VARIANTS, VARIANTS, DynamicInstance, derive_seed,
                        hard_instance, make_dynamic, random_dynamic,
                        random_edit, random_instance)
from .heuristics import (ALGORITHMS, RunConfig, RunResult, TransitionRecord,
                         run, run_reference)
from .harness import (BenchCell, BenchPlan, BenchRecord, ScalingCell,
                      bound_shape, execute_plan, format_scaling_report,
                      read_records, run_trial, scaling_report)

__version__ = "0.1.0"

__all__ = [
    "Alpha", "canonicalize_alpha", "float_value",
    "interval_sign", "q_max_for", "sign_of_coeffs", "step_coeffs",
    "Edit", "WeightedGraph", "apply_edit", "canonical_edge",
    "DualSolution", "extract_cover",
    "CoverCertificate", "ExactCoverResult", "FitnessOutcome",
    "cover_certificate", "enumerate_mfds", "exhaustive_min_wvc",
    "reference_fitness", "validate_mfds_naive",
    "HARD_VARIANTS", "VARIANTS", "DynamicInstance", "derive_seed",
    "hard_instance", "make_dynamic", "random_dynamic", "random_edit",
    "random_instance",
    "ALGORITHMS", "RunConfig", "RunResult", "TransitionRecord", "run",
    "run_reference",
    "BenchCell", "BenchPlan", "BenchRecord", "ScalingCell",
    "bound_shape", "execute_plan", "format_scaling_report", "read_records",
    "run_trial", "scaling_report",
    "__version__",
]
