"""Workbench for sets avoiding polynomial differences: exact polynomial
towers, sieve local data, circle-method audits, level-d energy checks,
density increments, and exact extremal-set solvers."""

from .polycore import IntPoly, normalize_positive, poly_eval
from .intersective import (
    AuxiliaryBuilder,
    AuxiliaryContext,
    Certified,
    EmpiricalUpTo,
    LocalRootData,
    NotIntersective,
    coefficient_bound,
    inheritance_check,
    intersectivity_verdict,
    padic_roots,
)
from .sieve import SieveTable, J_factor, brun_sum_audit, in_W
from .search import (
    AvoidingSet,
    dmax_table,
    exact_max_avoiding,
    forbidden_values,
    greedy_avoiding,
    verify_avoiding,
)
from .harmonic import (
    ArcParams,
    HarmonicParams,
    SmoothWeight,
    classify_arc,
    fourier_grid,
    fourier_point,
    g_build,
    gauss_sum_sieved,
    initial_mass,
    major_arc_predict,
    minor_arc_audit,
    rational_approx,
    smooth_weight_build,
    weight_fourier_audit,
    weyl_sum_audit,
)
from .leveld import ModulusFamily, build_family, level_d_audit
from .increment import (
    F_eval,
    IncrementConfig,
    IterationTrace,
    Progression,
    StepOutcome,
    extract_increment,
    increment_step,
    iterate,
)

__version__ = "0.1.0"
