"""Maximum-modulus analysis of trigonometric trinomials.

Canonical reduction of a three-frequency trigonometric polynomial, location
and classification of its maximum-modulus points, exposed/extreme point
classification of the unit ball, phase sweeps, Sidon and multiplier
constants, hypotrochoid geometry, and an independent brute-force oracle.
"""

__version__ = "0.1.0"

from .constants import (
    MeasureLift,
    UnconditionalConstants,
    Witness,
    geometric_progression_bounds,
    lift_to_measure,
    multiplier_norm,
    sidon_constant,
    unconditional_constants,
)
from .extremal import (
    ExtremalClass,
    ExtremalEvidence,
    NoSolution,
    SingularConfiguration,
    UnitBallPoint,
    classify_unit_ball_point,
    parabola_invariant,
    reconstruct_from_two_points,
    unit_ball_point,
)
from .geometry import Curve, curve_point, farthest_points, hypotrochoid_sample
from .maxmod import (
    BracketFailure,
    MaxClassification,
    MaxResult,
    binomial_max,
    closed_form_k1_l1,
    closed_form_k2_l1,
    evaluate,
    find_max_reduced,
    half_derivative,
    locate_interval,
    localization_interval,
    max_points_global,
    modulus_squared_reduced,
    modulus_squared_trinomial,
)
from .oracle import (
    Agreement,
    OracleReport,
    VerificationRow,
    agreement,
    brute_max,
    brute_multiplier_norm,
    brute_sidon,
    golden_max,
    random_symmetric_pair,
    random_trinomial,
    run_verification,
)
from .phasecurves import (
    SweepRow,
    chebotarev_derivative,
    cos_quotient_bound,
    fstar,
    moduli_sum_bound,
    ratio_gstar,
    sweep_rows,
)
from .spectrum import (
    Multiplier,
    ReducedForm,
    SpectrumError,
    SpectrumGeometry,
    SpectrumStats,
    Transcript,
    Trinomial,
    canonical_reduction,
    derive_spectrum_stats,
    is_isometry,
    make_reduced_form,
    modular_inverse,
    opposition_signs,
    spectrum_geometry,
    wrap_angle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
