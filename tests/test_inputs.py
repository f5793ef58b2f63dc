"""Malformed input raises SpectrumError at every entry point, and the package
re-exports exactly the public names of its modules."""

import math

import numpy as np
import pytest

import trinomax
from trinomax import (
    ReducedForm,
    SpectrumError,
    Trinomial,
    binomial_max,
    brute_max,
    brute_sidon,
    chebotarev_derivative,
    classify_unit_ball_point,
    cos_quotient_bound,
    fstar,
    geometric_progression_bounds,
    hypotrochoid_sample,
    lift_to_measure,
    max_points_global,
    random_trinomial,
    run_verification,
    sidon_constant,
    sweep_rows,
    unit_ball_point,
)
from trinomax import constants, extremal, geometry, maxmod, oracle, phasecurves, spectrum

NAN, INF = math.nan, math.inf
TRI = Trinomial(-1, 0, 2, 1.0, 2.0, 1.0, 0.1, 0.2, 0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: unit_ball_point((-1, 0, 1), (1, NAN, 1), (0, 0, 0)),
        lambda: unit_ball_point((-1, 0, 1), (INF, 1, 1), (0, 0, 0)),
        lambda: classify_unit_ball_point(unit_ball_point((-1, 0, 1), (1, 0, 0), (NAN, 0, 0))),
        lambda: binomial_max(INF, 1),
        lambda: brute_max(TRI, 1024.5),
        lambda: run_verification(1, 1.5),
        lambda: Trinomial(0.5, 1, 2, 1, 1, 1),
        lambda: sidon_constant((1.0, 2.0, 3.0)),
        lambda: ReducedForm(1.5, 1, 1, 1, 1, 0.1),
        lambda: lift_to_measure(1.0, 1, 0.1),
        lambda: sweep_rows(1, 1, 1, 1, 1, n=4.5),
        lambda: hypotrochoid_sample(TRI, 16.5),
        lambda: fstar(0, 0, 1, 1, 1, 0.1),
        lambda: sweep_rows(1, -1, 1, 1, 1, 4),
        lambda: chebotarev_derivative(-1, 1, 1, 1, 1, 0.1),
        lambda: chebotarev_derivative(1, 2, 1, 1, 1, 0.1, side="0"),
        lambda: chebotarev_derivative(1, 2, 1, 1, 1, 0.0),
        lambda: unit_ball_point((-1, 0, 1), (1, 1), (0, 0, 0)),
        lambda: unit_ball_point((-1, 0, 1), (1, 1, 1), (0.3,)),
        lambda: unit_ball_point((-1, 0, 1), (1, 1, 1, 1), (0, 0, 0)),
        lambda: brute_sidon((-1, 0, 1), grid_phases=0),
        lambda: brute_sidon((-1, 0, 1), simplex_n=2),
        lambda: random_trinomial(np.random.default_rng(0), modulus_range=(-1, 1)),
    ],
    ids=[
        "unit-ball-nan-modulus",
        "unit-ball-inf-modulus",
        "unit-ball-nan-phase",
        "binomial-inf",
        "brute-max-fractional-grid",
        "verify-fractional-count",
        "trinomial-fractional-frequency",
        "sidon-float-frequencies",
        "reduced-form-fractional-k",
        "lift-float-k",
        "sweep-fractional-n",
        "hypotrochoid-fractional-n",
        "fstar-zero-gap-sum",
        "sweep-zero-gap-sum",
        "chebotarev-zero-gap-sum",
        "chebotarev-unknown-side",
        "chebotarev-zero-phase",
        "unit-ball-two-moduli",
        "unit-ball-one-phase",
        "unit-ball-four-moduli",
        "sidon-no-phase-grid",
        "sidon-two-simplex-subdivisions",
        "random-trinomial-negative-moduli",
    ],
)
def test_malformed_input_raises_spectrum_error(call):
    with pytest.raises(SpectrumError):
        call()


def test_unit_ball_moduli_message_says_finite():
    with pytest.raises(SpectrumError, match="finite"):
        unit_ball_point((-1, 0, 1), (1, NAN, 1), (0, 0, 0))


def test_numpy_integers_are_accepted():
    i = np.int64
    assert cos_quotient_bound(1.0, 0.5, i(3)) == cos_quotient_bound(1.0, 0.5, 3)
    assert geometric_progression_bounds(i(3)) == geometric_progression_bounds(3)
    tri = Trinomial(i(-1), i(0), i(2), 1.0, 2.0, 1.0, 0.1, 0.2, 0.3)
    assert tri == TRI
    assert max_points_global(tri) == max_points_global(TRI)
    assert brute_max(TRI, i(1024)) == brute_max(TRI, 1024)
    assert sidon_constant((i(-1), i(0), i(1))) == sidon_constant((-1, 0, 1))
    # a reduced form with numpy gaps solves on the tau = pi branch too
    edge = math.pi / 3
    assert sweep_rows(i(1), i(2), 1.0, 2.0, 1.0, i(3)) == sweep_rows(1, 2, 1.0, 2.0, 1.0, 3)
    assert ReducedForm(i(1), i(2), 1.0, 2.0, 1.0, edge) == ReducedForm(1, 2, 1.0, 2.0, 1.0, edge)
    assert len(hypotrochoid_sample(TRI, i(16)).samples) == 16


MODULES = (constants, extremal, geometry, maxmod, oracle, phasecurves, spectrum)


def test_package_exports_exactly_the_module_names():
    union = {name for module in MODULES for name in module.__all__}
    assert set(trinomax.__all__) == union
    for name in union:
        assert getattr(trinomax, name) is getattr(
            next(m for m in MODULES if name in m.__all__), name
        )
