"""Malformed input raises SpectrumError at every entry point, and the package
re-exports exactly the public names of its modules."""

import math

import numpy as np
import pytest

import trinomax
from trinomax import (
    Multiplier,
    ReducedForm,
    SpectrumError,
    Trinomial,
    brute_max,
    brute_sidon,
    chebotarev_derivative,
    classify_unit_ball_point,
    fstar,
    hypotrochoid_sample,
    lift_to_measure,
    max_points_global,
    opposition_signs,
    random_trinomial,
    run_verification,
    sidon_constant,
    sweep_rows,
    unconditional_constants,
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
        lambda: unit_ball_point((-1, 0, 2), (INF, 0, 1), (0, 0, 0)),
        lambda: classify_unit_ball_point(unit_ball_point((-1, 0, 1), (1, 0, 0), (NAN, 0, 0))),
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
        lambda: Trinomial(-1, 0, 2, 1e160, 2e160, 3e160),
        lambda: Trinomial(-1, 0, 2, 1e-160, 2e-160, 3e-160),
        lambda: ReducedForm(1, 2, 1e101, 1.0, 1e101, 0.1),
        lambda: maxmod.closed_form_k1_l1(1e200, 1e200, 1e200),
        lambda: maxmod.closed_form_k2_l1(1e-300, 1e-300, 1e-300),
        lambda: Trinomial(0, 3 * 10**400, 5 * 10**400, 1, 2, 3),
        lambda: sidon_constant((0, 3 * 10**400, 5 * 10**400)),
        lambda: unit_ball_point((-1, 0, 2), (0, 0, 0), (0, 0, 0)),
        lambda: spectrum.modular_inverse(1.5, 3),
        lambda: spectrum.modular_inverse(2, "x"),
        lambda: random_trinomial(np.random.default_rng(0), modulus_range=(1.0, 0.5)),
        lambda: random_trinomial(np.random.default_rng(0), modulus_range=(1.0, 2.0, 1e-50)),
        lambda: random_trinomial(np.random.default_rng(0), modulus_range=(1.0,)),
        lambda: Trinomial(-1, 0, 2, "a", 1, 1),
        lambda: Trinomial(-1, 0, 2, None, 1, 1),
        lambda: Trinomial(-1, 0, 2, 1, 1, 1, "a"),
        lambda: Trinomial(-1, 0, 2, 1, 1, 1, 0.1, None),
        lambda: Multiplier("a", 0, 0),
        lambda: random_trinomial(np.random.default_rng(0), modulus_range=("a", "b")),
        lambda: ReducedForm(1, 2, "a", 1, 1, 0.1),
        lambda: ReducedForm(1, 2, 1, 1, 1, None),
    ],
    ids=[
        "unit-ball-nan-modulus",
        "unit-ball-inf-modulus",
        "binomial-inf",
        "unit-ball-nan-phase",
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
        "trinomial-moduli-above-range",
        "trinomial-moduli-below-range",
        "reduced-form-moduli-above-range",
        "closed-form-k1-moduli-above-range",
        "closed-form-k2-moduli-below-range",
        "trinomial-span-past-float-range",
        "sidon-span-past-float-range",
        "unit-ball-all-zero",
        "modular-inverse-fractional-argument",
        "modular-inverse-string-modulus",
        "random-trinomial-inverted-modulus-range",
        "random-trinomial-three-value-modulus-range",
        "random-trinomial-one-value-modulus-range",
        "trinomial-string-modulus",
        "trinomial-none-modulus",
        "trinomial-string-phase",
        "trinomial-none-phase",
        "multiplier-string-phase",
        "random-trinomial-string-modulus-range",
        "reduced-form-string-modulus",
        "reduced-form-none-phase",
    ],
)
def test_malformed_input_raises_spectrum_error(call):
    with pytest.raises(SpectrumError):
        call()


@pytest.mark.parametrize("seed", [-1, 1.5, "1"], ids=["negative", "fractional", "string"])
def test_verify_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(SpectrumError, match=f"seed must be a nonnegative integer, got {seed}"):
        run_verification(seed, 3)


def test_unit_ball_point_stores_the_checked_floats():
    # the point keeps the moduli and phases its Trinomial reads, not the raw input
    assert unit_ball_point((-1, 0, 1), ("1", 1, 1), (0, 0, 0)) == unit_ball_point(
        (-1, 0, 1), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
    )


@pytest.mark.parametrize(
    "moduli,phases,message",
    [
        (5, (0, 0, 0), "moduli must be real numbers"),
        ((), (0, 0, 0), "moduli must be real numbers"),
        (iter([1, 1]), (0, 0, 0), "need three moduli"),
        ((1, 1, 1), 7, "phases must be real numbers"),
        ((1, 1, 1), iter([0, 0]), "need three moduli"),
    ],
    ids=["scalar-moduli", "empty-moduli", "short-moduli-iterator", "scalar-phases", "short-phases-iterator"],
)
def test_unit_ball_point_checks_the_values_before_counting_them(moduli, phases, message):
    # the length test reads the checked tuples, so input without a length raises SpectrumError, not TypeError
    with pytest.raises(SpectrumError, match=message):
        unit_ball_point((-1, 0, 1), moduli, phases)


def test_unit_ball_point_takes_iterators_of_three():
    assert unit_ball_point((-1, 0, 1), iter([1, 2, 1]), iter([0, 1, 0])) == unit_ball_point(
        (-1, 0, 1), (1.0, 2.0, 1.0), (0.0, 1.0, 0.0)
    )


def test_unit_ball_moduli_message_says_finite():
    with pytest.raises(SpectrumError, match="finite"):
        unit_ball_point((-1, 0, 1), (1, NAN, 1), (0, 0, 0))


@pytest.mark.parametrize(
    "moduli", [(1e-101, 0, 1e-101), (1e200, 0, 1e200), (0, 1e200, 0)], ids=["binomial-below", "binomial-above", "monomial-above"]
)
def test_unit_ball_moduli_range_is_the_trinomial_rule(moduli):
    with pytest.raises(SpectrumError, match=r"the largest modulus must lie in \[1e-100, 1e\+100\]"):
        unit_ball_point((-1, 0, 2), moduli, (0, 0, 0))


def test_numpy_integers_are_accepted():
    i = np.int64
    tri = Trinomial(i(-1), i(0), i(2), 1.0, 2.0, 1.0, 0.1, 0.2, 0.3)
    assert tri == TRI
    assert max_points_global(tri) == max_points_global(TRI)
    assert brute_max(TRI, i(1024)) == brute_max(TRI, 1024)
    assert sidon_constant((i(-1), i(0), i(1))) == sidon_constant((-1, 0, 1))
    assert unconditional_constants((i(-1), i(0), i(1))) == unconditional_constants((-1, 0, 1))
    assert opposition_signs(i(-1), i(0), i(2)) == opposition_signs(-1, 0, 2)
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
