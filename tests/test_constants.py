import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trinomax
from trinomax import (
    Multiplier,
    SpectrumError,
    Trinomial,
    canonical_reduction,
    evaluate,
    lift_to_measure,
    max_points_global,
    multiplier_norm,
    opposition_signs,
    sidon_constant,
    spectrum_geometry,
    unconditional_constants,
)
from trinomax.constants import UnconditionalConstants, _norm_at

TWO_PI = 2.0 * math.pi
# |signed tau| at or below this counts as an isometry
ISOMETRY_TAU_TOL = 1e-9


class TestMultiplierNorm:
    def test_quarter_turn_on_symmetric_spectrum(self):
        norm, witness = multiplier_norm((-1, 0, 1), Multiplier(0, math.pi / 2, 0))
        assert norm == pytest.approx(math.sqrt(2), rel=1e-14)
        assert witness.attained == pytest.approx(norm, rel=1e-9)

    def test_isometric_multiplier_has_norm_one(self):
        norm, _ = multiplier_norm((-1, 0, 1), Multiplier(0.3, 0.3, 0.3))
        assert norm == pytest.approx(1.0, rel=1e-14)

    def test_wider_spectrum(self):
        norm, _ = multiplier_norm((-1, 0, 2), Multiplier(0, math.pi / 2, 0))
        assert norm == pytest.approx(math.cos(math.pi / 12) / math.cos(math.pi / 6), rel=1e-14)

    def test_norm_at_least_one_and_one_iff_isometry(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            freqs = (-2, 1, 3)
            mult = Multiplier(*rng.uniform(0, TWO_PI, 3))
            norm, _ = multiplier_norm(freqs, mult)
            iso = abs(spectrum_geometry(freqs).signed_tau(mult.phases)) <= ISOMETRY_TAU_TOL
            assert norm >= 1.0 - 1e-13
            assert (norm <= 1.0 + 1e-9) == iso

    def test_witness_attains_the_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            freqs = (-3, 0, 2)
            mult = Multiplier(*rng.uniform(0, TWO_PI, 3))
            norm, witness = multiplier_norm(freqs, mult)
            assert witness.attained == pytest.approx(norm, rel=1e-9)
            # the witness phases satisfy the extremal congruence
            red = canonical_reduction(Trinomial(*witness.frequencies, 1, 1, 1, *witness.phases))
            assert red.tau == pytest.approx(math.pi, abs=1e-9)

    def test_witness_is_the_multiplier_applied(self):
        # the sorted phases pass a full turn on the witness, so its phases are reduced
        mult = Multiplier(0.7, 5.9, 6.1)
        _, witness = multiplier_norm((2, -1, 0), mult)
        w = witness.trinomial
        shifted = Multiplier(*spectrum_geometry((2, -1, 0)).sort(mult.phases)).apply(w)
        assert witness.attained == max_points_global(shifted).value / max_points_global(w).value


def test_inputs_are_checked_once(count_rules):
    # the input once; multiplier_norm also builds its witness and the shifted witness
    rules = ("_frequencies", "_check_moduli", "_check_phases")
    assert count_rules(lambda: unconditional_constants((-1, 0, 2)), *rules) == {"_frequencies": 1}
    mult = Multiplier(0.0, 1.5, 0.0)
    assert count_rules(lambda: multiplier_norm((-1, 0, 2), mult), *rules) == {
        "_frequencies": 3, "_check_moduli": 2, "_check_phases": 2
    }


class TestSidonConstant:
    def test_symmetric_spectrum(self):
        constant, witness = sidon_constant((-1, 0, 1))
        assert constant == pytest.approx(math.sqrt(2), rel=1e-14)
        assert witness.moduli == (1.0, 2.0, 1.0)
        assert witness.attained == pytest.approx(constant, rel=1e-9)

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    def test_model_spectra(self, k, l):
        constant, _ = sidon_constant((-k, 0, l))
        assert constant == pytest.approx(1.0 / math.cos(math.pi / (2 * (k + l))), rel=1e-14)

    def test_dilation_invariance(self):
        base, _ = sidon_constant((-1, 0, 1))
        dilated, _ = sidon_constant((-2, 0, 2))
        tripled, _ = sidon_constant((-3, 0, 3))
        assert dilated == pytest.approx(base, rel=1e-15)
        assert tripled == pytest.approx(base, rel=1e-15)

    def test_witness_minimises_over_phases(self):
        # the minimum over phases of the maximum at witness moduli times the
        # constant recovers the moduli sum
        constant, witness = sidon_constant((-1, 0, 2))
        w = witness.trinomial
        total = w.r1 + w.r2 + w.r3
        assert constant * max_points_global(w).value == pytest.approx(total, rel=1e-9)

    def test_matches_multiplier_norm_at_half_turn(self):
        freqs = (0, 1, 3)
        constant, _ = sidon_constant(freqs)
        # any multiplier with invariant pi realises the constant
        phases = (0.0, math.pi / spectrum_geometry(freqs).D, 0.0)
        norm, _ = multiplier_norm(spectrum_geometry(freqs).lams, Multiplier(*phases))
        assert norm == pytest.approx(constant, rel=1e-14)


def test_witnessed_constants_stop_at_the_solve_resolution():
    # a constant whose witness max_points_global cannot check is not reported;
    # unconditional_constants has no witness and answers at any D
    freqs = (0, 1, 10**9)
    with pytest.raises(SpectrumError, match="past float resolution"):
        sidon_constant(freqs)
    with pytest.raises(SpectrumError, match="past float resolution"):
        multiplier_norm(freqs, Multiplier(0, 1, 0))
    assert unconditional_constants(freqs).real_constant == _norm_at(math.pi, 10**9)


class TestMeasureLift:
    def test_identity_at_zero_phase(self):
        lift = lift_to_measure(1, 2, 0.0)
        assert lift.atom0 == pytest.approx(1.0 + 0j)
        assert lift.atom1 == pytest.approx(0.0 + 0j)

    def test_equal_atoms_at_half_turn(self):
        lift = lift_to_measure(1, 1, math.pi / 2)
        assert abs(lift.atom0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert abs(lift.atom1) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert lift.total_variation == pytest.approx(math.sqrt(2), rel=1e-14)

    @pytest.mark.parametrize("k,l,frac", [(1, 1, 0.5), (2, 1, 1.0), (1, 2, 0.3), (3, 2, 0.8)])
    def test_total_variation_equals_norm(self, k, l, frac):
        t = frac * math.pi / (k + l)
        lift = lift_to_measure(k, l, t)
        norm, _ = multiplier_norm((-k, 0, l), Multiplier(0.0, t, 0.0))
        assert lift.total_variation == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("k,l,frac", [(1, 1, 0.5), (2, 1, 0.7), (1, 3, 1.0)])
    def test_convolution_reproduces_the_multiplier(self, k, l, frac):
        t = frac * math.pi / (k + l)
        lift = lift_to_measure(k, l, t)
        witness = Trinomial(-k, 0, l, l, k + l, k, 0.0, math.pi / (k + l), 0.0)
        shifted = Trinomial(-k, 0, l, l, k + l, k, 0.0, math.pi / (k + l) + t, 0.0)
        for x in np.linspace(0, TWO_PI, 16, endpoint=False):
            conv = lift.convolve(lambda y: evaluate(witness, y), float(x))
            assert conv == pytest.approx(evaluate(shifted, float(x)), rel=1e-12, abs=1e-12)

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(SpectrumError):
            lift_to_measure(1, 1, 2.0)


class TestUnconditionalConstants:
    def test_symmetric_spectrum(self):
        res = unconditional_constants((-1, 0, 1))
        assert res.real_constant == pytest.approx(math.sqrt(2), rel=1e-13)
        assert res.complex_constant == pytest.approx(math.sqrt(2), rel=1e-13)
        assert res.equal_valuation_pair == (1, 3)
        assert len(res.isometric_patterns) == 4
        assert len(res.non_isometric_patterns) == 4
        # sign patterns agreeing on the equal-valuation pair are the isometries
        for signs in res.isometric_patterns:
            assert signs[0] == signs[2]
        for signs in res.non_isometric_patterns:
            assert signs[0] != signs[2]

    def test_zero_one_three(self):
        res = unconditional_constants((0, 1, 3))
        assert res.real_constant == pytest.approx(1.0 / math.cos(math.pi / 6), rel=1e-13)
        assert res.complex_constant == pytest.approx(res.real_constant, rel=1e-13)

    def test_isometric_patterns_have_norm_one(self):
        res = unconditional_constants((-2, 1, 5))
        for signs in res.isometric_patterns:
            phases = tuple(0.0 if s > 0 else math.pi for s in signs)
            norm, _ = multiplier_norm((-2, 1, 5), Multiplier(*phases))
            assert norm == pytest.approx(1.0, rel=1e-13)

    def test_random_spectra_structure(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            freqs = rng.integers(-12, 13, size=3)
            if len(set(freqs.tolist())) != 3:
                continue
            freqs = tuple(int(f) for f in freqs)
            res = unconditional_constants(freqs)
            constant, _ = sidon_constant(freqs)
            assert res.real_constant == pytest.approx(constant, rel=1e-12)
            assert len(res.isometric_patterns) == 4


def float_unconditional_constants(frequencies) -> UnconditionalConstants:
    """The float derivation the parity rule replaced, kept as a reference: the
    eight sign patterns' |signed tau| against ISOMETRY_TAU_TOL, the real constant
    as the largest norm over them, and the pair by its 2-adic valuations."""
    geo = spectrum_geometry(frequencies)
    isometric, non_isometric, real_constant = [], [], 1.0
    for bits in range(8):
        signs = tuple(1 if bits & (1 << j) == 0 else -1 for j in range(3))
        tau = abs(geo.signed_tau(tuple(0.0 if s > 0 else math.pi for s in signs)))
        real_constant = max(real_constant, _norm_at(tau, geo.D))
        (isometric if tau <= ISOMETRY_TAU_TOL else non_isometric).append(signs)
    pairs = ((0, 1), (0, 2), (1, 2))
    gaps = [geo.lams[j] - geo.lams[i] for i, j in pairs]
    top = pairs[max(range(3), key=lambda n: gaps[n] & -gaps[n])]  # gap & -gap: its largest power of two
    return UnconditionalConstants(
        real_constant=real_constant,
        complex_constant=_norm_at(math.pi, geo.D),
        equal_valuation_pair=tuple(sorted(geo.perm[i] + 1 for i in top)),
        isometric_patterns=tuple(isometric),
        non_isometric_patterns=tuple(non_isometric),
    )


def parity_reference(frequencies, signs) -> int:
    """1 if the sign pattern's phase invariant is pi, 0 if it is an isometry, in
    Python ints: the parity of -l*b1 + (k+l)*b2 - k*b3 on the sorted frequencies,
    with b = 1 where the sign is -1."""
    (f1, b1), (f2, b2), (f3, b3) = sorted(zip(frequencies, (int(s < 0) for s in signs)))
    d = math.gcd(f2 - f1, f3 - f2)
    k, l = (f2 - f1) // d, (f3 - f2) // d
    return (-l * b1 + (k + l) * b2 - k * b3) % 2


# diameters where the float tau of a sign pattern lies more than ISOMETRY_TAU_TOL from 0 or pi
LARGE_SPECTRA = [
    (0, 1, 5_340_355),
    (0, 1, 10**9),
    (0, 3 * 10**8, 5 * 10**8 + 1),
    (0, 3 * 10**16, 2**60 + 1),
    (0, 3 * 10**300, 5 * 10**300 + 1),
]


class TestSignPatternParity:
    def test_matches_the_float_derivation(self):
        rng = random.Random(5)
        for _ in range(2000):
            span = int(10 ** rng.uniform(1.0, 5.0))
            freqs = (0, rng.randint(1, span - 1), span)
            freqs = tuple(rng.sample(freqs, 3))
            assert unconditional_constants(freqs) == float_unconditional_constants(freqs), freqs

    @pytest.mark.parametrize("freqs", LARGE_SPECTRA)
    def test_patterns_exact_at_any_diameter(self, freqs):
        res = unconditional_constants(freqs)
        assert len(res.isometric_patterns) == 4 and len(res.non_isometric_patterns) == 4
        assert [parity_reference(freqs, s) for s in res.isometric_patterns] == [0] * 4
        assert [parity_reference(freqs, s) for s in res.non_isometric_patterns] == [1] * 4

    @pytest.mark.parametrize("freqs", LARGE_SPECTRA)
    def test_opposition_exact_at_any_diameter(self, freqs):
        assert parity_reference(freqs, opposition_signs(*freqs)) == 1

    def test_the_same_under_python_O(self):
        # python -O strips assert statements; the rule must not lean on one
        code = (
            "import ast, sys; from trinomax import opposition_signs, unconditional_constants\n"
            "for f in ast.literal_eval(sys.argv[1]): print(unconditional_constants(f), opposition_signs(*f))"
        )
        src = str(Path(trinomax.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code, repr(LARGE_SPECTRA)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines() == [
            f"{unconditional_constants(f)} {opposition_signs(*f)}" for f in LARGE_SPECTRA
        ]


def geometric_progression_bounds(q: int) -> tuple[float, float, float]:
    """The paper's bounds for the Sidon constant of {1, q, q^2, ...}, q >= 3:
    1 + pi^2/(8*(q+1)^2), sec(pi/(2*(q+1))) and 1 + pi^2/(2*q^2 - 2 - pi^2)."""
    lower1 = 1.0 + math.pi**2 / (8.0 * (q + 1) ** 2)
    lower2 = 1.0 / math.cos(math.pi / (2 * (q + 1)))
    upper = 1.0 + math.pi**2 / (2.0 * q * q - 2.0 - math.pi**2)
    return lower1, lower2, upper


class TestGeometricProgressionBounds:
    # the three-point section {1, q, q^2} is a subset of the progression, so its
    # constant lies below the progression's upper bound

    def test_q_three_values(self):
        constant, witness = sidon_constant((1, 3, 9))
        assert constant == pytest.approx(1 / math.cos(math.pi / 8), rel=1e-14)
        assert witness.attained == pytest.approx(constant, rel=1e-9)
        assert 1 + math.pi**2 / 128 < constant < 1 + math.pi**2 / (16 - math.pi**2)

    @pytest.mark.parametrize("q", [3, 4, 5, 9, 20])
    def test_ordering(self, q):
        lower1, lower2, upper = geometric_progression_bounds(q)
        constant, _ = sidon_constant((1, q, q * q))
        assert 1.0 < lower1 <= constant <= upper
        assert constant == pytest.approx(lower2, rel=1e-14)

    @pytest.mark.parametrize("q", [3, 4, 7])
    def test_middle_term_is_the_three_point_constant(self, q):
        # {1, q, q^2} is (-1, 0, q) dilated by q - 1 and shifted, so D = q + 1
        assert spectrum_geometry((1, q, q * q)).D == q + 1
        constant, _ = sidon_constant((1, q, q * q))
        assert constant == pytest.approx(geometric_progression_bounds(q)[1], rel=1e-14)
