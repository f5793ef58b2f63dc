import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomax import (
    Multiplier,
    ReducedForm,
    SpectrumError,
    Trinomial,
    canonical_reduction,
    evaluate,
    max_points_global,
    modular_inverse,
    opposition_signs,
    wrap_angle,
)
from trinomax.spectrum import (
    ISOMETRY_TAU_TOL,
    _geometry,
    _solve_common_shift,
    phase_combination,
    spectrum_geometry,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize(
    "freqs,phases,d,k,l,D,tau",
    [
        ((2, 5, 11), (0, 0, 0), 3, 1, 2, 3, 0.0),
        ((-1, 0, 1), (0, math.pi / 2, 0), 1, 1, 1, 2, math.pi),
        ((-2, 0, 1), (0, 0, 0), 1, 2, 1, 3, 0.0),
    ],
)
def test_spectrum_stats_examples(freqs, phases, d, k, l, D, tau):
    geo = spectrum_geometry(freqs)
    assert (geo.d, geo.k, geo.l, geo.D) == (d, k, l, D)
    assert canonical_reduction(Trinomial(*freqs, 1, 1, 1, *phases)).tau == pytest.approx(tau, abs=1e-12)
    assert (geo.l * geo.m) % geo.D == 1
    assert 1 <= geo.m <= geo.D - 1


@pytest.mark.parametrize(
    "triple", [(0, 1, 2), (-7, 3, -2), (-2**70, 5, 2**64 + 1), (10**30, -10**30, -3)], ids=str
)
def test_geometry_permutation_is_the_key_sort(triple):
    # every order of the triple, negative values and values past int64 included
    for f in itertools.permutations(triple):
        geo = _geometry(f)
        assert geo.perm == tuple(sorted(range(3), key=f.__getitem__))
        assert geo.lams == tuple(sorted(f))


def test_stats_reject_repeated_frequency():
    with pytest.raises(SpectrumError):
        Trinomial(1, 1, 2, 1, 1, 1)


def test_stats_reject_nonpositive_modulus():
    with pytest.raises(SpectrumError):
        Trinomial(-1, 0, 1, 1, 0, 1)


@pytest.mark.parametrize("a,n,m", [(1, 2, 1), (2, 3, 2), (3, 7, 5)])
def test_modular_inverse(a, n, m):
    assert modular_inverse(a, n) == m


def test_modular_inverse_rejects_noncoprime():
    with pytest.raises(SpectrumError):
        modular_inverse(2, 4)


def test_modular_inverse_rejects_modulus_below_two():
    with pytest.raises(SpectrumError, match="modulus must be >= 2"):
        modular_inverse(1, 1)


def test_reduced_form_rejects_unnormalised_moduli():
    with pytest.raises(SpectrumError, match="normalisation"):
        ReducedForm(1, 2, 5.0, 1.0, 1.0, 0.1)


def test_wrap_angle_range_and_identity():
    for x in (-10.0, -math.pi, 0.0, 1.0, math.pi, 7.0, 123.456):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - x, TWO_PI)) < 1e-12


def reduce_multiplier(freqs, mult):
    """The canonical reduction of the unit-moduli trinomial whose phases are mult's."""
    return canonical_reduction(Trinomial(*freqs, 1.0, 1.0, 1.0, *mult.phases))


class TestIsometry:
    def test_constant_shift(self):
        red = reduce_multiplier((-1, 0, 1), Multiplier(0.7, 0.7, 0.7))
        assert red.tau <= ISOMETRY_TAU_TOL
        assert math.remainder(red.v, TWO_PI) == pytest.approx(0.0, abs=1e-12)
        assert red.alpha == pytest.approx(0.7, abs=1e-12)

    def test_translation(self):
        # phases (-lam_j * v) with v = -0.4: a pure translation, no rotation
        red = reduce_multiplier((-1, 0, 1), Multiplier(-0.4, 0.0, 0.4))
        assert red.tau <= ISOMETRY_TAU_TOL
        assert math.remainder(red.v + 0.4, TWO_PI) == pytest.approx(0.0, abs=1e-12)
        assert red.alpha == pytest.approx(0.0, abs=1e-12)

    def test_middle_rotation_is_not(self):
        red = reduce_multiplier((-1, 0, 1), Multiplier(0.0, math.pi / 2, 0.0))
        assert red.tau == pytest.approx(math.pi, rel=1e-15)

    @pytest.mark.parametrize("freqs", [(-1, 0, 1), (-3, 1, 5), (0, 2, 5), (1, 4, 10)])
    def test_isometry_exactly_when_tau_vanishes(self, freqs):
        # alpha - lam_j * v is an isometry on every spectrum; moving the middle
        # phase alone by 1e-3 moves tau by 1e-3 * D and breaks it
        rng = np.random.default_rng(sum(freqs) + 50)
        big_d = spectrum_geometry(freqs).D
        for _ in range(10):
            alpha, v = rng.uniform(-math.pi, math.pi, 2)
            phases = [wrap_angle(alpha - f * v) for f in freqs]
            assert reduce_multiplier(freqs, Multiplier(*phases)).tau <= ISOMETRY_TAU_TOL
            phases[1] += 1e-3
            red = reduce_multiplier(freqs, Multiplier(*phases))
            assert red.tau == pytest.approx(1e-3 * big_d, rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_functional_identity(self, seed):
        # an isometric multiplier reduces to tau = 0, and the rotation and
        # shift the reduction strips satisfy Mf(x) = e^(i alpha) f(x - v) pointwise
        rng = np.random.default_rng(seed)
        freqs = (-3, 1, 5)
        v_true = rng.uniform(-math.pi, math.pi)
        alpha_true = rng.uniform(-math.pi, math.pi)
        mult = Multiplier(*(wrap_angle(alpha_true - f * v_true) for f in freqs))
        red = canonical_reduction(Trinomial(*freqs, 1.0, 1.0, 1.0, *mult.phases))
        assert red.tau <= ISOMETRY_TAU_TOL
        alpha, v = red.alpha, red.v
        tri = Trinomial(*freqs, *rng.uniform(0.5, 2.0, 3), *rng.uniform(0, TWO_PI, 3))
        shifted = mult.apply(tri)
        for x in rng.uniform(-math.pi, math.pi, 8):
            lhs = evaluate(shifted, x)
            rhs = cmath.exp(1j * alpha) * evaluate(tri, x - v)
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_isometric_multiplier_preserves_maximum(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            freqs = (-2, 1, 4)
            v = rng.uniform(-math.pi, math.pi)
            alpha = rng.uniform(-math.pi, math.pi)
            mult = Multiplier(*(alpha - f * v for f in freqs))
            tri = Trinomial(*freqs, *rng.uniform(0.1, 5.0, 3), *rng.uniform(0, TWO_PI, 3))
            before = max_points_global(tri).value
            after = max_points_global(mult.apply(tri)).value
            assert after == pytest.approx(before, rel=1e-12)


class TestCanonicalReduction:
    def test_middle_phase_pi_over_two(self):
        red = canonical_reduction(Trinomial(-1, 0, 1, 1, 2, 1, 0, math.pi / 2, 0))
        form = red.form
        assert (form.k, form.l) == (1, 1)
        assert form.t == pytest.approx(math.pi / 2, abs=1e-12)
        assert (form.r1, form.r2, form.r3) == (1, 2, 1)
        assert not red.swapped
        assert red.tau == pytest.approx(math.pi)

    def test_zero_invariant_gives_zero_phase(self):
        form = canonical_reduction(Trinomial(3, 7, 9, 2, 1, 5, 0.3, 0.3, 0.3)).form
        # constant phases are an isometric rotation away from zero phases
        assert form.t == pytest.approx(0.0, abs=1e-12)

    def test_swap_applied_when_outer_weights_invert(self):
        red = canonical_reduction(Trinomial(-2, 0, 1, 4, 1, 1))
        form = red.form
        assert red.swapped
        assert (form.k, form.l) == (1, 2)
        assert (form.r1, form.r3) == (1, 4)
        assert form.t == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_modulus_profile(self):
        # |T(x)| = |R(eps*d*(x - v))| at sampled points, for random instances
        rng = np.random.default_rng(20260810)
        xs = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        for _ in range(1000):
            freqs = rng.integers(-9, 10, size=3)
            if len(set(freqs.tolist())) != 3:
                continue
            tri = Trinomial(
                *(int(f) for f in freqs),
                *np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3)),
                *rng.uniform(0, TWO_PI, 3),
            )
            red = canonical_reduction(tri)
            form = red.form
            reduced = Trinomial(-form.k, 0, form.l, form.r1, form.r2, form.r3,
                                0.0, form.t, 0.0)
            scale = tri.r1 + tri.r2 + tri.r3
            for x in xs:
                lhs = abs(evaluate(tri, float(x)))
                rhs = abs(evaluate(reduced, red.epsilon * red.geometry.d * (float(x) - red.v)))
                assert abs(lhs - rhs) <= 1e-12 * scale

    def test_max_modulus_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tri = Trinomial(-3, 2, 4, *rng.uniform(0.2, 3.0, 3), *rng.uniform(0, TWO_PI, 3))
            form = canonical_reduction(tri).form
            reduced = Trinomial(-form.k, 0, form.l, form.r1, form.r2, form.r3,
                                0.0, form.t, 0.0)
            assert max_points_global(reduced).value == pytest.approx(
                max_points_global(tri).value, rel=1e-11
            )


class TestPhaseReduction:
    """A phase past a full turn is stored reduced to [-pi, pi] by libm's exact
    reduction; one within a turn is stored as given."""

    def test_a_huge_phase_solves_like_its_hand_reduced_one(self):
        # 1e12 mod 2*pi is -0.6576247591... (50-digit mpmath); math.remainder
        # by TWO_PI gives -0.65758577..., off by 1.6e11 roundings of TWO_PI
        reduced = math.atan2(math.sin(1e12), math.cos(1e12))
        assert reduced == pytest.approx(-0.6576247591367865, abs=1e-15)
        huge = Trinomial(-1, 0, 2, 1, 2, 3, 1e12, 0.2, 0.3)
        by_hand = Trinomial(-1, 0, 2, 1, 2, 3, reduced, 0.2, 0.3)
        assert huge == by_hand
        assert max_points_global(huge) == max_points_global(by_hand)
        assert Multiplier(1e12, 0.2, -1e12) == Multiplier(reduced, 0.2, -reduced)

    @pytest.mark.parametrize("t", [0.0, -0.0, 0.3, -3.5, math.pi, -math.pi, TWO_PI, -TWO_PI, 6.2831853])
    def test_phases_within_a_turn_are_kept_bit_for_bit(self, t):
        tri = Trinomial(-1, 0, 2, 1, 2, 3, t, -t, 1.0)
        mult = Multiplier(t, 1.0, -t)
        assert math.copysign(1.0, tri.t1) == math.copysign(1.0, t)
        assert tri.phases == (t, -t, 1.0)
        assert mult.phases == (t, 1.0, -t)


angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(t1=angles, t2=angles, t3=angles, which=st.integers(0, 2), turns=st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_tau_invariant_under_full_turn_shifts(t1, t2, t3, which, turns):
    phases = [t1, t2, t3]
    base = canonical_reduction(Trinomial(-2, 1, 5, 1, 1, 1, *phases)).tau
    phases[which] += TWO_PI * turns
    shifted = canonical_reduction(Trinomial(-2, 1, 5, 1, 1, 1, *phases)).tau
    assert shifted == pytest.approx(base, abs=1e-10)


def test_tau_invariant_under_isometric_multipliers():
    rng = np.random.default_rng(8)
    freqs = (-1, 2, 3)
    for _ in range(50):
        phases = rng.uniform(0, TWO_PI, 3)
        base = canonical_reduction(Trinomial(*freqs, 1, 1, 1, *phases)).tau
        v = rng.uniform(-math.pi, math.pi)
        alpha = rng.uniform(-math.pi, math.pi)
        shifted_phases = [p + alpha - f * v for p, f in zip(phases, freqs)]
        shifted = canonical_reduction(Trinomial(*freqs, 1, 1, 1, *shifted_phases)).tau
        assert shifted == pytest.approx(base, abs=1e-10)


@given(
    f1=st.integers(-40, 40), f2=st.integers(-40, 40), f3=st.integers(-40, 40),
    shift=st.integers(-100, 100),
)
@settings(max_examples=200, deadline=None)
def test_d_and_D_invariant_under_translation_and_negation(f1, f2, f3, shift):
    if len({f1, f2, f3}) != 3:
        return
    base = spectrum_geometry((f1, f2, f3))
    moved = spectrum_geometry((f1 + shift, f2 + shift, f3 + shift))
    negated = spectrum_geometry((-f1, -f2, -f3))
    assert (moved.d, moved.D) == (base.d, base.D)
    assert (negated.d, negated.D) == (base.d, base.D)


@pytest.mark.parametrize(
    "freqs,opposite_pair",
    [
        ((-1, 0, 1), (0, 2)),
        ((0, 1, 2), (0, 2)),
        ((0, 1, 3), (1, 2)),
    ],
)
def test_opposition_signs(freqs, opposite_pair):
    signs = opposition_signs(*freqs)
    i, j = opposite_pair
    assert signs[i] * signs[j] == -1
    phases = tuple(0.0 if s > 0 else math.pi for s in signs)
    assert canonical_reduction(Trinomial(*freqs, 1, 1, 1, *phases)).tau == pytest.approx(math.pi, abs=1e-9)


def test_opposition_signs_random_spectra():
    rng = np.random.default_rng(17)
    for _ in range(100):
        freqs = rng.integers(-30, 31, size=3)
        if len(set(freqs.tolist())) != 3:
            continue
        signs = opposition_signs(*(int(f) for f in freqs))
        phases = tuple(0.0 if s > 0 else math.pi for s in signs)
        tri = Trinomial(*(int(f) for f in freqs), 1, 1, 1, *phases)
        assert canonical_reduction(tri).tau == pytest.approx(math.pi, abs=1e-9)


def enumerated_common_shift(freqs, phases, tol):
    """The O(gap) search that _solve_common_shift replaced, kept as a reference:
    every candidate of the first congruence, checked against the second."""
    l1, l2, l3 = freqs
    t1, t2, t3 = phases
    a = l2 - l1
    best_v, best_res = None, math.inf
    for n in range(a):
        v = (t1 - t2 + TWO_PI * n) / a
        res = abs(wrap_angle((l3 - l2) * v - (t2 - t3)))
        if res < best_res:
            best_v, best_res = v, res
    if best_res > tol:
        raise SpectrumError(f"no common translation (best residual {best_res:.3e})")
    return wrap_angle(best_v)


def wide_spectrum(rng, max_gap=300):
    """Sorted spectrum with step d in {1, 2, 3, 5} and gaps up to max_gap."""
    d = int(rng.choice([1, 2, 3, 5]))
    while True:
        k, l = (int(g) for g in rng.integers(1, max_gap // d + 1, size=2))
        if math.gcd(k, l) == 1:
            break
    low = int(rng.integers(-50, 51))
    return spectrum_geometry((low, low + d * k, low + d * (k + l)))


def sorted_reduction(geo, phases):
    """canonical_reduction of unit moduli on the sorted spectrum geo.lams."""
    return canonical_reduction(Trinomial(*geo.lams, 1, 1, 1, *phases))


def reference_turn_shifts(geo, phases):
    """The turns that canonical_reduction computes inline, as a standalone
    reference: the wrapped phase combination of the sorted phases and the
    whole turns (U, W) to take off t1 and t3."""
    comb = phase_combination(geo.k, geo.l, *phases)
    wrapped = wrap_angle(comb)
    shift = round((wrapped - comb) / TWO_PI)
    u = shift * pow(geo.l, -1, geo.k) % geo.k
    return wrapped, (u, (shift - u * geo.l) // geo.k)


class TestClosedFormCommonShift:
    def assert_same_translation(self, geo, phases, u=None):
        if u is None:
            u = sorted_reduction(geo, phases).turns[0]
        v = _solve_common_shift(geo, phases, u)
        v_ref = enumerated_common_shift(geo.lams, phases, 1e-7)
        assert abs(math.remainder(v - v_ref, TWO_PI / geo.d)) <= 1e-12

    def test_isometric_multipliers(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            geo = wide_spectrum(rng)
            v, alpha = rng.uniform(-math.pi, math.pi, 2)
            self.assert_same_translation(
                geo, tuple(wrap_angle(alpha - f * v) for f in geo.lams)
            )

    def test_canonical_reduction_phases(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            geo = wide_spectrum(rng)
            t1, t2, t3 = rng.uniform(0, TWO_PI, 3)
            u = sorted_reduction(geo, (t1, t2, t3)).turns[0]
            stripped = (t1, t2 - geo.signed_tau((t1, t2, t3)) / geo.D, t3)
            # the whole turns of the phases before the strip serve after it
            assert sorted_reduction(geo, stripped).turns[0] == u
            self.assert_same_translation(geo, stripped, u)

    def test_unsolvable_raise_in_both(self):
        rng = np.random.default_rng(43)
        cases = 0
        while cases < 200:
            geo = wide_spectrum(rng)
            phases = tuple(rng.uniform(0, TWO_PI, 3))
            if abs(geo.signed_tau(phases)) < 0.5:
                continue
            cases += 1
            with pytest.raises(SpectrumError):
                _solve_common_shift(geo, phases, sorted_reduction(geo, phases).turns[0])
            with pytest.raises(SpectrumError):
                enumerated_common_shift(geo.lams, phases, 1e-7)

    def test_turn_shift_contract(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            geo = wide_spectrum(rng)
            k, l = geo.k, geo.l
            # phases past a full turn reach the reduction reduced, as Trinomial stores them
            red = sorted_reduction(geo, rng.uniform(-50.0, 50.0, 3))
            t1, t2, t3 = red.phases
            comb = phase_combination(k, l, t1, t2, t3)
            shift = round((wrap_angle(comb) - comb) / TWO_PI)
            u, w = red.turns
            assert red.tau == abs(wrap_angle(comb))
            assert isinstance(u, int) and isinstance(w, int)
            assert 0 <= u < k
            assert u * l + w * k == shift
            shifted = phase_combination(k, l, t1 - TWO_PI * u, t2, t3 - TWO_PI * w)
            assert abs(shifted - wrap_angle(comb)) <= 1e-9

    def test_reduction_matches_the_reference_turns(self):
        # turns, tau, v and alpha bit for bit against the reference turns and
        # the same strip, over phases up to 1e12 and gaps up to 1e6
        rng = np.random.default_rng(45)
        for _ in range(500):
            geo = wide_spectrum(rng, 10 ** int(rng.integers(1, 7)))
            signs, exponents = rng.choice([-1.0, 1.0], 3), rng.uniform(-1.0, 12.0, 3)
            red = sorted_reduction(geo, signs * 10.0**exponents)
            tau_signed, turns = reference_turn_shifts(geo, red.phases)
            t1, t2, t3 = red.phases
            t2_target = tau_signed / geo.D
            v = _solve_common_shift(geo, (t1, t2 - t2_target, t3), turns[0])
            assert red.turns == turns
            assert red.tau == abs(tau_signed)
            assert red.v == v
            assert red.alpha == wrap_angle(t2 - t2_target + geo.lams[1] * v)
