import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomax import (
    MaxClassification,
    ReducedForm,
    SpectrumError,
    Trinomial,
    binomial_max,
    closed_form_k1_l1,
    closed_form_k2_l1,
    evaluate,
    find_max_reduced,
    half_derivative,
    locate_interval,
    localization_interval,
    make_reduced_form,
    max_points_global,
)
from trinomax import maxmod, oracle
from trinomax.maxmod import BracketFailure
from trinomax.oracle import random_symmetric_pair, random_trinomial
from trinomax.spectrum import canonical_reduction

TWO_PI = 2.0 * math.pi


def reduced_as_trinomial(form: ReducedForm) -> Trinomial:
    return Trinomial(-form.k, 0, form.l, form.r1, form.r2, form.r3, 0.0, form.t, 0.0)


def modulus_squared_slope(tri: Trinomial, x: float) -> float:
    """d|T|^2/dx = -sum w*gap*sin(p + gap*x) over the oracle's pair terms,
    with the exact integer gaps."""
    _, w, p = oracle._cross_terms(tri.moduli, tri.phases)
    f = tri.frequencies
    gaps = [f[a] - f[b] for a, b in zip(oracle._A.tolist(), oracle._B.tolist())]
    return -sum(wi * gap * math.sin(pk + gap * x) for wi, gap, pk in zip(w.tolist(), gaps, p.tolist()))


class TestEvaluate:
    def test_middle_imaginary(self):
        tri = Trinomial(-1, 0, 1, 1, 2, 1, 0, math.pi / 2, 0)
        assert evaluate(tri, 0.0) == pytest.approx(2 + 2j)

    def test_aligned(self):
        tri = Trinomial(-2, 0, 1, 4, 1, 1)
        assert evaluate(tri, 0.0) == pytest.approx(6 + 0j)

    def test_array_matches_scalar(self):
        tri = Trinomial(-2, 3, 5, 1.5, 0.3, 2.0, 0.1, 0.2, 0.3)
        xs = np.linspace(0, TWO_PI, 17)
        arr = evaluate(tri, xs)
        for x, v in zip(xs, arr):
            assert abs(v - evaluate(tri, float(x))) < 1e-14


class TestModulusSquared:
    def test_all_aligned(self):
        form = ReducedForm(1, 2, 1.0, 2.0, 3.0, 0.0)
        assert 2.0 * half_derivative(form, 0.0, 0) == pytest.approx(36.0)

    def test_hand_value(self):
        form = ReducedForm(1, 1, 1.0, 2.0, 1.0, math.pi / 2)
        # 1 + 4 + 1 + 2*(2cos(pi/2) + 1 + 2cos(pi/2)) = 8, i.e. |1 + 2i + 1|^2
        assert 2.0 * half_derivative(form, 0.0, 0) == pytest.approx(8.0)
        assert abs(1 + 2j + 1) ** 2 == pytest.approx(8.0)

    @given(
        r1=st.floats(0.01, 100.0), r2=st.floats(0.01, 100.0), r3=st.floats(0.01, 100.0),
        x=st.floats(-10.0, 10.0), frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_evaluate(self, r1, r2, r3, x, frac):
        k, l = (1, 2) if 2 * r3 >= r1 else (2, 1)
        if k * r1 > l * r3:
            k, l, r1, r3 = l, k, r3, r1
        form = ReducedForm(k, l, r1, r2, r3, frac * math.pi / (k + l))
        direct = abs(evaluate(reduced_as_trinomial(form), x)) ** 2
        # near-cancellation leaves both paths with roundoff relative to the
        # coefficient scale, not to the (possibly tiny) value
        scale = (r1 + r2 + r3) ** 2
        assert 2.0 * half_derivative(form, x, 0) == pytest.approx(
            direct, rel=1e-12, abs=1e-14 * scale
        )


class TestDerivativeHalf:
    def test_even_at_origin_when_phase_zero(self):
        form = ReducedForm(2, 3, 1.0, 2.0, 1.0, 0.0)
        assert half_derivative(form, 0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("k,l,r,t", [
        (1, 2, (0.5, 1.5, 2.0), 0.3),
        (2, 1, (0.2, 1.0, 0.5), 0.8),
        (3, 4, (1.0, 1.0, 1.0), 0.1),
    ])
    def test_origin_closed_form(self, k, l, r, t):
        form = ReducedForm(k, l, *r, t)
        expected = (l * r[2] - k * r[0]) * r[1] * math.sin(t)
        assert half_derivative(form, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k,l,r,t", [
        (1, 2, (0.5, 1.5, 2.0), 0.3),
        (2, 1, (0.2, 1.0, 0.5), 0.8),
    ])
    def test_right_endpoint_closed_form(self, k, l, r, t):
        form = ReducedForm(k, l, *r, t)
        x = t / l
        expected = (-k * r[0] * r[1] - (k + l) * r[0] * r[2]) * math.sin((k + l) * t / l)
        assert half_derivative(form, x) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self):
        form = ReducedForm(2, 3, 0.7, 1.1, 0.9, 0.55)
        h = 1e-6
        for x in np.linspace(-0.5, 0.5, 11):
            fd = (2.0 * half_derivative(form, x + h, 0) - 2.0 * half_derivative(form, x - h, 0)) / (4 * h)
            assert half_derivative(form, float(x)) == pytest.approx(fd, abs=1e-8)

    def test_higher_orders_match_finite_differences(self):
        form = ReducedForm(1, 3, 0.8, 1.3, 0.6, 0.4)
        h = 1e-4
        for x in (0.0, 0.1, 0.25):
            d2_fd = (half_derivative(form, x + h) - half_derivative(form, x - h)) / (2 * h)
            assert half_derivative(form, x, 2) == pytest.approx(d2_fd, abs=1e-6)
            d3_fd = (half_derivative(form, x + h, 2) - half_derivative(form, x - h, 2)) / (2 * h)
            assert half_derivative(form, x, 3) == pytest.approx(d3_fd, abs=1e-6)


class TestLocateInterval:
    def test_degenerate_at_zero_phase(self):
        assert locate_interval(ReducedForm(1, 2, 1, 1, 1, 0.0)) == (0.0, 0.0)

    def test_arithmetic(self):
        lo, hi = locate_interval(ReducedForm(1, 2, 1, 1, 1, math.pi / 6))
        assert lo == pytest.approx(-math.pi / 6)
        assert hi == pytest.approx(math.pi / 12)

    def test_contains_oracle_argmax(self):
        from trinomax import brute_max

        rng = np.random.default_rng(2)
        for _ in range(25):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            form, _ = make_reduced_form(1, 2, *r, rng.uniform(0, math.pi / 3))
            lo, hi = locate_interval(form)
            report = brute_max(reduced_as_trinomial(form), 2048)
            ok = any(
                lo - 1e-6 <= x - TWO_PI * round((x - (lo + hi) / 2) / TWO_PI) <= hi + 1e-6
                for x in report.argmaxes
            )
            assert ok


class TestFindMaxReduced:
    def test_balanced_outer_weights_pin_argmax_at_zero(self):
        # k*r1 = l*r3 forces the maximum point to 0 for every phase
        for t in (0.1, 0.4, math.pi / 3 - 1e-3):
            form = ReducedForm(1, 2, 2.0, 1.0, 1.0, t)
            res = find_max_reduced(form)
            assert res.classification is MaxClassification.AT_ZERO
            assert res.points[0][0] == pytest.approx(0.0, abs=1e-13)
            expected = math.hypot(2 + 1 + math.cos(t), math.sin(t))
            assert res.value == pytest.approx(expected, rel=1e-12)

    def test_symmetric_pair_with_balanced_weights(self):
        form = ReducedForm(1, 1, 1.0, 2.0, 1.0, math.pi / 2)
        res = find_max_reduced(form)
        assert res.classification is MaxClassification.SYMMETRIC_PAIR
        xs = [x for x, _ in res.points]
        assert xs == pytest.approx([0.0, math.pi], abs=1e-12)
        assert res.value == pytest.approx(2 * math.sqrt(2), rel=1e-13)
        assert res.multiplicity == 2
        assert res.s == pytest.approx(math.pi)

    def test_degenerate_quadruple_point(self):
        # |1/r1 - 1/r3| = 4/r2 exactly: boundary equality
        form = ReducedForm(1, 1, 1.0, 8.0, 2.0, math.pi / 2)
        res = find_max_reduced(form)
        assert res.classification is MaxClassification.DEGENERATE4
        assert res.multiplicity == 4
        assert len(res.points) == 1
        assert res.points[0][0] == pytest.approx(math.pi / 2)
        assert res.value == pytest.approx(9.0)

    def test_boundary_below_knife_edge(self):
        # r2 even larger: strict inequality, multiplicity 2, same argmax
        form = ReducedForm(1, 1, 1.0, 12.0, 2.0, math.pi / 2)
        res = find_max_reduced(form)
        assert res.classification is MaxClassification.AT_BOUNDARY
        assert res.multiplicity == 2
        assert res.value == pytest.approx(13.0)

    def test_zero_phase_short_circuit(self):
        form = ReducedForm(2, 3, 0.4, 1.1, 0.9, 0.0)
        res = find_max_reduced(form)
        assert res.points == ((0.0, pytest.approx(2.4)),)

    def test_interior_symmetric_pair_l1(self):
        # l = 1, t = pi/(k+1), weights comfortably inside the interior branch
        form, _ = make_reduced_form(2, 1, 0.1, 0.4, 3.0, math.pi / 3)
        res = find_max_reduced(form)
        assert res.classification is MaxClassification.SYMMETRIC_PAIR
        assert len(res.points) == 2
        (x, vx), (y, vy) = res.points
        assert vx == pytest.approx(vy, rel=1e-12)
        assert (x + y) % TWO_PI == pytest.approx(res.s % TWO_PI, abs=1e-9)

    def test_second_derivative_negative_at_interior_max(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            form, _ = make_reduced_form(1, 2, *r, rng.uniform(1e-3, math.pi / 3 * 0.999))
            res = find_max_reduced(form)
            assert res.multiplicity == 2
            assert half_derivative(form, res.points[0][0], 2) < 0


class TestMaxPointsGlobal:
    def test_aligned_phases_unique_point(self):
        res = max_points_global(Trinomial(-2, 0, 1, 4, 1, 1))
        assert len(res.points) == 1
        assert res.points[0] == (
            pytest.approx(0.0, abs=1e-12),
            pytest.approx(6.0, rel=1e-13),
        )
        assert res.s is None

    def test_rotated_centre_gives_two_points(self):
        res = max_points_global(Trinomial(-2, 0, 1, 4, 1, 1, 0, math.pi / 3, 0))
        assert len(res.points) == 2
        assert res.classification is MaxClassification.SYMMETRIC_PAIR
        (x, vx), (y, vy) = res.points
        assert vx == pytest.approx(vy, rel=1e-12)
        assert (x + y) % TWO_PI == pytest.approx(res.s, abs=1e-9)

    def test_zero_invariant_argmax_formula(self):
        # tau = 0: the maximum point is (t1 - t3)/(l3 - l1) after turn adjustment
        t1, t3 = 0.7, -0.5
        freqs = (-1, 0, 2)
        t2 = (t3 * 1 + t1 * 2) / 3.0  # makes the combination vanish: -2*t1+3*t2-1*t3 = 0
        tri = Trinomial(*freqs, 2.5, 1.0, 0.7, t1, t2, t3)
        stats_tau = max_points_global(tri)
        expected = (t1 - t3) / (freqs[2] - freqs[0])
        assert stats_tau.points[0][0] == pytest.approx(expected % TWO_PI, abs=1e-10)

    def test_points_lie_in_localization_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            freqs = rng.integers(-8, 9, size=3)
            if len(set(freqs.tolist())) != 3:
                continue
            tri = Trinomial(
                *(int(f) for f in freqs),
                *np.exp(rng.uniform(math.log(0.1), math.log(10), 3)),
                *rng.uniform(0, TWO_PI, 3),
            )
            lo, hi = localization_interval(tri)
            stats = max_points_global(tri)
            d = math.gcd(
                sorted(freqs)[1] - sorted(freqs)[0], sorted(freqs)[2] - sorted(freqs)[1]
            )
            period = TWO_PI / d
            mid = 0.5 * (lo + hi)
            assert any(
                lo - 1e-7 <= x - period * round((x - mid) / period) <= hi + 1e-7
                for x, _ in stats.points
            )

    def test_axis_symmetry_of_modulus(self):
        tri = Trinomial(-2, 0, 1, 4, 1, 1, 0, math.pi / 3, 0)
        s = max_points_global(tri).s
        for x in np.linspace(0, TWO_PI, 23):
            assert abs(evaluate(tri, s - float(x))) == pytest.approx(
                abs(evaluate(tri, float(x))), rel=1e-12, abs=1e-12
            )

    def test_phase_evenness_and_periodicity(self):
        # |f(-t, x)| = |f(t, -x)| and f(t + 2pi/(k+l), x) = f(t, x - 2m pi/(k+l))
        k, l, m = 1, 2, 2  # m = inverse of 2 mod 3
        r = (0.7, 1.3, 1.9)
        for t in (0.2, 0.9):
            for x in (0.0, 0.4, 2.2):
                left = abs(evaluate(Trinomial(-k, 0, l, *r, 0, -t, 0), x))
                right = abs(evaluate(Trinomial(-k, 0, l, *r, 0, t, 0), -x))
                assert left == pytest.approx(right, rel=1e-12)
                shifted = abs(evaluate(Trinomial(-k, 0, l, *r, 0, t + TWO_PI / 3, 0), x))
                moved = abs(evaluate(Trinomial(-k, 0, l, *r, 0, t, 0), x - 2 * m * math.pi / 3))
                assert shifted == pytest.approx(moved, rel=1e-12)


class TestClosedForms:
    def test_unit_weights_pair(self):
        value, points = closed_form_k1_l1(1, 2, 1)
        assert value == pytest.approx(2 * math.sqrt(2), rel=1e-14)
        assert sorted(points) == pytest.approx([0.0, math.pi])

    def test_root_five(self):
        value, _ = closed_form_k1_l1(1, 1, 1)
        assert value == pytest.approx(math.sqrt(5), rel=1e-14)

    def test_boundary_branch(self):
        value, points = closed_form_k1_l1(1, 8, 2)
        assert value == pytest.approx(9.0)
        assert points == (pytest.approx(math.pi / 2),)

    def test_k2_reference_value(self):
        assert closed_form_k2_l1(1, 3, 1) == pytest.approx(
            math.sqrt(9 + 6 * math.sqrt(3)), rel=1e-14
        )

    def test_k2_degenerate_branch(self):
        # small r1 drives 1/r1 - 4/r3 >= 9/r2: the maximum is -r1 + r2 + r3
        assert closed_form_k2_l1(0.05, 1.0, 1.0) == pytest.approx(1.95)

    @pytest.mark.parametrize("seed", range(3))
    def test_both_match_find_max_reduced(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            r = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3))
            v1, _ = closed_form_k1_l1(*r)
            form1, _ = make_reduced_form(1, 1, *r, math.pi / 2)
            assert v1 == pytest.approx(find_max_reduced(form1).value, rel=1e-12)
            v2 = closed_form_k2_l1(*r)
            form2, _ = make_reduced_form(2, 1, *r, math.pi / 3)
            assert v2 == pytest.approx(find_max_reduced(form2).value, rel=1e-10)


@pytest.mark.parametrize("r1,r2,expected", [(1, 1, 2), (2, 3, 5), (0.5, 0.5, 1.0)])
def test_binomial_max(r1, r2, expected):
    assert binomial_max(r1, r2) == expected


def test_degenerate_quadruple_derivatives():
    # on the knife edge the second derivative of |T|^2 vanishes at the max
    # and the fourth is negative with the closed-form value
    k = 2
    r1, r3 = 0.3, 2.0  # needs r3 > k^2 r1
    r2 = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
    form = ReducedForm(k, 1, r1, r2, r3, math.pi / (k + 1))
    res = find_max_reduced(form)
    assert res.classification is MaxClassification.DEGENERATE4
    x = res.points[0][0]
    scale = k * k * r1 * r2 + (k + 1) ** 2 * r1 * r3 + r2 * r3
    assert abs(half_derivative(form, x, 2)) <= 1e-8 * scale
    fourth = 2.0 * half_derivative(form, x, 4)
    expected = 2.0 * (-k * (k + 1) * r1 * ((k - 1) * k * r2 + (k + 1) * (k + 2) * r3))
    assert fourth == pytest.approx(expected, rel=1e-9)
    assert fourth < 0


def test_uniqueness_for_sub_pi_invariant():
    # tau < pi: one maximum point modulo 2*pi/d, checked against dense sampling
    rng = np.random.default_rng(12)
    for _ in range(30):
        tri = Trinomial(
            -2, 0, 3,
            *np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)),
            *rng.uniform(0, 1.0, 3),
        )
        res = max_points_global(tri)
        if res.classification is MaxClassification.SYMMETRIC_PAIR:
            continue
        assert len(res.points) == 1
        xs = np.linspace(0, TWO_PI, 5000, endpoint=False)
        vals = np.abs(evaluate(tri, xs))
        near = xs[vals >= res.value * (1 - 1e-6)]
        if near.size:
            spread = near.max() - near.min()
            # all near-max samples cluster around the single argmax
            assert spread < 0.1 or spread > TWO_PI - 0.1


def wide_gap_trinomial(rng, big, on_top):
    """Random trinomial whose lower sorted gap is big (or whose upper one is,
    when on_top), the other gap in [1, 12]."""
    small = int(rng.integers(1, 13))
    low = int(rng.integers(-12, 13))
    first, second = (small, big) if on_top else (big, small)
    return Trinomial(
        low, low + first, low + first + second,
        *rng.uniform(0.2, 5.0, 3),
        *rng.uniform(0, TWO_PI, 3),
    )


class TestLargeGaps:
    @pytest.mark.parametrize("on_top", [False, True])
    def test_max_points_pass_oracle_free_checks(self, on_top):
        # the reduction costs O(log gap), so a gap of 10**6 is solved directly
        rng = np.random.default_rng(600 + on_top)
        for _ in range(20):
            tri = wide_gap_trinomial(rng, 10**6, on_top)
            f, r = tri.frequencies, tri.moduli
            scale = sum(
                2.0 * r[a] * r[b] * abs(f[a] - f[b]) for a in range(3) for b in range(a + 1, 3)
            )
            res = max_points_global(tri)
            for x, value in res.points:
                assert abs(evaluate(tri, x)) == pytest.approx(value, rel=1e-12)
                assert abs(modulus_squared_slope(tri, x)) <= 1e-8 * scale

    @pytest.mark.parametrize("on_top", [False, True])
    def test_gap_past_float_resolution_raises(self, on_top):
        rng = np.random.default_rng(900 + on_top)
        for _ in range(20):
            with pytest.raises(SpectrumError, match="past float resolution"):
                max_points_global(wide_gap_trinomial(rng, 10**9, on_top))

    @pytest.mark.parametrize(
        "freqs,tol",
        [
            ((0, 1, 5_600_000), 1e-8),  # 2*diameter*ulp(2*pi) just below 1e-8
            ((10**9, 10**9 + 1, 10**9 + 3), 1e-12),  # a common offset costs nothing
        ],
    )
    def test_solves_inside_the_resolution_limit(self, freqs, tol):
        tri = Trinomial(*freqs, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        f, r = tri.frequencies, tri.moduli
        scale = sum(
            2.0 * r[a] * r[b] * abs(f[a] - f[b]) for a in range(3) for b in range(a + 1, 3)
        )
        for x, _ in max_points_global(tri).points:
            assert abs(modulus_squared_slope(tri, x)) <= tol * scale

    def test_diameter_just_past_the_limit_raises(self):
        with pytest.raises(SpectrumError, match="past float resolution"):
            max_points_global(Trinomial(0, 1, 5_700_000, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3))

    @pytest.mark.parametrize("big", [10**3, 10**6, 10**9])
    @pytest.mark.parametrize("on_top", [False, True])
    def test_localization_interval_stays_near_origin(self, big, on_top):
        # whole turns are taken off the phases exactly, never as big float shifts
        rng = np.random.default_rng(big + on_top)
        for _ in range(20):
            lo, hi = localization_interval(wide_gap_trinomial(rng, big, on_top))
            assert -2.0 * TWO_PI <= lo <= hi <= 2.0 * TWO_PI


def near_knife_edge_form(rng) -> ReducedForm:
    """l = 1, tau = pi, r2 just below the knife edge: an interior symmetric
    pair whose points approach t as r2 approaches the edge."""
    k = int(rng.integers(1, 5))
    r1, r3 = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
    r3 = max(r3, k * k * r1 * (1.0 + rng.uniform(0.1, 3.0)))
    r2 = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1) * (1.0 - 10 ** rng.uniform(-9, -1))
    return ReducedForm(k, 1, float(r1), float(r2), float(r3), math.pi / (k + 1))


class TestRootFinder:
    @pytest.mark.parametrize(
        "fun",
        [lambda x: (-0.5 - x, -1.0), lambda x: (1.5 - x, -1.0)],
        ids=["negative-at-left-end", "positive-at-right-end"],
    )
    def test_endpoint_signs_are_guarded(self, fun):
        with pytest.raises(BracketFailure, match="endpoint derivative signs violate the bracket"):
            maxmod._root_plus_to_minus(fun, 0.0, 1.0, 1.0)

    def test_converges_to_float_resolution(self):
        root = maxmod._root_plus_to_minus(
            lambda x: (2.0 - math.exp(x), -math.exp(x)), 0.0, 2.0, 2.0
        )
        assert abs(root - math.log(2.0)) <= 2.0 * math.ulp(2.0)

    def test_few_evaluations_and_stationary_points(self, monkeypatch):
        calls = []
        helper = maxmod._slope_and_curvature

        def counted(form, x):
            calls.append(x)
            return helper(form, x)

        monkeypatch.setattr(maxmod, "_slope_and_curvature", counted)
        rng = np.random.default_rng(66)
        forms = (
            [canonical_reduction(random_trinomial(rng))[0] for _ in range(400)]
            + [
                canonical_reduction(random_trinomial(rng, modulus_range=(1e-6, 1e6)))[0]
                for _ in range(400)
            ]
            + [canonical_reduction(random_symmetric_pair(rng))[0] for _ in range(200)]
            + [near_knife_edge_form(rng) for _ in range(200)]
        )
        counts = []
        for form in forms:
            calls.clear()
            res = find_max_reduced(form)
            if calls:
                counts.append(len(calls))
            tri = reduced_as_trinomial(form)
            k, l = form.k, form.l
            scale = 2.0 * (
                k * form.r1 * form.r2 + (k + l) * form.r1 * form.r3 + l * form.r2 * form.r3
            )
            for x, _ in res.points:
                assert abs(modulus_squared_slope(tri, x)) <= 1e-12 * scale
        assert len(counts) >= 1100
        assert np.mean(counts) <= 12
        assert max(counts) <= 60

    def test_closed_forms_match(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            r = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3))
            form1, _ = make_reduced_form(1, 1, *r, math.pi / 2)
            assert find_max_reduced(form1).value == pytest.approx(
                closed_form_k1_l1(*r)[0], rel=1e-10
            )
            form2, _ = make_reduced_form(2, 1, *r, math.pi / 3)
            assert find_max_reduced(form2).value == pytest.approx(
                closed_form_k2_l1(*r), rel=1e-10
            )


class TestBracketFailures:
    """Each consistency check that raises BracketFailure, reached by breaking
    the piece it guards."""

    def test_symmetric_pair_values_diverge(self, monkeypatch):
        # a wrong inverse puts the partner point off the symmetry axis
        monkeypatch.setattr(maxmod, "modular_inverse", lambda a, m: 0)
        with pytest.raises(BracketFailure, match="symmetric pair values diverge"):
            find_max_reduced(ReducedForm(1, 2, 1.0, 1.5, 1.2, math.pi / 3))

    def test_points_escape_the_localization_interval(self, monkeypatch):
        endpoints = maxmod._localization_endpoints
        monkeypatch.setattr(maxmod, "_localization_endpoints", lambda tri: tuple(e + 1.0 for e in endpoints(tri)))
        with pytest.raises(BracketFailure, match="escape the localization interval"):
            max_points_global(Trinomial(-1, 0, 2, 1.0, 1.5, 1.2, 0.3, 1.1, 2.0))

    def test_tau_just_below_the_pi_margin_is_checked_as_unique(self):
        # tau = pi - 1e-9 to rounding: the solve takes the unique branch, and the
        # check holds its point to that branch's narrower interval
        tri = Trinomial(-1, 0, 3, 1, 2, 1.3, 0, 0.7853981631474483, 0)
        res = max_points_global(tri)
        assert res.classification is MaxClassification.INTERIOR_UNIQUE
        assert len(res.points) == 1 and res.s is None


class TestBranchMargins:
    """Each tolerance that picks a branch, probed at half and twice its value."""

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_tau_pi(self, factor):
        delta = factor * maxmod.TAU_PI_TOL
        res = max_points_global(Trinomial(-1, 0, 1, 1.0, 2.0, 1.3, 0.0, (math.pi - delta) / 2, 0.0))
        if factor < 1:
            assert res.classification is MaxClassification.SYMMETRIC_PAIR
            assert res.s is not None
        else:
            assert res.classification is MaxClassification.INTERIOR_UNIQUE
            assert res.s is None

    def test_one_tau_pi_rule(self):
        # tau = pi - 1e-7 is off the axis branch, and no second rule calls it symmetric
        import trinomax

        tri = Trinomial(-1, 0, 1, 1.0, 2.0, 1.3, 0.0, (math.pi - 1e-7) / 2, 0.0)
        assert max_points_global(tri).s is None
        assert not hasattr(trinomax, "symmetry_axis")

    @pytest.mark.parametrize(
        "factor, cls",
        [
            (0.5, MaxClassification.DEGENERATE4),
            (-0.5, MaxClassification.DEGENERATE4),
            (2.0, MaxClassification.SYMMETRIC_PAIR),
            (-2.0, MaxClassification.AT_BOUNDARY),
        ],
    )
    def test_knife_edge(self, factor, cls):
        # k = l = 1, r2 = r3 = 1: the knife edge is r1 = 0.2, and a relative
        # offset delta of r1 puts the form delta/2 off it relative to its scale
        delta = 2.0 * factor * maxmod.DEGENERATE_REL_TOL
        form = ReducedForm(1, 1, 0.2 * (1.0 + delta), 1.0, 1.0, math.pi / 2)
        assert find_max_reduced(form).classification is cls
