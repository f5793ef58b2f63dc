import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomax import (
    MaxClassification,
    ReducedForm,
    SpectrumError,
    Trinomial,
    closed_form_k1_l1,
    closed_form_k2_l1,
    evaluate,
    find_max_reduced,
    half_derivative,
    make_reduced_form,
    max_points_global,
)
from trinomax import maxmod, oracle
from trinomax.maxmod import BracketFailure
from trinomax.oracle import random_symmetric_pair, random_trinomial
from trinomax.spectrum import canonical_reduction

TWO_PI = 2.0 * math.pi


def localization_interval(tri: Trinomial) -> tuple[float, float]:
    """The interval between the maximum points of the two binomials left by
    dropping an outer coefficient, as max_points_global checks it."""
    red = canonical_reduction(tri)
    e1, e2, _ = maxmod._localization_endpoints(red.geometry, red.phases, red.turns)
    return min(e1, e2), max(e1, e2)


def reduced_as_trinomial(form: ReducedForm) -> Trinomial:
    return Trinomial(-form.k, 0, form.l, form.r1, form.r2, form.r3, 0.0, form.t, 0.0)


def modulus_squared_slope(tri: Trinomial, x: float) -> float:
    """d|T|^2/dx = -sum w*gap*sin(p + gap*x) over the oracle's pair terms,
    with the exact integer gaps."""
    _, w = oracle._cross_terms(tri.moduli)
    f, t, pairs = tri.frequencies, tri.phases, list(zip(oracle._A.tolist(), oracle._B.tolist()))
    gaps, p = [f[a] - f[b] for a, b in pairs], [t[a] - t[b] for a, b in pairs]
    return -sum(wi * gap * math.sin(pk + gap * x) for wi, gap, pk in zip(w.tolist(), gaps, p))


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

    def test_contains_oracle_argmax(self):
        # the maximum of a reduced form lies in [0, t/l], the bracket the
        # solve searches, and the grid oracle finds it there too
        from trinomax import brute_max

        rng = np.random.default_rng(2)
        for _ in range(25):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            form, _ = make_reduced_form(1, 2, *r, rng.uniform(0, math.pi / 3))
            hi = form.t / form.l
            ((x, _),) = find_max_reduced(form).points
            assert -1e-12 <= x <= hi + 1e-12
            report = brute_max(reduced_as_trinomial(form), 2048)
            assert any(
                -1e-6 <= y - TWO_PI * round((y - hi / 2) / TWO_PI) <= hi + 1e-6
                for y in report.argmaxes
            )

    def test_zero_phase_short_circuit(self):
        form = ReducedForm(2, 3, 0.4, 1.1, 0.9, 0.0)
        res = find_max_reduced(form)
        assert res.points == ((0.0, pytest.approx(2.4)),)

    def test_zero_phase_is_the_correctly_rounded_sum(self):
        # moduli log-uniform in [1e-4, 1e4]: the expansion's square root read
        # 1 ulp above math.fsum(r), the triangle-inequality bound, on about
        # one tau = 0 row in ten; a correctly rounded sum may still lie above
        # the exact one, by half an ulp at most
        assert max_points_global(Trinomial(-1, 0, 2, 1e-4, 1, 1e4, 0, 0, 0)).value == 10001.0001
        rng = np.random.default_rng(5)
        for i in range(20000):
            k, l = COPRIME[i % len(COPRIME)]
            r = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 3)).tolist()
            value = find_max_reduced(make_reduced_form(k, l, *r, 0.0)[0]).value
            assert value == math.fsum(r)
            assert abs(Fraction(value) - sum(map(Fraction, r))) <= Fraction(math.ulp(value)) / 2

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
    @pytest.mark.parametrize("freqs", [(-1, 0, 2), (0, 1, 3000)])
    @pytest.mark.parametrize("scale", [1e100 / 3, 1e-100], ids=["top", "bottom"])
    def test_moduli_at_the_range_ends_solve_as_at_scale_one(self, freqs, scale):
        base = max_points_global(Trinomial(*freqs, 1, 2, 3, 0.1, 0.2, 0.3))
        tri = Trinomial(*freqs, scale, 2 * scale, 3 * scale, 0.1, 0.2, 0.3)
        res = max_points_global(tri)
        assert [x for x, _ in res.points] == [x for x, _ in base.points]
        assert res.value / scale == pytest.approx(base.value, rel=1e-15)
        assert oracle.agreement(res, oracle.brute_max(tri)).ok

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

    @staticmethod
    def solve_calls(monkeypatch, names):
        """For each of three solves, the sorted calls it makes to the spectrum helpers of names."""
        from trinomax import spectrum

        rng = np.random.default_rng(9)
        tris = (Trinomial(4, -2, 0, 1, 4, 1, 0.3, -0.2, 0.1), random_trinomial(rng), random_symmetric_pair(rng))
        calls = []
        for name in names:
            def counted(*args, _name=name, _fun=getattr(spectrum, name), **kwargs):
                calls.append(_name)
                return _fun(*args, **kwargs)

            monkeypatch.setattr(spectrum, name, counted)
        per_solve = []
        for tri in tris:
            calls.clear()
            max_points_global(tri)
            per_solve.append(sorted(calls))
        return per_solve

    def test_geometry_and_phase_combination_derived_once(self, monkeypatch):
        # every geometry, spectrum_geometry's included, is derived by spectrum._geometry
        per_solve = self.solve_calls(monkeypatch, ("_geometry", "phase_combination"))
        assert per_solve == [["_geometry", "phase_combination"]] * 3

    def test_inputs_are_not_checked_again(self, monkeypatch):
        rules = ("_frequencies", "_check_moduli", "_check_phases", "_check_reduced")
        assert self.solve_calls(monkeypatch, rules) == [[]] * 3

    def test_numpy_integer_frequencies_are_stored_as_ints(self):
        lo, hi = -2**63 + 1, 2**63 - 1
        tri = Trinomial(np.int64(lo), 0, np.int64(hi), 1, 2, 3, 0.1, 0.2, 0.3)
        assert [type(f) for f in tri.frequencies] == [int] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = max_points_global(tri)
        plain = max_points_global(Trinomial(lo, 0, hi, 1, 2, 3, 0.1, 0.2, 0.3))
        assert res == plain and repr(res) == repr(plain)
        assert res.reduction.geometry.lams == (lo, 0, hi)

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

    def test_k2_wide_moduli_do_not_cancel(self):
        # r2 >> r3 once made (a^2 + b + 1)^(3/2) - a^3 cancel: this case took
        # the square root of a negative number
        r = (1271.9368036205565, 34814.6646321026, 1.6898146193313474e-05)
        ref = find_max_reduced(make_reduced_form(2, 1, *r, math.pi / 3)[0]).value
        assert closed_form_k2_l1(*r) == pytest.approx(ref, rel=oracle.CLOSED_FORM_REL_TOL)

    def test_k1_case_boundary_keeps_asin_in_its_domain(self):
        # r2 = 4/|1/r1 - 1/r3| up to rounding: sin(x) rounded to 1 + ulp
        r = (15.346832418962649, 150.54650400119482, 25.913339660776487)
        value, points = closed_form_k1_l1(*r)
        assert points == (math.pi / 2,)
        assert find_max_reduced(make_reduced_form(1, 1, *r, math.pi / 2)[0]).value == 161.11301124300866
        assert value == pytest.approx(161.11301124300866, rel=oracle.CLOSED_FORM_REL_TOL)

    def test_interior_cases_over_wide_moduli(self):
        # moduli log-uniform in [1e-6, 1e6], each closed form on its interior case
        rng = np.random.default_rng(68)
        checked = [0, 0]
        for _ in range(1000):
            r1, r2, r3 = (float(m) for m in np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 3)))
            if abs(1.0 / r1 - 1.0 / r3) < 4.0 / r2:
                ref = find_max_reduced(make_reduced_form(1, 1, r1, r2, r3, math.pi / 2)[0]).value
                assert closed_form_k1_l1(r1, r2, r3)[0] == pytest.approx(ref, rel=oracle.CLOSED_FORM_REL_TOL)
                checked[0] += 1
            if 1.0 / r1 - 4.0 / r3 < 9.0 / r2:
                ref = find_max_reduced(make_reduced_form(2, 1, r1, r2, r3, math.pi / 3)[0]).value
                assert closed_form_k2_l1(r1, r2, r3) == pytest.approx(ref, rel=oracle.CLOSED_FORM_REL_TOL)
                checked[1] += 1
        assert min(checked) >= 300

    @pytest.mark.parametrize(
        "closed_form, r",
        [
            (closed_form_k1_l1, (1e-200, 1e50, 1e-200)),
            (closed_form_k2_l1, (1e-200, 1e50, 1e-200)),
            (closed_form_k2_l1, (1.0, 1e100, 1e-250)),
        ],
        ids=["k1-zero-division", "k2-overflow", "k2-nan"],
    )
    def test_moduli_ratios_past_the_range_raise(self, closed_form, r):
        # these once gave a bare ZeroDivisionError (4*r1*r3 underflowed to 0),
        # a bare OverflowError (from a**3) and nan (inf/inf)
        with pytest.raises(SpectrumError, match=r"closed forms take moduli within a ratio of 1e\+50"):
            closed_form(*r)

    def test_moduli_ratios_up_to_the_range_agree(self):
        # ratios up to CLOSED_FORM_RATIO, with the largest modulus anywhere in [1e-100, 1e100]
        rng = np.random.default_rng(70)
        for _ in range(300):
            top = float(np.exp(rng.uniform(math.log(1e-100), math.log(1e100))))
            r = [top * float(np.exp(-rng.uniform(0.0, math.log(maxmod.CLOSED_FORM_RATIO)))) for _ in range(3)]
            r[int(rng.integers(3))] = top
            ref1 = find_max_reduced(make_reduced_form(1, 1, *r, math.pi / 2)[0]).value
            assert closed_form_k1_l1(*r)[0] == pytest.approx(ref1, rel=oracle.CLOSED_FORM_REL_TOL)
            ref2 = find_max_reduced(make_reduced_form(2, 1, *r, math.pi / 3)[0]).value
            assert closed_form_k2_l1(*r) == pytest.approx(ref2, rel=oracle.CLOSED_FORM_REL_TOL)


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

    @pytest.mark.parametrize("big", [10**3, 10**6, 5 * 10**6])
    @pytest.mark.parametrize("on_top", [False, True])
    def test_localization_interval_stays_near_origin(self, big, on_top):
        # whole turns are taken off the phases exactly, never as big float shifts,
        # up to the widest gap the reduction accepts (a diameter of about 5.6e6)
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


COPRIME = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 2), (2, 5)]


def branch_forms(rng, count: int = 20) -> list[ReducedForm]:
    """Seeded reduced forms from every branch of find_max_reduced: interior,
    k*r1 = l*r3, t <= 1e-15, symmetric pairs (one near the knife edge), the
    boundary point and the knife edge."""
    forms = []
    for _ in range(count):
        k, l = COPRIME[int(rng.integers(len(COPRIME)))]
        r1, r2, r3 = (float(r) for r in np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3)))
        forms.append(canonical_reduction(random_trinomial(rng)).form)
        forms.append(make_reduced_form(k, l, r1, r2, k * r1 / l, float(rng.uniform(1e-3, math.pi / (k + l))))[0])
        forms.append(make_reduced_form(k, l, r1, r2, r3, float(rng.choice([0.0, 1e-16])))[0])
        forms.append(canonical_reduction(random_symmetric_pair(rng)).form)
        forms.append(near_knife_edge_form(rng))
        # l = 1 at tau = pi: r2 on the knife edge, and past it (the boundary point)
        r3 = max(r3, k * k * r1 * 1.5)
        edge_r2 = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
        forms.append(ReducedForm(k, 1, r1, edge_r2, r3, math.pi / (k + 1)))
        forms.append(ReducedForm(k, 1, r1, edge_r2 * float(rng.uniform(1.1, 4.0)), r3, math.pi / (k + 1)))
    return forms


def moved_trinomial(form: ReducedForm, rng) -> Trinomial:
    """A trinomial that reduces to the branch of form: its spectrum dilated by
    d and offset by c, moved by a seeded rotation alpha and translation v,
    |T(x)| = |R(d*(x - v))|, with its coefficients in shuffled order."""
    d, c = int(rng.integers(1, 4)), int(rng.integers(-8, 9))
    alpha, v = (float(a) for a in rng.uniform(0.0, TWO_PI, 2))
    freqs = (c - form.k * d, c, c + form.l * d)
    terms = [(f, r, t + alpha - f * v) for f, r, t in zip(freqs, (form.r1, form.r2, form.r3), (0.0, form.t, 0.0))]
    terms = [terms[j] for j in rng.permutation(3)]
    return Trinomial(*(f for f, _, _ in terms), *(r for _, r, _ in terms), *(t for _, _, t in terms))


class TestAgainstReferencePaths:
    """The solve's direct paths against the general ones they replace, bit for bit."""

    def test_values_are_half_derivative_order_zero(self):
        seen = set()
        for form in branch_forms(np.random.default_rng(29)):
            res = find_max_reduced(form)
            seen.add(res.classification)
            if res.classification in (MaxClassification.AT_BOUNDARY, MaxClassification.DEGENERATE4):
                # the boundary value is r2 + r3 - r1 in closed form, not evaluated
                ((x, value),) = res.points
                assert value == form.r2 + form.r3 - form.r1
                assert value == pytest.approx(math.sqrt(2.0 * half_derivative(form, x, 0)), rel=1e-12)
                continue
            if form.t <= 1e-15:
                # tau = 0: the correctly rounded r1 + r2 + r3, within 1 ulp of the expansion
                ((x, value),) = res.points
                assert value == math.fsum((form.r1, form.r2, form.r3))
                assert abs(value - math.sqrt(2.0 * half_derivative(form, x, 0))) <= math.ulp(value)
                continue
            for x, value in res.points:
                assert value == math.sqrt(2.0 * half_derivative(form, x, 0))
        assert seen == set(MaxClassification)

    def test_points_are_the_reduced_points_mapped_back(self):
        rng = np.random.default_rng(30)
        tris = [random_trinomial(rng) for _ in range(150)] + [random_symmetric_pair(rng) for _ in range(50)]
        tris += [moved_trinomial(form, rng) for form in branch_forms(rng)]
        tris += [
            Trinomial(-1, 0, 1, 1, 12, 2, 0, math.pi / 2, 0),  # boundary
            Trinomial(-1, 0, 1, 1, 8, 2, 0, math.pi / 2, 0),  # knife edge
            Trinomial(5, 3, 9, 1, 2, 1, 0.4, 1.3, -2.1),  # k*r1 = l*r3, d = 2
        ]
        seen = set()
        for tri in tris:
            res = max_points_global(tri)
            red = res.reduction
            reduced = find_max_reduced(red.form)
            seen.add(res.classification)
            assert res.points == tuple(sorted((red.from_reduced(y) % red.period, v) for y, v in reduced.points))
            if reduced.s is None:
                assert res.s is None
            else:
                # the axis is the sum x + y of the pair: 2*v + (y1 + y2)/(epsilon*d)
                assert res.s == (2.0 * red.v + reduced.s / (red.epsilon * red.geometry.d)) % red.period
        assert seen == set(MaxClassification)

    def test_a_pair_wrapping_across_the_period_comes_out_ascending(self):
        res = max_points_global(random_symmetric_pair(np.random.default_rng(3)))
        red = res.reduction
        raw = [red.from_reduced(y) for y, _ in find_max_reduced(red.form).points]
        # the map keeps the order (epsilon = 1), but the second point wraps past the period
        assert red.epsilon == 1 and raw[0] < raw[1]
        assert raw[0] % red.period > raw[1] % red.period
        (x, _), (y, _) = res.points
        assert x < y and (x, y) == (raw[1] % red.period, raw[0] % red.period)


def kernel(k, l, r1, r2, r3, t, hi):
    """The rtsafe kernel on the form (k, l, r1, r2, r3, t) over [0, hi], at the scale its callers pass."""
    return maxmod._root_plus_to_minus(k, l, r1, r2, r3, t, hi, maxmod._derivative_scale(k, l, r1, r2, r3))


def count_evaluations(monkeypatch) -> list[int]:
    """Count the kernel's slope evaluations through math.sin, which it reads
    when called: once at x = 0 (sin t), three times at every other x."""
    calls, sin = [0], math.sin

    def counted(z):
        calls[0] += 1
        return sin(z)

    monkeypatch.setattr(math, "sin", counted)
    return calls


def evaluations(sin_calls: int) -> int:
    assert sin_calls % 3 == 1, sin_calls
    return (sin_calls + 2) // 3


def binomial_kernel(monkeypatch, fun):
    """The kernel on the binomial e^(-ix) + 1 (k = l = 1, r1 = r2 = 1, r3 = 0,
    t = 0), whose slope it evaluates as -sin x and curvature as -cos x: with
    sin = -g and cos = -g' patched in, it sees fun(x) = (g, g') bit for bit.
    Returns the kernel over [0, hi] at a given scale."""
    monkeypatch.setattr(math, "sin", lambda x: -fun(x)[0])
    monkeypatch.setattr(math, "cos", lambda x: -fun(x)[1])
    return lambda hi, scale: maxmod._root_plus_to_minus(1, 1, 1.0, 1.0, 0.0, 0.0, hi, scale)


class TestRootFinder:
    """Each exit of the kernel.  Real forms reach all but the bisection floor;
    that one, and the synthetic slopes whose pins the noise exit and the
    convergence keep, run on binomial_kernel."""

    @pytest.mark.parametrize(
        "form",
        [(1, 2, 3.0, 1.0, 1.0, 0.5), (1, 1, 1.0, 1.0, 2.0, 0.9 * math.pi)],
        ids=["negative-at-left-end", "positive-at-right-end"],
    )
    def test_endpoint_signs_are_guarded(self, form):
        # k*r1 > l*r3 turns g(0) = sin(t)*r2*(l*r3 - k*r1) negative; t past
        # pi/(k+l) puts the root before t/l, so g(t/l) > 0
        with pytest.raises(BracketFailure, match="endpoint derivative signs violate the bracket"):
            kernel(*form, form[-1] / form[1])

    def test_nonnegative_right_end_is_the_root(self, monkeypatch):
        # t 1e-13 past pi/2 puts the root just past t: g(t) is about
        # 2e-13*(r1*r2 + 2*r1*r3), >= 0 and inside the guard
        t = math.pi / 2.0 + 1e-13
        calls = count_evaluations(monkeypatch)
        assert kernel(1, 1, 1.0, 1.0, 2.0, t, t) == t
        assert evaluations(calls[0]) == 2

    def test_step_slope_ends_at_the_bisection_floor(self, monkeypatch):
        # g' = 0 refuses every Newton step, so only bisection narrows the
        # bracket; the division by it is never made
        solve = binomial_kernel(monkeypatch, lambda x: (1.0 if x < 1.0 / 3.0 else -1.0, 0.0))
        calls = count_evaluations(monkeypatch)
        assert solve(1.0, 1.0) == 0.33333333333333326
        assert evaluations(calls[0]) <= 60

    def test_flat_slope_ends_at_the_noise_exit(self, monkeypatch):
        # a g of 1e-16, within 8 ulp of the scale, whose Newton step halves too
        # slowly after one step: the kernel stops instead of bisecting the noise
        solve = binomial_kernel(monkeypatch, lambda x: (1e-16 if x < 0.5 else -1e-16, -1e-3))
        assert solve(1.0, 1.0) == 1e-16 / 1e-3

    def test_near_quartic_maximum_ends_at_the_noise_exit(self):
        # r2 1e-4 below the knife edge 18 of (k, r1, r3) = (2, 1, 8) at tau = pi:
        # the maximum is nearly quartic, so each Newton step is about 2/3 of
        # the one before, more than the half the kernel takes, while |g| is
        # already within 8 ulp of the scale: the kernel stops there instead
        # of bisecting the noise
        t = math.pi / 3.0
        assert kernel(2, 1, 1.0, 17.9982, 8.0, t, t - 1e-7 * t) == 1.0398119076109233

    def test_converges_to_float_resolution(self, monkeypatch):
        solve = binomial_kernel(monkeypatch, lambda x: (2.0 - math.exp(x), -math.exp(x)))
        assert abs(solve(2.0, 2.0) - math.log(2.0)) <= 2.0 * math.ulp(2.0)

    def test_real_form_converges_to_float_resolution(self, monkeypatch):
        # k = l = 1 at t = pi/2: the maximum sits where sin x = r2*(r3 - r1)/(4*r1*r3) = 1/6;
        # without the exit at a Newton step within 2 ulp the kernel takes one more evaluation
        t = math.pi / 2.0
        hi = t - 1e-7 * t
        calls = count_evaluations(monkeypatch)
        root = kernel(1, 1, 1.0, 2.0, 1.5, t, hi)
        assert evaluations(calls[0]) <= 8
        assert abs(root - math.asin(1.0 / 6.0)) <= 2.0 * math.ulp(hi)

    def test_few_evaluations_and_stationary_points(self, monkeypatch):
        rng = np.random.default_rng(66)
        forms = (
            [canonical_reduction(random_trinomial(rng)).form for _ in range(400)]
            + [
                canonical_reduction(random_trinomial(rng, modulus_range=(1e-6, 1e6))).form
                for _ in range(400)
            ]
            + [canonical_reduction(random_symmetric_pair(rng)).form for _ in range(200)]
            + [near_knife_edge_form(rng) for _ in range(200)]
        )
        calls = count_evaluations(monkeypatch)
        counts = []
        for form in forms:
            calls[0] = 0
            res = find_max_reduced(form)
            if calls[0]:
                counts.append(evaluations(calls[0]))
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
        monkeypatch.setattr(maxmod, "_localization_endpoints", lambda *args: tuple(e + 1.0 for e in endpoints(*args)))
        with pytest.raises(BracketFailure, match="escape the localization interval"):
            max_points_global(Trinomial(-1, 0, 2, 1.0, 1.5, 1.2, 0.3, 1.1, 2.0))

    @pytest.mark.parametrize(
        "tri, cls, swapped, read",
        [
            (Trinomial(-1, 0, 2, 2.0, 1.5, 1.0, 0.3, 1.1, 2.0), MaxClassification.AT_ZERO, False, {2}),
            (Trinomial(-1, 0, 2, 1.0, 1.5, 1.2, 0.3, 1.1, 2.0), MaxClassification.INTERIOR_UNIQUE, False, {2, 1}),
            (Trinomial(-1, 0, 2, 3.0, 1.5, 1.0, 0.3, 1.1, 2.0), MaxClassification.INTERIOR_UNIQUE, True, {2, 0}),
            (Trinomial(-2, 0, 1, 2.0, 1.0, 0.5, 0.0, math.pi / 3, 0.0), MaxClassification.SYMMETRIC_PAIR, True, {0, 1}),
            (Trinomial(-2, 0, 1, 1.0, 40.0, 8.0, 0.0, math.pi / 3, 0.0), MaxClassification.AT_BOUNDARY, False, {0, 1}),
        ],
        ids=["at-zero-e3-e3", "interior-e3-e2", "interior-swapped-e3-e1", "tau-pi-pair-e1-e2", "tau-pi-boundary-e1-e2"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    def test_each_branch_checks_its_own_endpoints(self, monkeypatch, tri, cls, swapped, read, sign):
        # read indexes (e1, e2, e3); every interval here spans at most a quarter
        # period, so shifting both its ends by half a period moves it off every
        # point.  e3 lies between e1 and e2, so only the two directions together
        # catch an interval (e3, e1) or (e3, e2) in place of (e3, e3)
        res = max_points_global(tri)
        assert (res.classification, res.reduction.swapped) == (cls, swapped)
        endpoints, half = maxmod._localization_endpoints, sign * 0.5 * res.reduction.period

        def shift(indices):
            monkeypatch.setattr(
                maxmod, "_localization_endpoints",
                lambda *args: tuple(e + half * (j in indices) for j, e in enumerate(endpoints(*args))),
            )

        shift(read)
        with pytest.raises(BracketFailure, match="escape the localization interval"):
            max_points_global(tri)
        shift({0, 1, 2} - read)
        assert max_points_global(tri) == res

    def test_tau_just_below_the_pi_margin_is_checked_as_unique(self):
        # tau = pi - 1e-9 to rounding: the solve takes the unique branch, and the
        # check holds its point to that branch's narrower interval
        tri = Trinomial(-1, 0, 3, 1, 2, 1.3, 0, 0.7853981631474483, 0)
        res = max_points_global(tri)
        assert res.classification is MaxClassification.INTERIOR_UNIQUE
        assert len(res.points) == 1 and res.s is None


class TestKnownDefects:
    """Pinned lines where the solve and the oracle disagree, each a strict
    expected failure that names the side in error, so that a fix flips it."""

    @pytest.mark.xfail(
        strict=True,
        reason="the oracle is in error: at tau = pi - 1e-9 it reports a second argmax at 4.6108 under "
        "TIE_REL_TOL, while an exact probe finds the one maximum at 0.101601727 that the solve reports",
    )
    def test_tie_line_just_below_tau_pi(self):
        tri = Trinomial(-1, 0, 3, 1, 2, 1.3, 0, 0.7853981631474483, 0)
        assert oracle.agreement(max_points_global(tri), oracle.brute_max(tri)).ok

    @pytest.mark.xfail(
        strict=True,
        reason="the analytic side is in error: at pi - tau = 2e-12 it reports Degenerate4 at pi/2, "
        "1.8e-4 from the maximum at 1.5706146161 that an exact probe finds",
    )
    def test_knife_edge_just_below_tau_pi(self):
        res = max_points_global(Trinomial(-1, 0, 1, 1, 8, 2, 0, 1.5707963267938966, 0))
        assert min(abs(math.remainder(x - 1.5706146161, res.reduction.period)) for x, _ in res.points) <= 1e-6


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
