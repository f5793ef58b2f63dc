import math

import numpy as np
import pytest

from trinomax import (
    SpectrumError,
    Trinomial,
    chebotarev_derivative,
    cos_quotient_bound,
    evaluate,
    fstar,
    moduli_sum_bound,
    ratio_gstar,
    sweep_rows,
)

TWO_PI = 2.0 * math.pi


class TestFstar:
    def test_zero_phase(self):
        assert fstar(1, 2, 1, 1, 1, 0.0) == pytest.approx(3.0)

    def test_extremal_value(self):
        assert fstar(1, 1, 1, 2, 1, math.pi / 2) == pytest.approx(2 * math.sqrt(2))

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k, l = (1, 2) if rng.uniform() < 0.5 else (3, 2)
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            ts = np.linspace(0.0, math.pi / (k + l), 32)
            vals = [fstar(k, l, *r, float(t)) for t in ts]
            scale = sum(r)
            for a, b in zip(vals, vals[1:]):
                assert b - a < -1e-12 * scale

    def test_even_and_periodic(self):
        # the fold agrees with direct evaluation of the unfolded trinomial
        k, l, m = 1, 2, 2
        r = (0.5, 1.5, 1.0)
        for t in (0.2, 0.45):
            base = fstar(k, l, *r, t)
            from trinomax import max_points_global

            minus = max_points_global(Trinomial(-k, 0, l, *r, 0.0, -t, 0.0)).value
            shifted = max_points_global(
                Trinomial(-k, 0, l, *r, 0.0, t + TWO_PI / (k + l), 0.0)
            ).value
            assert minus == pytest.approx(base, rel=1e-12)
            assert shifted == pytest.approx(base, rel=1e-12)
            # the fold itself: -t and 2*pi/D - t land in the upper half of a period
            for unfolded in (-t, t + TWO_PI / (k + l), TWO_PI / (k + l) - t):
                assert fstar(k, l, *r, unfolded) == pytest.approx(base, rel=1e-12)


class TestChebotarev:
    def test_strictly_negative_inside(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            t = float(rng.uniform(0.05, 0.95) * math.pi / 3)
            assert chebotarev_derivative(1, 2, *r, t) < 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            k, l = (2, 1) if rng.uniform() < 0.5 else (1, 3)
            r = np.exp(rng.uniform(math.log(0.5), math.log(2.0), 3))
            t = float(rng.uniform(0.15, 0.85) * math.pi / (k + l))
            h = 1e-6
            fd = (fstar(k, l, *r, t + h) ** 2 - fstar(k, l, *r, t - h) ** 2) / (2 * h)
            slope = chebotarev_derivative(k, l, *r, t)
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_one_sided_at_the_endpoint(self):
        # symmetric corner at t = pi/(k+l): left slope negative, right positive
        k, l = 1, 2
        r = (0.4, 1.0, 1.1)
        t_end = math.pi / (k + l)
        left = chebotarev_derivative(k, l, *r, t_end, side="-")
        right = chebotarev_derivative(k, l, *r, t_end, side="+")
        assert left < 0 < right
        assert right == pytest.approx(-left, rel=1e-9)
        h = 1e-6
        fd_left = (fstar(k, l, *r, t_end) ** 2 - fstar(k, l, *r, t_end - h) ** 2) / h
        assert left == pytest.approx(fd_left, rel=1e-4, abs=1e-7)

    def test_balanced_weights_slope_vanishes_at_zero(self):
        # k*r1 = l*r3: the maximum stays at x = 0 and the slope goes to 0 at t -> 0+
        slopes = [chebotarev_derivative(1, 2, 2.0, 1.0, 1.0, t) for t in (0.1, 0.01, 0.001)]
        assert all(s < 0 for s in slopes)
        assert abs(slopes[-1]) < abs(slopes[0])
        assert abs(slopes[-1]) < 1e-2


class TestRatio:
    def test_constant_when_balanced(self):
        for t in np.linspace(0, math.pi / 3, 16):
            assert ratio_gstar(1, 2, 2.0, 0.7, 1.0, float(t)) == pytest.approx(1.0, abs=1e-12)

    def test_extremal_instance_is_balanced(self):
        # (1, 2, 1) with k = l = 1 has k*r1 = l*r3, hence ratio 1 even at pi/2
        assert ratio_gstar(1, 1, 1, 2, 1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_otherwise(self):
        ts = np.linspace(0.0, math.pi / 3, 24)
        vals = [ratio_gstar(1, 2, 1.0, 1.0, 1.0, float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0)


class TestCosQuotientBound:
    def test_reference_value(self):
        assert cos_quotient_bound(math.pi, 0.0, 2) == pytest.approx(1 / math.sqrt(2))

    def test_tends_to_one(self):
        assert cos_quotient_bound(0.5 + 1e-9, 0.5, 3) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_order(self):
        with pytest.raises(SpectrumError):
            cos_quotient_bound(0.3, 0.4, 2)

    def test_equality_at_extremal_moduli(self):
        # moduli (l, k+l, k): the bound is attained
        for k, l in ((1, 1), (1, 2), (3, 2)):
            big_d = k + l
            for tau, tau_p in ((math.pi, 0.0), (2.0, 0.5)):
                lhs = fstar(k, l, l, k + l, k, tau / big_d)
                rhs = fstar(k, l, l, k + l, k, tau_p / big_d)
                bound = cos_quotient_bound(tau, tau_p, big_d)
                assert lhs == pytest.approx(bound * rhs, rel=1e-10)

    def test_strict_inequality_for_generic_moduli(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            tau = float(rng.uniform(1.0, math.pi))
            tau_p = float(rng.uniform(0.0, tau - 0.5))
            lhs = fstar(1, 2, *r, tau / 3)
            rhs = fstar(1, 2, *r, tau_p / 3)
            bound = cos_quotient_bound(tau, tau_p, 3)
            assert lhs >= bound * rhs * (1 - 1e-12)


class TestModuliSumBound:
    def test_zero_phase_equality(self):
        lhs, bound = moduli_sum_bound(1, 2, 0.7, 1.1, 2.0, 0.0)
        assert lhs == pytest.approx(1.0)
        assert bound == pytest.approx(1.0)

    def test_extremal_moduli_equality(self):
        for k, l in ((1, 2), (2, 1), (1, 1)):
            for frac in (0.3, 0.8, 1.0):
                t = frac * math.pi / (k + l)
                lhs, bound = moduli_sum_bound(k, l, l, k + l, k, t)
                assert lhs == pytest.approx(bound, abs=1e-10)

    def test_strict_above_otherwise(self):
        lhs, bound = moduli_sum_bound(1, 2, 1.0, 1.0, 1.0, math.pi / 6)
        assert lhs > bound + 1e-9

    def test_shortcut_chain(self):
        # max >= |value at 0| >= (r1+r2+r3) cos(t/2)
        rng = np.random.default_rng(36)
        for _ in range(30):
            k, l = 2, 3
            r = np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3))
            t = float(rng.uniform(0, math.pi / (k + l)))
            total = float(sum(r))
            mx = fstar(k, l, *r, t)
            at_zero = abs(evaluate(Trinomial(-k, 0, l, *r, 0, t, 0), 0.0))
            assert mx >= at_zero - 1e-12 * total
            assert at_zero / total >= math.cos(t / 2) - 1e-12


class TestSweep:
    def test_row_structure_and_monotonicity(self):
        rows = sweep_rows(1, 2, 0.5, 1.5, 1.0, 32)
        assert len(rows) == 32
        assert rows[0].tau == 0.0
        assert rows[-1].tau == pytest.approx(math.pi)
        for a, b in zip(rows, rows[1:]):
            assert b.fstar < a.fstar
        for row in rows:
            assert row.ratio >= 1.0 - 1e-12
            assert row.fstar / (0.5 + 1.5 + 1.0) >= row.bound - 1e-12
            assert row.t == pytest.approx(row.tau / 3)
