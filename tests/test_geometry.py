import cmath
import math

import pytest

from trinomax import (
    MaxClassification,
    SpectrumError,
    Trinomial,
    farthest_points,
    hypotrochoid_sample,
    max_points_global,
    spectrum_geometry,
)
from trinomax.maxmod import AT_ZERO_REL_TOL

TWO_PI = 2.0 * math.pi

FIG1 = Trinomial(-2, 0, 1, 4, 1, 1)                     # z = 4e^(-2ix) + e^(ix), centre -1
FIG1_ROT = Trinomial(-2, 0, 1, 4, 1, 1, 0, math.pi / 3, 0)
FIG2 = Trinomial(-2, 0, 1, 1 / 3, 1, 2 / 3)             # deltoid
FIG2_ROT = Trinomial(-2, 0, 1, 1 / 3, 1, 2 / 3, 0, math.pi / 3, 0)


class TestHypotrochoidSample:
    def test_sample_count_and_closure(self):
        curve = hypotrochoid_sample(FIG1, 512)
        assert len(curve.samples) == 512
        assert curve.closed
        xs = [x for x, _ in curve.samples]
        assert min(xs) > -math.pi
        assert max(xs) == pytest.approx(math.pi)

    def test_last_sample_is_exactly_pi(self):
        # -pi + 2*pi*n/n rounds an ulp past pi at n = 26
        xs = [x for x, _ in hypotrochoid_sample(FIG1, 26).samples]
        assert xs[-1] == math.pi
        assert xs[:-1] == [-math.pi + 2.0 * math.pi * i / 26 for i in range(1, 26)]

    def test_no_cusps_off_ratio(self):
        assert hypotrochoid_sample(FIG1, 64).cusp_count is None

    def test_deltoid_has_three_cusps(self):
        assert hypotrochoid_sample(FIG2, 64).cusp_count == 3

    def test_cusp_count_matches_diameter_quotient(self):
        # r1 : r3 = |l3-l2| : |l2-l1| forces |l3-l1|/d cusps
        tri = Trinomial(-4, 0, 2, 1.0, 1.0, 2.0)
        assert hypotrochoid_sample(tri, 64).cusp_count == 3

    @pytest.mark.parametrize("eps", [0.0, 1e-13, 5e-13, 2e-12, 1e-11, 1e-10, 2e-9])
    def test_cusps_exactly_when_maximum_at_zero(self, eps):
        # k*r1 = l*r3*(1 + eps): one rule, at AT_ZERO_REL_TOL, decides both
        tri = Trinomial(-1, 0, 2, 2.0 * (1.0 + eps), 1.5, 1.0, 0.3, 1.1, 2.9)
        at_zero = max_points_global(tri).classification is MaxClassification.AT_ZERO
        assert at_zero == (hypotrochoid_sample(tri, 16).cusp_count is not None)
        assert at_zero == (eps <= AT_ZERO_REL_TOL)

    def test_degenerate_outer_coefficient_approaches_circle(self):
        tri = Trinomial(-2, 0, 1, 4.0, 1.0, 1e-9)
        curve = hypotrochoid_sample(tri, 128)
        radii = [abs(z) for _, z in curve.samples]
        assert max(radii) - min(radii) < 1e-8
        assert radii[0] == pytest.approx(4.0, rel=1e-6)

    def test_rejects_too_few_samples(self):
        with pytest.raises(SpectrumError):
            hypotrochoid_sample(FIG1, 8)

    @pytest.mark.parametrize(
        "tri", [FIG1, Trinomial(3, -6, 0, 1, 4, 1, 0.9, 0.2, 0.5)], ids=["fig1", "dilated-unsorted"]
    )
    def test_samples_match_the_outer_curve_formula(self, tri):
        # r1*e^(i(t1 - gap1*x)) + r3*e^(i(t3 + gap3*x)) over the sorted spectrum
        (l1, r1, t1), (l2, _, _), (l3, r3, t3) = sorted(zip(tri.frequencies, tri.moduli, tri.phases))
        gap1, gap3 = l2 - l1, l3 - l2
        for x, z in hypotrochoid_sample(tri, 64).samples:
            want = r1 * cmath.exp(1j * (t1 - gap1 * x)) + r3 * cmath.exp(1j * (t3 + gap3 * x))
            assert abs(z - want) <= 1e-12 * (r1 + r3)


class TestFarthestPoints:
    def test_fig1_unique_point(self):
        points = farthest_points(FIG1)
        assert len(points) == 1

    def test_fig1_rotated_centre_two_points(self):
        points = farthest_points(FIG1_ROT)
        assert len(points) == 2

    def test_fig2_rotated_centre_two_points(self):
        points = farthest_points(FIG2_ROT)
        assert len(points) == 2

    @pytest.mark.parametrize("tri", [FIG1, FIG1_ROT, FIG2, FIG2_ROT])
    def test_distances_match_the_maximum_modulus(self, tri):
        reference = max_points_global(tri).value
        for _, dist in farthest_points(tri):
            assert dist == pytest.approx(reference, rel=1e-12)

    def test_pair_symmetric_about_axis(self):
        s = max_points_global(FIG1_ROT).s
        (x, _), (y, _) = farthest_points(FIG1_ROT)
        assert (x + y) % TWO_PI == pytest.approx(s % TWO_PI, abs=1e-8)


class TestSampleConvergence:
    @pytest.mark.parametrize("tri", [FIG1, FIG1_ROT, FIG2_ROT])
    def test_sample_max_brackets_reported_max(self, tri):
        geo = spectrum_geometry(tri.frequencies)
        r, t = geo.sort(tri.moduli), geo.sort(tri.phases)
        centre = -r[1] * cmath.exp(1j * t[1])
        reported = max_points_global(tri).value
        errors = []
        for n in (2**9, 2**12):
            curve = hypotrochoid_sample(tri, n)
            sample_max = max(abs(z - centre) for _, z in curve.samples)
            assert sample_max <= reported * (1 + 1e-12)
            # quadratic droop bound on |T|^2 between samples
            f = geo.lams
            curvature = 2.0 * sum(
                r[a] * r[b] * (f[a] - f[b]) ** 2
                for a in range(3)
                for b in range(a + 1, 3)
            )
            h = TWO_PI / n
            correction = curvature * h * h / (8.0 * sample_max)
            assert reported <= sample_max + correction * 1.000001 + 1e-12
            errors.append(reported - sample_max)
        assert errors[1] <= errors[0] + 1e-15
