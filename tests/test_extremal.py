import cmath
import math

import numpy as np
import pytest

from trinomax import (
    MaxClassification,
    ReducedForm,
    SpectrumError,
    Trinomial,
    brute_max,
    canonical_reduction,
    classify_unit_ball_point,
    evaluate,
    find_max_reduced,
    max_points_global,
    random_symmetric_pair,
    random_trinomial,
    spectrum_geometry,
    unit_ball_point,
)
from trinomax import maxmod

TWO_PI = 2.0 * math.pi


def normalized_trinomial_point(freqs, moduli, phases):
    sup = max_points_global(Trinomial(*freqs, *moduli, *phases)).value
    scaled = tuple(r / sup for r in moduli)
    return unit_ball_point(freqs, scaled, phases)


class TestClassification:
    def test_monomial_is_exposed_and_extreme(self):
        point = unit_ball_point((-1, 0, 1), (0.0, 1.0, 0.0), (0.3, 0.1, 0.0))
        cls = classify_unit_ball_point(point)
        assert cls.exposed and cls.extreme

    def test_binomial_is_neither(self):
        point = unit_ball_point((-1, 0, 1), (0.5, 0.0, 0.5), (0.0, 0.0, 0.0))
        assert point.sup_norm == pytest.approx(1.0)
        cls = classify_unit_ball_point(point)
        assert not cls.exposed and not cls.extreme

    @pytest.mark.parametrize("r1,r2", [(1, 1), (2, 3), (0.5, 0.5)])
    def test_binomial_sup_norm_is_the_sum_of_moduli(self, r1, r2):
        # whatever the frequencies and phases, a binomial attains r1 + r2
        point = unit_ball_point((-1, 0, 2), (r1, 0.0, r2), (0.3, 0.0, 1.1))
        assert point.sup_norm == r1 + r2

    def test_two_point_trinomial_is_exposed_and_extreme(self):
        s = 2 * math.sqrt(2)
        point = unit_ball_point(
            (-1, 0, 1), (1 / s, 2 / s, 1 / s), (0.0, math.pi / 2, 0.0)
        )
        cls = classify_unit_ball_point(point)
        assert cls.exposed and cls.extreme
        assert cls.evidence.max_point_count == 2
        assert cls.evidence.zero_multiplicity_sum == 4

    def test_generic_trinomial_is_neither(self):
        point = normalized_trinomial_point((-1, 0, 1), (1.0, 1.5, 0.8), (0.2, 0.3, 0.9))
        cls = classify_unit_ball_point(point)
        assert not cls.exposed and not cls.extreme
        assert cls.evidence.max_point_count == 1
        assert cls.evidence.zero_multiplicity_sum == 2

    def test_quadruple_zero_is_extreme_but_not_exposed(self):
        point = normalized_trinomial_point(
            (-1, 0, 1), (1.0, 8.0, 2.0), (0.0, math.pi / 2, 0.0)
        )
        cls = classify_unit_ball_point(point)
        assert cls.extreme and not cls.exposed
        assert cls.evidence.max_point_count == 1
        assert cls.evidence.zero_multiplicity_sum == 4

    def test_random_generic_points_never_extreme(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            moduli = tuple(np.exp(rng.uniform(math.log(0.3), math.log(3.0), 3)))
            phases = tuple(rng.uniform(0, 1.5, 3))
            point = normalized_trinomial_point((-2, 1, 3), moduli, phases)
            cls = classify_unit_ball_point(point)
            assert cls.exposed is cls.extreme is False

    def test_exposed_implies_extreme_everywhere(self):
        rng = np.random.default_rng(16)
        from trinomax import random_symmetric_pair

        for _ in range(10):
            tri = random_symmetric_pair(rng)
            sup = max_points_global(tri).value
            point = unit_ball_point(
                tri.frequencies, tuple(r / sup for r in tri.moduli), tri.phases
            )
            cls = classify_unit_ball_point(point)
            assert cls.exposed and cls.extreme

    def test_tau_just_below_pi_is_neither(self):
        # 1e-8 short of the symmetric case: one maximum point, one double zero
        point = normalized_trinomial_point(
            (-1, 0, 1), (1.0, 2.0, 1.3), (0.0, (math.pi - 1e-8) / 2, 0.0)
        )
        cls = classify_unit_ball_point(point)
        assert (cls.evidence.max_point_count, cls.evidence.zero_multiplicity_sum) == (1, 2)
        assert cls.extreme is False and cls.exposed is False

    def test_just_off_the_knife_edge_is_neither(self):
        # r2 raised by 1e-6 relative: the maximum moves to the boundary point
        k, r1, r3 = 2, 0.3, 2.0
        r2 = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1) * (1.0 + 1e-6)
        point = normalized_trinomial_point(
            (-k, 0, 1), (r1, r2, r3), (0.0, math.pi / (k + 1), 0.0)
        )
        cls = classify_unit_ball_point(point)
        assert (cls.evidence.max_point_count, cls.evidence.zero_multiplicity_sum) == (1, 2)
        assert cls.extreme is False and cls.exposed is False

    def test_classes_follow_the_maximum_branch_on_wide_moduli(self):
        rng = np.random.default_rng(23)
        symmetric = {MaxClassification.SYMMETRIC_PAIR}
        extreme = symmetric | {MaxClassification.DEGENERATE4}
        cases = [(random_trinomial(rng), True) for _ in range(150)]
        cases += [(random_symmetric_pair(rng), True) for _ in range(40)]
        for _ in range(20):
            # knife edge and both sides of it, k*r1 <= r3
            k = int(rng.integers(1, 4))
            r1 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1.0))))
            r3 = k * k * r1 * float(np.exp(rng.uniform(math.log(1.5), math.log(1e2))))
            r2 = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
            for scale in (1.0, 0.9, 1.1):
                tri = Trinomial(-k, 0, 1, r1, r2 * scale, r3, 0.0, math.pi / (k + 1), 0.0)
                cases.append((tri, False))
        seen = set()
        for tri, against_oracle in cases:
            res = max_points_global(tri)
            seen.add(res.classification)
            point = normalized_trinomial_point(tri.frequencies, tri.moduli, tri.phases)
            cls = classify_unit_ball_point(point)
            assert cls.exposed == (res.classification in symmetric)
            assert cls.extreme == (res.classification in extreme)
            if not against_oracle:
                continue
            if res.classification not in symmetric:
                if canonical_reduction(tri).tau >= math.pi - 1e-3:
                    continue
                report = brute_max(tri, 1024)
            else:
                report = brute_max(tri, 4096)
            assert cls.exposed == (len(report.argmaxes) == 2)
        assert seen == set(MaxClassification) - {MaxClassification.AT_ZERO}

    def test_rejects_unnormalized(self):
        point = unit_ball_point((-1, 0, 1), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(SpectrumError):
            classify_unit_ball_point(point)


class TestTwoPointMaxima:
    # the exposed trinomials: the modulus is attained at two points modulo 2*pi/d

    def test_known_extremal_attains_its_maximum_at_both_points(self):
        # f(x) = 2 cos x + 2i, so |f|^2 = 4 cos^2 x + 4 peaks at 0 and pi
        tri = Trinomial(-1, 0, 1, 1, 2, 1, 0, math.pi / 2, 0)
        res = max_points_global(tri)
        assert res.value == pytest.approx(2 * math.sqrt(2), rel=1e-14)
        (x, _), (y, _) = res.points
        assert abs(math.remainder(x - y, TWO_PI)) == pytest.approx(math.pi, abs=1e-9)
        for x in (x, y):
            assert abs(math.remainder(x, math.pi)) < 1e-9
            assert abs(evaluate(tri, x)) == pytest.approx(res.value, rel=1e-14)

    def test_random_symmetric_pairs_attain_one_modulus_twice(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            tri = random_symmetric_pair(rng)
            res = max_points_global(tri)
            (x, vx), (y, vy) = res.points
            period = TWO_PI / spectrum_geometry(tri.frequencies).d
            assert abs(math.remainder(x - y, period)) > 1e-6
            for point, value in ((x, vx), (y, vy)):
                assert abs(evaluate(tri, point)) == pytest.approx(res.value, rel=1e-12)
                assert value == pytest.approx(res.value, rel=1e-12)
            grid = np.linspace(0.0, period, 2001)
            assert np.abs(evaluate(tri, grid)).max() <= res.value * (1 + 1e-12)

    def test_common_phase_rotation_keeps_the_points(self):
        # e^(ia) f has the maximum points of f, and its values there turn by a
        rng = np.random.default_rng(22)
        for _ in range(10):
            tri = random_symmetric_pair(rng)
            a = float(rng.uniform(-math.pi, math.pi))
            turned = Trinomial(*tri.frequencies, *tri.moduli, *(p + a for p in tri.phases))
            res, res_turned = max_points_global(tri), max_points_global(turned)
            assert res_turned.value == pytest.approx(res.value, rel=1e-12)
            for (x, _), (y, _) in zip(res.points, res_turned.points):
                assert y == pytest.approx(x, abs=1e-9)
                want = evaluate(tri, x) * cmath.exp(1j * a)
                assert evaluate(turned, y) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("k,r1,r3", [(1, 1.0, 2.0), (2, 0.3, 2.0), (3, 0.1, 2.0)])
class TestKnifeEdge:
    # given p1 + p2 + p3 = rho, the paper's parabola through the signed
    # coefficients (-r1, r2, r3) is the knife edge at
    # r2 = (k+1)^2 * r1 * r3 / (r3 - k^2 * r1)
    def on_edge(self, k, r1, r2, r3):
        form = ReducedForm(k, 1, r1, r2, r3, math.pi / (k + 1))
        margin, scale = maxmod._knife_edge(form)
        cls = find_max_reduced(form).classification
        return abs(margin) <= maxmod.DEGENERATE_REL_TOL * scale, cls is MaxClassification.DEGENERATE4

    def test_quadruple_point_moduli_lie_on_the_knife_edge(self, k, r1, r3):
        edge = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
        assert self.on_edge(k, r1, edge, r3) == (True, True)

    def test_perturbation_breaks_it(self, k, r1, r3):
        edge = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
        assert self.on_edge(k, r1, edge * 1.001, r3) == (False, False)


def test_unit_ball_point_and_classification_solve_once(monkeypatch):
    from trinomax import extremal

    calls = []
    solve = extremal.max_points_global

    def counted(trinomial):
        calls.append(trinomial)
        return solve(trinomial)

    monkeypatch.setattr(extremal, "max_points_global", counted)
    s = 2 * math.sqrt(2)
    point = unit_ball_point((-1, 0, 1), (1 / s, 2 / s, 1 / s), (0.0, math.pi / 2, 0.0))
    cls = classify_unit_ball_point(point)
    assert cls.exposed and cls.extreme
    assert len(calls) == 1
    assert point.maximum is not None and point.maximum.value == point.sup_norm


def test_only_trinomial_points_keep_a_maximum():
    assert unit_ball_point((-1, 0, 1), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)).maximum is None
    assert unit_ball_point((-1, 0, 1), (0.5, 0.0, 0.5), (0.0, 0.0, 0.0)).maximum is None
