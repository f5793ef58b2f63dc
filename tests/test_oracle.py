import math

import numpy as np
import pytest

from trinomax import (
    Agreement,
    MaxClassification,
    MaxResult,
    Multiplier,
    OracleReport,
    SpectrumError,
    Trinomial,
    agreement,
    brute_max,
    brute_multiplier_norm,
    brute_sidon,
    canonical_reduction,
    evaluate,
    max_points_global,
    multiplier_norm,
    random_symmetric_pair,
    random_trinomial,
    run_verification,
    sidon_constant,
    spectrum_geometry,
)
from trinomax import oracle
from trinomax.oracle import (
    AGREEMENT_ARGMAX_TOL,
    AGREEMENT_VALUE_TOL,
    TIE_REL_TOL,
    _cross_terms,
    _full_turn,
    _grid_and_refine,
    _grid_max,
    _pair_table,
    _slope_root,
)

TWO_PI = 2.0 * math.pi
# negative steps and steps past int64, on a grid whose step memo holds 64 steps and one holding 1
MASKED_FREQS = pytest.mark.parametrize("freqs", [(0, 1, 10**19), (-(10**20) - 7, 3, 2**70 + 1), (5, -2, 9)])
MASKED_GRIDS = pytest.mark.parametrize("grid_n", [1024, 2**16])


@pytest.fixture
def fresh_step_memo():
    oracle._step_memo.cache_clear()
    yield
    oracle._step_memo.cache_clear()


class TestBruteMax:
    def test_extremal_function(self):
        report = brute_max(Trinomial(-1, 0, 1, 1, 2, 1, 0, math.pi / 2, 0))
        assert report.value == pytest.approx(2 * math.sqrt(2), rel=1e-11)
        assert len(report.argmaxes) == 2
        assert report.argmaxes[0] == pytest.approx(0.0, abs=1e-6)
        assert report.argmaxes[1] == pytest.approx(math.pi, abs=1e-6)

    def test_aligned_phases(self):
        report = brute_max(Trinomial(3, 5, 9, 0.4, 1.1, 2.2))
        assert report.value == pytest.approx(3.7, rel=1e-11)
        assert len(report.argmaxes) == 1

    def test_dominates_random_samples(self):
        rng = np.random.default_rng(1)
        tri = random_trinomial(rng)
        report = brute_max(tri)
        xs = rng.uniform(0, TWO_PI, 10_000)
        assert report.value >= np.abs(evaluate(tri, xs)).max() - 1e-12 * report.value

    def test_monotone_in_grid_size(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            tri = random_trinomial(rng)
            v1 = brute_max(tri, 1024).value
            v2 = brute_max(tri, 2048).value
            assert v2 >= v1 - 1e-12 * v1

    def test_deterministic(self):
        tri = Trinomial(-4, 1, 7, 0.3, 2.0, 1.1, 0.5, 1.4, 2.7)
        a = brute_max(tri, 1024)
        b = brute_max(tri, 1024)
        assert a == b

    def test_reads_the_trinomial_s_checked_frequencies(self, count_rules):
        tri = Trinomial(-1, 0, 2, 1, 2, 3, 0.1, 0.2, 0.3)
        assert count_rules(lambda: brute_max(tri), "_frequencies") == {}

    def test_rejects_small_grid(self):
        with pytest.raises(SpectrumError):
            brute_max(Trinomial(-1, 0, 1, 1, 1, 1), 512)

    def test_wide_spectrum_agrees_with_the_analytic_maximum(self):
        # D = 3000 needs 8 * D points, rounded up to 2**15; 2048 points would alias
        tri = Trinomial(0, 1, 3000, 1, 2, 3, 0.1, 0.2, 0.3)
        report = brute_max(tri)
        assert report.grid_size == 32768
        assert agreement(max_points_global(tri), report).ok

    def test_period_respects_gcd(self):
        # dilated spectrum: the modulus profile repeats with period 2*pi/d
        tri = Trinomial(-2, 0, 2, 1, 2, 1, 0, math.pi / 2, 0)
        report = brute_max(tri)
        assert all(0 <= x < math.pi + 1e-9 for x in report.argmaxes)
        assert report.value == pytest.approx(2 * math.sqrt(2), rel=1e-11)

    @pytest.mark.parametrize("e,moduli", [(153, (1.0, 2.0, 3.0)), (54, (1e99, 2e99, 3e99))])
    def test_huge_gaps_refine_in_y_without_overflow(self, e, moduli):
        # 2*r_a*r_b*gap^2 overflows past gaps of 1e154 (1e54 at moduli near 1e99);
        # in y = d*x only the integer steps gap/d are squared, so the dilated
        # report is (0, 3, 5)'s with its argmaxes divided by d
        d = 10**e
        tri = Trinomial(0, 3 * d, 5 * d, *moduli, 0.1, 0.2, 0.3)
        report, undilated = brute_max(tri), brute_max(Trinomial(0, 3, 5, *moduli, 0.1, 0.2, 0.3))
        assert report.value == undilated.value
        assert report.argmaxes == tuple(y / d for y in undilated.argmaxes)
        assert report.period == TWO_PI / d
        assert agreement(max_points_global(tri), report).ok


class TestAgreementWithAnalyticPath:
    def test_five_hundred_random_instances(self):
        rng = np.random.default_rng(20260810)
        checked = 0
        while checked < 500:
            tri = random_trinomial(rng)
            red = canonical_reduction(tri)
            if red.tau >= math.pi - 1e-3:
                continue
            checked += 1
            analytic = max_points_global(tri)
            report = brute_max(tri, 1024)
            assert len(analytic.points) == 1
            assert len(report.argmaxes) == 1
            period = red.period
            assert analytic.value == pytest.approx(report.value, rel=1e-9)
            assert abs(
                math.remainder(analytic.points[0][0] - report.argmaxes[0], period)
            ) < AGREEMENT_ARGMAX_TOL

    def test_wide_moduli_values_agree(self):
        # one dominant modulus flattens |T| until the refinement band spans
        # the whole period; every grid peak in it must still be refined
        rng = np.random.default_rng(1)
        for _ in range(500):
            tri = random_trinomial(rng, modulus_range=(1e-6, 1e6))
            analytic = max_points_global(tri).value
            report = brute_max(tri, 1024)
            assert report.value == pytest.approx(analytic, rel=1e-9, abs=0.0)

    def test_symmetric_pairs_found_by_both(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            tri = random_symmetric_pair(rng)
            period = canonical_reduction(tri).period
            analytic = max_points_global(tri)
            report = brute_max(tri, 4096)
            assert len(analytic.points) == 2
            assert len(report.argmaxes) == 2
            for x, _ in analytic.points:
                assert any(
                    abs(math.remainder(x - bx, period)) < AGREEMENT_ARGMAX_TOL for bx in report.argmaxes
                )


class TestDerivativeRefinement:
    def test_wide_moduli_argmax_within_1e_9(self):
        # one dominant modulus leaves |T|^2 flat to rounding far wider than
        # 1e-9 around its maximum, so a search on |T|^2 alone misses this
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(1500):
            tri = random_trinomial(rng, modulus_range=(1e-6, 1e6))
            if canonical_reduction(tri).tau >= math.pi - 1e-3:
                continue
            agreed = agreement(max_points_global(tri), brute_max(tri, 2048))
            if agreed.count_match:
                checked += 1
                assert agreed.argmax_error <= 1e-9, tri
        assert checked > 1300

    def test_root_of_a_simple_slope(self):
        x, n = _slope_root(lambda x: (math.cos(x), -math.sin(x)), 0.0, 3.0)
        assert x == pytest.approx(math.pi / 2, abs=4e-16)
        assert n < 10

    def test_root_of_a_cubic_slope(self):
        # a quartic maximum: Newton alone converges only linearly there
        x, _ = _slope_root(lambda x: (-((x - 1.0) ** 3), -3.0 * (x - 1.0) ** 2), 0.0, 2.5)
        assert x == pytest.approx(1.0, abs=4e-15)

    @pytest.mark.parametrize("signs", [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
    def test_no_plus_to_minus_sign_change_gives_no_root(self, signs):
        lo, hi = signs
        assert _slope_root(lambda x: (lo if x < 0.5 else hi, 0.0), 0.0, 1.0) == (None, 2)

    def test_brackets_without_the_sign_change_fall_back_to_golden_section(self, monkeypatch):
        tri = Trinomial(-1, 0, 2, 0.7, 1.3, 0.4, 0.2, 1.1, 2.5)
        newton = brute_max(tri)
        monkeypatch.setattr(oracle, "_slope_root", lambda slope, lo, hi: (None, 2))
        golden = brute_max(tri)
        assert golden.value == pytest.approx(newton.value, rel=1e-14)
        assert golden.argmaxes == pytest.approx(newton.argmaxes, abs=1e-6)
        assert golden.evaluations > newton.evaluations

    def test_quartic_peak_on_the_knife_edge(self):
        # |T|^2 is quartic at pi/2, so the slope root alone lands 7e-6 off
        tri = Trinomial(-1, 0, 1, 1, 8, 2, 0, math.pi / 2, 0)
        report = brute_max(tri)
        assert report.value == pytest.approx(9.0, rel=1e-15)
        assert len(report.argmaxes) == 1
        assert abs(report.argmaxes[0] - math.pi / 2) <= AGREEMENT_ARGMAX_TOL
        assert agreement(max_points_global(tri), report).ok

    @pytest.mark.parametrize("tri", [
        Trinomial(-1, 0, 2, 0.7, 1.3, 0.4, 0.2, 1.1, 2.5),
        Trinomial(-1, 0, 1, 1, 12, 2, 0, math.pi / 2, 0),
    ])
    def test_a_quadratic_peak_keeps_the_slope_root(self, monkeypatch, tri):
        refined = []

        def root(slope, lo, hi):
            refined.append(slope.__name__)
            return _slope_root(slope, lo, hi)

        monkeypatch.setattr(oracle, "_slope_root", root)
        assert agreement(max_points_global(tri), brute_max(tri)).ok
        assert set(refined) == {"slope"}


class TestBruteSidon:
    def test_symmetric_three_terms(self):
        value = brute_sidon((-1, 0, 1), grid_phases=128, simplex_n=24)
        assert value == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_asymmetric_three_terms(self):
        value = brute_sidon((-1, 0, 2), grid_phases=128, simplex_n=24)
        assert value == pytest.approx(1.0 / math.cos(math.pi / 6), abs=1e-3)

    def test_dilated_spectrum_keeps_the_constant(self):
        value = brute_sidon((-2, 0, 2), grid_phases=128, simplex_n=24)
        assert value == pytest.approx(math.sqrt(2), abs=1e-3)


class TestBruteMultiplierNorm:
    def test_isometric_multiplier(self):
        value = brute_multiplier_norm((-1, 0, 1), Multiplier(0.4, 0.4, 0.4))
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_quarter_turn(self):
        value = brute_multiplier_norm((-1, 0, 1), Multiplier(0, math.pi / 2, 0))
        assert value == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_asymmetric_spectrum(self):
        value = brute_multiplier_norm((-1, 0, 2), Multiplier(0, math.pi / 2, 0))
        expected = math.cos(math.pi / 12) / math.cos(math.pi / 6)
        assert value == pytest.approx(expected, abs=1e-3)


class TestPowerOfTwoGrid:
    """Every oracle grid is max(floor, 8 * D) rounded up to a power of two,
    and the peaks it refines are pinned on four shapes."""

    @pytest.mark.parametrize("floor,size", [(1024, 1024), (1025, 2048), (1500, 2048), (4096, 4096)])
    def test_the_floor_rounds_up_to_a_power_of_two(self, floor, size):
        assert oracle._grid_size(floor, spectrum_geometry((-1, 0, 1))) == size

    def test_the_diameter_rule_and_the_cap(self):
        assert oracle._grid_size(1024, spectrum_geometry((0, 1, 3000))) == 32768
        assert oracle._grid_size(1500, spectrum_geometry((0, 1, 3000))) == 32768
        # past D = 2**17 is TestSearchGridGuard's; a floor past the cap raises too
        with pytest.raises(SpectrumError, match="above MAX_GRID"):
            oracle._grid_size(oracle.MAX_GRID + 1, spectrum_geometry((-1, 0, 1)))

    @staticmethod
    def wrap_at_the_last_grid_point() -> Trinomial:
        # aligned at x0 = 1023.3 cells: the grid maximum is at index 1023, whose
        # right neighbour is index 0
        x0 = 1023.3 * TWO_PI / 1024
        return Trinomial(0, 1, 3, 1.0, 0.7, 0.4, *(-lam * x0 for lam in (0, 1, 3)))

    def test_the_shapes_are_as_named(self):
        flat = np.abs(evaluate(Trinomial(-3, 0, 5, 1, 1e-8, 1e-8, 0.1, 0.2, 0.3), np.arange(1024) * TWO_PI / 1024))
        assert flat.min() ** 2 >= flat.max() ** 2 * (1.0 - 1e-7) ** 2
        wrap = np.abs(evaluate(self.wrap_at_the_last_grid_point(), np.arange(1024) * TWO_PI / 1024))
        assert int(np.argmax(wrap)) == 1023 and wrap[0] < wrap[1023]
        # the runner-up falls below the band's droop margin, sum w * gap^2 * h^2 / 6
        narrow = np.sort(np.abs(evaluate(Trinomial(-1, 0, 2, 1, 2, 3, 0.1, 0.2, 0.3), np.arange(1024) * TWO_PI / 1024)))
        assert narrow[-2] ** 2 < narrow[-1] ** 2 - 106.0 * (TWO_PI / 1024) ** 2 / 6.0

    @pytest.mark.parametrize(
        "shape,grid_size,evaluations,argmax",
        [
            # every grid point lies in the 1e-7 band
            ("flat", 1024, 1077, 6.257157971917594),
            ("wrap", 1024, 1030, 6.278890160973505),
            ("wide", 32768, 35520, 6.182587542791041),
            # the band holds the grid maximum alone
            ("narrow", 1024, 1030, 6.222808192680188),
        ],
    )
    def test_the_refined_peaks_are_pinned(self, shape, grid_size, evaluations, argmax):
        tri = {
            "flat": Trinomial(-3, 0, 5, 1, 1e-8, 1e-8, 0.1, 0.2, 0.3),
            "wrap": self.wrap_at_the_last_grid_point(),
            "wide": Trinomial(0, 1, 3000, 1, 2, 3, 0.1, 0.2, 0.3),
            "narrow": Trinomial(-1, 0, 2, 1, 2, 3, 0.1, 0.2, 0.3),
        }[shape]
        report = brute_max(tri)
        assert report.grid_size == grid_size
        assert report.evaluations == evaluations
        assert report.argmaxes == pytest.approx((argmax,), rel=0.0, abs=1e-12)


class TestSearchGridGuard:
    def test_small_grid_fails_before_the_coarse_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("a table or the coarse scan ran before the count checks")

        monkeypatch.setattr(oracle, "_grid_max", scan)
        monkeypatch.setattr(oracle, "_pair_table", scan)
        with pytest.raises(SpectrumError, match="at least 1024 points, got 512"):
            brute_sidon((-1, 0, 1), grid_n=512)
        with pytest.raises(SpectrumError, match="phase grid must have at least 1 point, got 0"):
            brute_sidon((-1, 0, 1), grid_phases=0)
        with pytest.raises(SpectrumError, match="simplex grid must have at least 3 subdivisions, got 2"):
            brute_sidon((-1, 0, 1), simplex_n=2)

    def test_a_diameter_past_the_largest_grid_fails_before_any_table(self, monkeypatch):
        def table(*args):
            raise AssertionError("a table or the coarse scan ran before the grid check")

        monkeypatch.setattr(oracle, "_grid_max", table)
        monkeypatch.setattr(oracle, "_pair_table", table)
        assert oracle._grid_size(1024, spectrum_geometry((0, 1, 2**17))) == oracle.MAX_GRID
        wide = (0, 1, 2**17 + 1)
        with pytest.raises(SpectrumError, match="D = 131073 needs an oracle grid of 2097152 points"):
            brute_max(Trinomial(*wide, 1, 2, 3))
        with pytest.raises(SpectrumError, match="D = 131073"):
            brute_sidon(wide)
        with pytest.raises(SpectrumError, match="D = 131073"):
            brute_multiplier_norm(wide, Multiplier(0, math.pi / 2, 0))

    def test_a_search_past_the_largest_search_grid_fails_before_any_table(self, monkeypatch):
        def table(*args):
            raise AssertionError("a table or the coarse scan ran before the search-grid check")

        monkeypatch.setattr(oracle, "_grid_max", table)
        monkeypatch.setattr(oracle, "_pair_table", table)
        wide = (0, 1, 8193)
        with pytest.raises(SpectrumError, match="D = 8193 gives a constant-search grid of 131072 points"):
            brute_sidon(wide)
        with pytest.raises(SpectrumError, match="D = 8193 gives a constant-search grid of 131072 points"):
            brute_multiplier_norm(wide, Multiplier(0.7, 2.1, 5.3))

    def test_the_largest_search_grid_reaches_the_table(self, monkeypatch):
        class Reached(Exception):
            pass

        def table(lams, d, grid_n):
            raise Reached(grid_n)

        monkeypatch.setattr(oracle, "_pair_table", table)
        with pytest.raises(Reached, match=str(oracle.MAX_SEARCH_GRID)):
            brute_sidon((0, 1, 8192))
        with pytest.raises(Reached, match=str(oracle.MAX_SEARCH_GRID)):
            brute_multiplier_norm((0, 1, 8192), Multiplier(0.7, 2.1, 5.3))


class TestConstantSearchBounds:
    """A brute constant is a value the search attained, so it never exceeds
    the formula beyond rounding."""

    def test_searches_stay_below_the_formulas(self):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(6):
            while True:
                freqs = tuple(int(f) for f in rng.integers(-6, 7, size=3))
                if len(set(freqs)) == 3:
                    break
            cases.append((freqs, Multiplier(*rng.uniform(0.0, TWO_PI, 3))))
        # D = 699 needs 8192 points; on 1024 the grid aliases and overshoots by 2e-5
        cases.append(((0, 1, 700), Multiplier(0.7, 2.1, 5.3)))
        for freqs, mult in cases:
            sidon = 1.0 / math.cos(math.pi / (2 * spectrum_geometry(freqs).D))
            norm, _ = multiplier_norm(freqs, mult)
            assert brute_sidon(freqs, grid_phases=48, simplex_n=12) <= sidon * (1.0 + 1e-12)
            assert brute_multiplier_norm(freqs, mult) <= norm * (1.0 + 1e-12)


class TestDescentStopRule:
    """The constant searches' coordinate descent ends after the first round
    that moves no coordinate.  A round is three golden sections of 48 + 2
    evaluations, each one ``_refined_peaks`` call for Sidon and two for a
    multiplier, after one evaluation at the scan's best point."""

    ROUND = 3 * 50

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        refine = oracle._refined_peaks

        def counted(*args):
            calls.append(None)
            return refine(*args)

        monkeypatch.setattr(oracle, "_refined_peaks", counted)
        return calls

    def test_a_round_without_a_move_ends_the_descent(self, calls):
        value = brute_sidon((-1, 0, 1), grid_phases=128, simplex_n=24)
        assert value == pytest.approx(math.sqrt(2), abs=1e-3)
        assert len(calls) <= 1 + 2 * self.ROUND

    def test_a_descent_that_moves_reaches_the_formulas(self, calls):
        # the optimal u2 of (0, 2, 5) is off the phase grid, so round 1 moves
        freqs, mult = (0, 2, 5), Multiplier(0.7, 2.1, 5.3)
        assert brute_sidon(freqs, grid_phases=128, simplex_n=24) == pytest.approx(sidon_constant(freqs)[0], rel=1e-12)
        assert len(calls) > 1 + self.ROUND
        assert brute_multiplier_norm(freqs, mult) == pytest.approx(multiplier_norm(freqs, mult)[0], rel=1e-12)


def aligned_at(cells: float) -> Trinomial:
    # every term in phase at x0 = cells grid steps of 1024: |T| peaks there, at 2.1
    x0 = cells * TWO_PI / 1024
    return Trinomial(0, 1, 3, 1.0, 0.7, 0.4, *(-lam * x0 for lam in (0, 1, 3)))


class TestValueOnlyDescent:
    """The descent reads the largest refined value of ``_refined_peaks``, which must be
    ``brute_max``'s value bit for bit on every band size and filter path; ``brute_max``'s reports
    (value, argmaxes, evaluations) are pinned as they were before the split."""

    CASES = pytest.mark.parametrize("tri,band,pinned", [
        # a band of one point, the grid argmax
        (Trinomial(-1, 0, 2, 1, 2, 3, 0.1, 0.2, 0.3), 1, (5.9994339801686545, (6.222808192680188,), 1030)),
        # 2 to 7 points, filtered by scalar reads: one peak over two points, three peaks, two peaks
        # over two points each, and 7 points holding indices 1022 and 1023
        (Trinomial(8, -10, -8, 16.036, 2.131, 0.024, 2.721, 3.01, 1.004), 2,
         (18.190827482634578, (1.0633182783110497,), 1030)),
        (Trinomial(-2, -11, 8, 0.028, 4.744, 10.323, 5.912, 2.45, 2.447), 3,
         (15.094658650039026, (0.33086676653872354,), 1043)),
        (Trinomial(6, 1, -10, 0.278, 0.012, 98.561, 0.859, 2.13, 1.891), 4,
         (98.8508439060991, (3.9911959665960905,), 1038)),
        (Trinomial(-8, 11, -1, 4.429, 38.219, 0.05, 4.182, 4.372, 4.542), 7,
         (42.69795879852084, (2.6355375397625034,), 1059)),
        # the peak at index N - 1 and at index 0, each the other's cyclic neighbour, and the two equal
        (aligned_at(1023.45), 2, (2.0999999999999996, (6.279810549446238,), 1030)),
        (aligned_at(1023.55), 2, (2.0999999999999996, (6.280424141761391,), 1033)),
        (aligned_at(1023.5), 2, (2.0999999999999996, (6.280117345603815,), 1038)),
        # equal neighbours sq[402] == sq[401] inside the grid
        (aligned_at(401.5), 2, (2.0999999999999996, (2.46357314534434,), 1036)),
        # past 8 points, filtered by array: 9 one-point peaks, the quartic knife-edge peak, the flat modulus
        (Trinomial(-6, 12, -7, 82.716, 19.233, 0.045, 3.382, 1.649, 4.694), 9,
         (101.99336288624781, (1.143481887268141,), 1075)),
        (Trinomial(-1, 0, 1, 1, 8, 2, 0, math.pi / 2, 0), 39, (9.0, (1.5707963267948968,), 1052)),
        (Trinomial(-3, 0, 5, 1, 1e-8, 1e-8, 0.1, 0.2, 0.3), 1024, (1.0000000199972603, (6.257157971917594,), 1077)),
    ])

    @staticmethod
    def table_and_grid(tri):
        # the pair table brute_max builds, and |T|^2 on its grid by _refined_peaks' own arithmetic
        table = _pair_table(tri.frequencies, spectrum_geometry(tri.frequencies).d, 1024)
        (r1, r2, r3), (t1, t2, t3) = tri.moduli, tri.phases
        w, p = (2.0 * r1 * r2, 2.0 * r1 * r3, 2.0 * r2 * r3), (t1 - t2, t1 - t3, t2 - t3)
        sq = np.array([a * math.cos(b) for a, b in zip(w, p)] + [-a * math.sin(b) for a, b in zip(w, p)]) @ table.grid
        sq += r1 * r1 + r2 * r2 + r3 * r3
        top, h = float(sq.max()), TWO_PI / len(sq)
        curvature = sum(a * g * g for a, g in zip(w, table.steps))
        return table, sq, np.flatnonzero(sq >= min(top * (1.0 - 1e-7) ** 2, top - curvature * h * h / 6.0))

    @CASES
    def test_the_descent_value_is_brute_max_s(self, tri, band, pinned):
        table, _, points = self.table_and_grid(tri)
        assert len(points) == band
        refined, _ = oracle._refined_peaks(table, tri.moduli, tri.phases)
        report = brute_max(tri)
        assert max(v for _, v in refined) == report.value
        assert (report.value, report.argmaxes, report.evaluations) == pinned

    @CASES
    def test_the_golden_section_fallback_keeps_them_equal(self, monkeypatch, tri, band, pinned):
        monkeypatch.setattr(oracle, "_slope_root", lambda slope, lo, hi: (None, 2))
        table, _, _ = self.table_and_grid(tri)
        refined, _ = oracle._refined_peaks(table, tri.moduli, tri.phases)
        report = brute_max(tri)
        assert max(v for _, v in refined) == report.value
        assert report.evaluations > pinned[2]

    def test_the_cases_are_as_named(self):
        _, sq, points = self.table_and_grid(aligned_at(1023.45))
        assert points.tolist() == [0, 1023] and sq[1023] > sq[0]
        _, sq, points = self.table_and_grid(aligned_at(1023.55))
        assert points.tolist() == [0, 1023] and sq[0] > sq[1023]
        _, sq, points = self.table_and_grid(aligned_at(1023.5))
        assert points.tolist() == [0, 1023] and sq[0] == sq[1023]
        _, sq, points = self.table_and_grid(aligned_at(401.5))
        assert points.tolist() == [401, 402] and sq[401] == sq[402]
        _, _, points = self.table_and_grid(Trinomial(-8, 11, -1, 4.429, 38.219, 0.05, 4.182, 4.372, 4.542))
        assert points.tolist()[-2:] == [1022, 1023]


class TestScanBoundPass:
    """The constant searches' coarse scan runs its exact pass only on the
    phases whose cap from the sub-grid bound pass reaches the best cell so far,
    and finds the cell a full scan finds, bit for bit."""

    MULT = Multiplier(0.7, 2.1, 5.3)
    # brute_sidon(freqs, 128, 24) and brute_multiplier_norm(freqs, MULT) as computed by a
    # full coarse scan, before the bound pass: (-1, 0, 1), (-2, 0, 4) and (1, 2, 5) have a
    # sub-grid (stride 16, 8, 8), (0, 2, 5) a descent that moves, (0, 1, 24) no sub-grid
    PINNED = [
        ((-1, 0, 1), 1.4142135623730951, 1.3354126364639074),
        ((-2, 0, 4), 1.1547005383792517, 1.036240113857828),
        ((1, 2, 5), 1.082392200292394, 1.0438396326827402),
        ((0, 2, 5), 1.0514622242382672, 1.0468045521710634),
        ((0, 1, 24), 1.001663284348601, 1.0018266554243735),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        # each search's _refined_peaks calls (the first is the descent's start) and its exact-pass _grid_max calls
        calls = {"start": [], "exact": 0}
        refine, grid_max = oracle._refined_peaks, oracle._grid_max

        def first_refine(table, moduli, phases):
            calls["start"].append((tuple(moduli), tuple(phases)))
            return refine(table, moduli, phases)

        def counted_grid_max(*args):
            calls["exact"] += 1
            return grid_max(*args)

        monkeypatch.setattr(oracle, "_refined_peaks", first_refine)
        monkeypatch.setattr(oracle, "_grid_max", counted_grid_max)
        return calls

    @staticmethod
    def full_scan_start(freqs, shift, grid_phases, simplex_n):
        # the full scan, with no bound pass: every (phase, simplex row) cell, then np.argmax
        geo = spectrum_geometry(freqs)
        fine = _pair_table(geo.lams, geo.d, oracle._grid_size(1024, geo))
        coarse = fine._replace(grid=np.ascontiguousarray(fine.grid[:, ::2]))
        simplex, phase_grid = oracle._simplex_grid(simplex_n), np.linspace(0.0, TWO_PI, grid_phases, endpoint=False)
        s0, w = _cross_terms(simplex)
        scan = []
        for u2 in phase_grid:
            base = _grid_max(coarse, s0, w, (0.0, u2, 0.0))
            if shift is None:
                scan.append(1.0 / base)
            else:
                scan.append(_grid_max(coarse, s0, w, (shift[0], u2 + shift[1], shift[2])) / base)
        p, m = np.unravel_index(np.argmax(np.asarray(scan)), (grid_phases, len(simplex)))
        a, b, _ = simplex[m]
        return (a, b, 1.0 - a - b), (0.0, phase_grid[p], 0.0)

    @pytest.mark.parametrize("freqs,sidon,norm", PINNED)
    def test_the_constants_are_pinned_and_the_descent_starts_at_the_full_scan_argmax(self, calls, freqs, sidon, norm):
        assert brute_sidon(freqs, grid_phases=128, simplex_n=24) == sidon
        assert calls["start"][0] == self.full_scan_start(freqs, None, 128, 24)
        sidon_cells, calls["start"], calls["exact"] = calls["exact"], [], 0
        assert brute_multiplier_norm(freqs, self.MULT) == norm
        assert calls["start"][0] == self.full_scan_start(freqs, spectrum_geometry(freqs).sort(self.MULT.phases), 96, 20)
        if freqs == (0, 1, 24):  # no sub-grid: every phase gets the exact pass
            assert (sidon_cells, calls["exact"]) == (128, 2 * 96)
        else:  # at most 4 of 128 Sidon phases and 4 of 96 multiplier phases
            assert sidon_cells <= 4 and calls["exact"] <= 2 * 4

    @pytest.mark.parametrize("freqs", [(-1, 0, 1), (1, 2, 5)])
    def test_a_scan_of_ties_starts_where_np_argmax_does(self, calls, freqs):
        # the identity multiplier's every cell is exactly 1: every phase gets the exact
        # pass, and the start is phase 0, row 0, whatever order the caps give
        identity = Multiplier(0.0, 0.0, 0.0)
        assert brute_multiplier_norm(freqs, identity) == 1.0
        assert calls["exact"] == 2 * 96
        assert calls["start"][0] == self.full_scan_start(freqs, (0.0, 0.0, 0.0), 96, 20)
        moduli, phases = calls["start"][0]
        assert (moduli[:2], phases) == ((0.05, 0.05), (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("dilation", [1, 3])
    @pytest.mark.parametrize("grid_n", [1024, 4096])
    def test_the_bounds_hold_each_coarse_cell(self, dilation, grid_n):
        # lower <= exact <= upper for the base and the shifted phases alike, on every D
        # with a sub-grid at the 1024 floor (strides 16 at D = 2 down to 2 at D = 9..16)
        rng = np.random.default_rng(41)
        moduli = rng.dirichlet(np.ones(3), size=60)
        s0, w = _cross_terms(moduli)
        for D in range(2, 17):
            for lams in ((0, 1, D), (-1 - D // 3, 0, D - 1 - D // 3)):
                lams = tuple(dilation * lam for lam in lams)
                geo = spectrum_geometry(lams)
                fine = _pair_table(geo.lams, geo.d, grid_n)
                coarse = fine._replace(grid=np.ascontiguousarray(fine.grid[:, ::2]))
                lower, upper = oracle._scan_bounds(coarse, geo.D, s0, w)
                for t in rng.uniform(0.0, TWO_PI, (6, 3)):
                    exact = _grid_max(coarse, s0, w, t)
                    assert np.all(lower(t) <= exact) and np.all(exact <= upper(t))

    @pytest.mark.parametrize("freqs,rows,points,chunks", [((-1, 0, 1), 60, 32, (17, 9)), ((0, 1, 16), 253, 256, (128, 125))])
    def test_a_whole_phase_grid_is_bounded_in_one_call(self, freqs, rows, points, chunks):
        # chunks: the whole phases a product takes and the last product's (D = 2), or, where one phase
        # exceeds a product, the rows of w a product takes and the last product's (D = 16)
        outputs = oracle._BOUND_OUTPUTS
        size = outputs // (points * rows) if points * rows <= outputs else outputs // points
        assert (size, (128 if points * rows <= outputs else rows) % size) == chunks
        rng = np.random.default_rng(43)
        s0, w = _cross_terms(rng.dirichlet(np.ones(3), size=rows))
        geo = spectrum_geometry(freqs)
        fine = _pair_table(geo.lams, geo.d, 1024)
        coarse = fine._replace(grid=np.ascontiguousarray(fine.grid[:, ::2]))
        # the stride rule: 512 coarse points over the stride leave at least 16 * D, fewer than 32 * D
        assert 16 * geo.D <= points < 32 * geo.D
        lower, upper = oracle._scan_bounds(coarse, geo.D, s0, w)
        u2 = np.linspace(0.0, TWO_PI, 128, endpoint=False)
        for t1, t2, t3 in ((0.0, u2, 0.0), (0.7, u2 + 2.1, 5.3)):
            low, up = lower((t1, t2, t3)), upper((t1, t2, t3))
            assert low.shape == up.shape == (128, rows)
            for p in range(128):
                exact = _grid_max(coarse, s0, w, (t1, t2[p], t3))
                assert np.all(low[p] <= exact) and np.all(exact <= up[p])

    def test_the_bound_pass_stops_where_the_sub_grid_would_be_too_sparse(self):
        # 16 * D sub-grid points at least: at the 1024 floor D = 16 keeps stride 2, D = 17 has none
        s0, w = _cross_terms(np.full((1, 3), 1.0 / 3.0))
        for D, has_bounds in ((16, True), (17, False)):
            fine = _pair_table((0, 1, D), 1, 1024)
            coarse = fine._replace(grid=np.ascontiguousarray(fine.grid[:, ::2]))
            assert (oracle._scan_bounds(coarse, D, s0, w) is not None) == has_bounds


class TestPairCosineEvaluator:
    """The oracle's pair table and its |T|^2 against direct phases and the
    plain complex sum."""

    @pytest.mark.parametrize("freqs", [(-1, 0, 1), (-2, 0, 4), (1, 2, 5), (-4, 0, 2)])
    @pytest.mark.parametrize("mult", [None, (0.7, 2.1, 5.3)])
    def test_coarse_scan_cells_match_the_complex_grid_max(self, freqs, mult):
        rng = np.random.default_rng(31)
        geo = spectrum_geometry(freqs)
        phase_grid = rng.uniform(0.0, TWO_PI, 3)
        moduli = rng.dirichlet(np.ones(3), size=4)
        grid_n = 512
        table = _pair_table(geo.lams, geo.d, grid_n)
        s0, w = _cross_terms(moduli)
        got = []
        for u2 in phase_grid:
            cell = _grid_max(table, s0, w, (0.0, u2, 0.0))
            if mult is not None:
                cell = _grid_max(table, s0, w, (mult[0], u2 + mult[1], mult[2])) / cell
            got.append(cell)
        xs = np.linspace(0.0, TWO_PI / geo.d, grid_n, endpoint=False)

        def grid_max(r, phases):
            return np.abs(evaluate(Trinomial(*geo.lams, *r, *phases), xs)).max()

        for i, u2 in enumerate(phase_grid):
            for j, r in enumerate(moduli):
                want = grid_max(r, (0.0, u2, 0.0))
                if mult is not None:
                    want = grid_max(r, (mult[0], u2 + mult[1], mult[2])) / want
                assert got[i][j] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_coarse_scan_in_row_chunks_matches_row_by_row(self):
        # 2**16 grid points: _grid_max takes 64 moduli rows at a time, so 150 rows make 3 chunks
        table = _pair_table((0, 3, 7000), 1, 2**16)
        moduli = np.random.default_rng(8).dirichlet(np.ones(3), size=150)
        s0, w = _cross_terms(moduli)
        got = _grid_max(table, s0, w, (0.0, 1.3, 0.0))
        want = [_grid_max(table, s0[i:i + 1], w[i:i + 1], (0.0, 1.3, 0.0))[0] for i in range(len(moduli))]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("freqs", [(-1, 0, 1), (1, 2, 5), (0, 3, 40)])
    def test_refinement_and_scan_describe_one_modulus(self, freqs):
        # the refinement's scalar pair terms and the scan's array ones: the
        # refined maximum is at least the grid maximum (up to rounding) and
        # above it by at most the droop of |T|^2 between grid points
        geo = spectrum_geometry(freqs)
        table = _pair_table(geo.lams, geo.d, 1024)
        h = TWO_PI / 1024
        rng = np.random.default_rng(17)
        for r, t in zip(np.exp(rng.uniform(-3.0, 3.0, (20, 3))), rng.uniform(0.0, TWO_PI, (20, 3))):
            s0, w = _cross_terms(r[None, :])
            grid = _grid_max(table, s0, w, t)[0]
            droop = float(w[0] @ np.square(table.steps)) * h * h / 8.0
            value = _grid_and_refine(table, r, t).value
            assert grid * (1.0 - 1e-15) <= value <= math.sqrt(grid * grid + droop)

    def test_grid_ignores_a_common_offset(self):
        offset = _pair_table((10**9, 10**9 + 1, 10**9 + 3), 1, 1024)
        small = _pair_table((0, 1, 3), 1, 1024)
        assert offset.steps == small.steps
        np.testing.assert_array_equal(offset.grid, small.grid)

    @pytest.mark.parametrize("freqs", [(0, 1, 3), (-4, 2, 7), (-3, 0, 6)])
    @pytest.mark.parametrize("grid_n", [1024, 2048])
    def test_entries_match_the_direct_phases(self, freqs, grid_n):
        # gap * x_j evaluated directly, x_j = j * (2*pi/d) / grid_n; (-3, 0, 6) has d = 3
        d = spectrum_geometry(freqs).d
        table = _pair_table(freqs, d, grid_n)
        gaps = [freqs[a] - freqs[b] for a, b in ((0, 1), (0, 2), (1, 2))]
        arg = np.outer(gaps, np.arange(grid_n) * (TWO_PI / d / grid_n))
        assert table.steps == tuple(float(gap // d) for gap in gaps)
        assert table.d == d
        assert table.grid.shape == (6, grid_n)
        np.testing.assert_allclose(table.grid, np.vstack((np.cos(arg), np.sin(arg))), rtol=0.0, atol=1e-13)

    @MASKED_FREQS
    @MASKED_GRIDS
    def test_masked_index_matches_a_modulo_reference(self, freqs, grid_n):
        # negative gaps and gaps beyond int64: the index (gap/d) * j mod grid_n
        # in Python ints, against the table's mask of the reduced steps
        d = spectrum_geometry(freqs).d
        table = _pair_table(freqs, d, grid_n)
        turn = _full_turn(grid_n)
        gaps = [freqs[a] - freqs[b] for a, b in ((0, 1), (0, 2), (1, 2))]
        for row, gap in enumerate(gaps):
            index = [(gap // d) * j % grid_n for j in range(grid_n)]
            np.testing.assert_array_equal(table.grid[row], turn[0, index])
            np.testing.assert_array_equal(table.grid[row + 3], turn[1, index])
        assert table.steps == tuple(float(gap // d) for gap in gaps)

    def test_the_full_turn_memo_is_read_only(self):
        turn = _full_turn(1024)
        assert turn is _full_turn(1024)
        with pytest.raises(ValueError):
            turn[0, 0] = 2.0

    def test_step_rows_are_read_only_and_memoised(self, fresh_step_memo):
        rows = oracle._step_turn(-3, 1024)
        assert oracle._step_turn(1021, 1024) is rows
        for row in rows:
            with pytest.raises(ValueError):
                row[0] = 2.0

    def test_the_step_memo_stops_storing_at_its_byte_cap(self, monkeypatch, fresh_step_memo):
        # three steps' cos and sin rows at 1024 points
        monkeypatch.setattr(oracle, "_STEP_MEMO_BYTES", 3 * 2 * 1024 * 8)
        first = [oracle._step_turn(m, 1024) for m in range(5)]
        assert sorted(oracle._step_memo(1024)) == [0, 1, 2]
        again = [oracle._step_turn(m, 1024) for m in range(5)]
        assert [a is b for a, b in zip(first, again)] == [True, True, True, False, False]
        np.testing.assert_array_equal(first, again)
        assert oracle._step_memo.cache_info().maxsize == 8

    @MASKED_FREQS
    @MASKED_GRIDS
    def test_memoised_rows_give_the_gathered_tables_and_reports(self, freqs, grid_n, monkeypatch, fresh_step_memo):
        # the memo off (cap 0) against tables read back from it, on steps past
        # int64 and on a dilation by 2**64 with a common offset
        dilated = Trinomial(10**9, 10**9 + 3 * 2**64, 10**9 + 7 * 2**64, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        d = spectrum_geometry(freqs).d
        r, t = (1.0, 2.0, 3.0), (0.1, 0.2, 0.3)
        monkeypatch.setattr(oracle, "_STEP_MEMO_BYTES", 0)
        gathered, gathered_report = _pair_table(freqs, d, grid_n), brute_max(dilated, grid_n)
        assert not oracle._step_memo(grid_n)
        monkeypatch.undo()
        _pair_table(freqs, d, grid_n), brute_max(dilated, grid_n)  # fills the memo up to its cap
        memoised, memoised_report = _pair_table(freqs, d, grid_n), brute_max(dilated, grid_n)
        assert oracle._step_memo(grid_n)
        assert (memoised.steps, memoised.d) == (gathered.steps, gathered.d)
        np.testing.assert_array_equal(memoised.grid, gathered.grid)
        assert _grid_and_refine(memoised, r, t) == _grid_and_refine(gathered, r, t)
        assert memoised_report == gathered_report

    @staticmethod
    def assert_value_is_the_modulus_at_the_argmaxes(report, tri):
        # the value is |T| at the best argmax; the others are ties within TIE_REL_TOL
        moduli = [abs(evaluate(tri, x)) for x in report.argmaxes]
        assert max(moduli) == pytest.approx(report.value, rel=1e-12, abs=0.0)
        assert min(moduli) >= report.value * (1.0 - TIE_REL_TOL)

    def test_brute_max_value_is_the_modulus_at_the_argmaxes(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            tri = random_trinomial(rng, modulus_range=(1e-6, 1e6))
            self.assert_value_is_the_modulus_at_the_argmaxes(brute_max(tri, 1024), tri)

    def test_brute_max_value_at_a_large_common_offset(self):
        # evaluate at frequencies near 1e9 loses about 1e9 * ulp(x) in each
        # phase, so the reference is the translated trinomial, which has the
        # same modulus everywhere
        offset = Trinomial(10**9, 10**9 + 1, 10**9 + 3, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        small = Trinomial(0, 1, 3, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        self.assert_value_is_the_modulus_at_the_argmaxes(brute_max(offset), small)


def test_run_verification_all_green():
    rows = run_verification(seed=123, count=200)
    assert all(row.failures == 0 for row in rows)
    names = [row.name for row in rows]
    assert any("uniqueness" in n for n in names)
    assert any("symmetric" in n for n in names)


def test_run_verification_counts_each_failure_in_its_own_row(monkeypatch):
    # every third oracle report gets a second argmax and a doubled value, and
    # the brute Sidon constant is one above its formula
    true_brute_max = oracle.brute_max
    calls = 0
    value_errors, argmax_errors = [], []

    def doctored_brute_max(tri):
        nonlocal calls
        calls += 1
        report = true_brute_max(tri)
        if calls % 3 == 0:
            x = report.argmaxes[0]
            return report._replace(value=2.0 * report.value, argmaxes=(x, x + 0.5 * report.period))
        agreed = agreement(max_points_global(tri), report)
        value_errors.append(agreed.value_error)
        argmax_errors.append(agreed.argmax_error)
        return report

    monkeypatch.setattr(oracle, "brute_max", doctored_brute_max)
    monkeypatch.setattr(oracle, "brute_sidon", lambda freqs, **kw: sidon_constant(freqs)[0] + 1.0)
    unique, value, argmax, _, _, constants = run_verification(seed=123, count=30)
    assert calls == 30
    assert (unique.checked, unique.failures, unique.worst_error) == (30, 10, 0.0)
    assert (value.checked, value.failures, value.worst_error) == (30, 0, max(value_errors))
    assert (argmax.checked, argmax.failures, argmax.worst_error) == (30, 0, max(argmax_errors))
    assert (constants.checked, constants.failures) == (4, 2)
    assert constants.worst_error == pytest.approx(1.0, abs=1e-15)


class TestAgreementRule:
    # synthetic answers on the period 2*pi, all of value 2.0 unless given
    PERIOD = TWO_PI

    def result(self, *xs, value=2.0):
        return MaxResult(tuple((x, value) for x in xs), MaxClassification.INTERIOR_UNIQUE, None)

    def report(self, *xs, value=2.0):
        return OracleReport(value, tuple(xs), 1024, self.PERIOD, 0)

    def test_identical_answers_agree(self):
        agreed = agreement(self.result(1.0), self.report(1.0))
        assert agreed == Agreement(True, 0.0, 0.0)
        assert agreed.ok

    def test_count_mismatch_fails(self):
        agreed = agreement(self.result(1.0), self.report(1.0, 3.0))
        assert not agreed.count_match
        assert not agreed.ok

    def test_value_error_of_5e_9_fails(self):
        agreed = agreement(self.result(1.0, value=2.0 * (1.0 + 5e-9)), self.report(1.0))
        assert agreed.value_error == pytest.approx(5e-9, rel=1e-6)
        assert agreed.count_match and agreed.argmax_ok
        assert not agreed.value_ok and not agreed.ok

    def test_argmax_error_of_2e_9_fails(self):
        agreed = agreement(self.result(1.0), self.report(1.0 + 2e-9))
        assert agreed.argmax_error == pytest.approx(2e-9, rel=1e-6)
        assert agreed.value_ok and not agreed.argmax_ok and not agreed.ok

    def test_points_across_the_period_boundary_agree(self):
        agreed = agreement(self.result(1e-11), self.report(self.PERIOD - 1e-11))
        assert agreed.argmax_error == pytest.approx(2e-11, rel=1e-4)
        assert agreed.ok

    def test_pairs_match_each_point_to_its_nearest_oracle_point(self):
        agreed = agreement(self.result(0.5, 3.0), self.report(3.0 + 1e-10, 0.5 - 1e-10))
        assert agreed.argmax_error == pytest.approx(1e-10, rel=1e-5)
        assert agreed.ok

    def test_thresholds(self):
        assert (AGREEMENT_VALUE_TOL, AGREEMENT_ARGMAX_TOL) == (1e-9, 1e-9)


class TestLargeCommonOffset:
    def test_brute_max_matches_the_translated_trinomial(self):
        # |T| is unchanged by a common frequency offset; at 1e9 the raw
        # phases t + lambda*x would lose about 1e9 * ulp(x)
        offset = Trinomial(10**9, 10**9 + 1, 10**9 + 3, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        small = Trinomial(0, 1, 3, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        got, want = brute_max(offset), brute_max(small)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
        assert len(got.argmaxes) == len(want.argmaxes) == 1
        assert got.argmaxes[0] == pytest.approx(want.argmaxes[0], abs=1e-12)
        assert got.period == want.period == TWO_PI

    def test_oracle_agrees_with_the_analytic_point(self):
        offset = Trinomial(10**9, 10**9 + 1, 10**9 + 3, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        assert agreement(max_points_global(offset), brute_max(offset)).ok
