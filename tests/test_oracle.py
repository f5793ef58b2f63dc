import math
from dataclasses import replace

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
    derive_spectrum_stats,
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


class TestAgreementWithAnalyticPath:
    def test_five_hundred_random_instances(self):
        rng = np.random.default_rng(20260810)
        checked = 0
        while checked < 500:
            tri = random_trinomial(rng)
            stats = derive_spectrum_stats(tri)
            if stats.tau >= math.pi - 1e-3:
                continue
            checked += 1
            analytic = max_points_global(tri)
            report = brute_max(tri, 1024)
            assert len(analytic.points) == 1
            assert len(report.argmaxes) == 1
            period = TWO_PI / stats.d
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
            stats = derive_spectrum_stats(tri)
            analytic = max_points_global(tri)
            report = brute_max(tri, 4096)
            assert len(analytic.points) == 2
            assert len(report.argmaxes) == 2
            period = TWO_PI / stats.d
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
            if derive_spectrum_stats(tri).tau >= math.pi - 1e-3:
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
        grid_n = 384
        table = _pair_table(geo.lams, geo.d, grid_n)
        s0, w, _ = _cross_terms(moduli, np.zeros(3))
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
        s0, w, _ = _cross_terms(moduli, np.zeros(3))
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
        h = table.period / 1024
        rng = np.random.default_rng(17)
        for r, t in zip(np.exp(rng.uniform(-3.0, 3.0, (20, 3))), rng.uniform(0.0, TWO_PI, (20, 3))):
            s0, w, _ = _cross_terms(r[None, :], t)
            grid = _grid_max(table, s0, w, t)[0]
            droop = float(w[0] @ np.square(table.gaps)) * h * h / 8.0
            value = _grid_and_refine(table, r, t).value
            assert grid * (1.0 - 1e-15) <= value <= math.sqrt(grid * grid + droop)

    def test_grid_ignores_a_common_offset(self):
        offset = _pair_table((10**9, 10**9 + 1, 10**9 + 3), 1, 1024)
        small = _pair_table((0, 1, 3), 1, 1024)
        assert offset.gaps == small.gaps
        np.testing.assert_array_equal(offset.grid, small.grid)

    @pytest.mark.parametrize("freqs", [(0, 1, 3), (-4, 2, 7), (-3, 0, 6)])
    @pytest.mark.parametrize("grid_n", [1024, 1500])
    def test_entries_match_the_direct_phases(self, freqs, grid_n):
        # gap * x_j evaluated directly, x_j = j * (2*pi/d) / grid_n; (-3, 0, 6) has d = 3
        d = spectrum_geometry(freqs).d
        table = _pair_table(freqs, d, grid_n)
        gaps = [freqs[a] - freqs[b] for a, b in ((0, 1), (0, 2), (1, 2))]
        arg = np.outer(gaps, np.arange(grid_n) * (TWO_PI / d / grid_n))
        assert table.gaps == tuple(map(float, gaps))
        assert table.period == TWO_PI / d
        assert table.grid.shape == (6, grid_n)
        np.testing.assert_allclose(table.grid, np.vstack((np.cos(arg), np.sin(arg))), rtol=0.0, atol=1e-13)

    def test_gaps_beyond_int64_do_not_overflow(self):
        grid_n = 1024
        table = _pair_table((0, 1, 10**19), 1, grid_n)
        turn = _full_turn(grid_n)
        # the pair (0, 2) has gap -10**19: its step is -10**19 mod grid_n
        index = (-(10**19 % grid_n) * np.arange(grid_n)) % grid_n
        np.testing.assert_array_equal(table.grid[1], turn[0, index])
        np.testing.assert_array_equal(table.grid[4], turn[1, index])
        assert table.gaps[1] == -1e19

    def test_the_full_turn_memo_is_read_only(self):
        turn = _full_turn(1024)
        assert turn is _full_turn(1024)
        with pytest.raises(ValueError):
            turn[0, 0] = 2.0

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
            return replace(report, value=2.0 * report.value, argmaxes=(x, x + 0.5 * report.period))
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
        return MaxResult(tuple((x, value) for x in xs), 2, MaxClassification.INTERIOR_UNIQUE, None)

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
