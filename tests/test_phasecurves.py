import math

import numpy as np
import pytest

from trinomax import (
    MaxClassification,
    SpectrumError,
    Trinomial,
    chebotarev_derivative,
    evaluate,
    fstar,
    max_points_global,
    sweep_rows,
)
from trinomax import find_max_reduced, make_reduced_form
from trinomax.maxmod import BracketFailure

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


def pairs_of_rows(rows):
    return [(rows[i], rows[j]) for i in range(len(rows)) for j in range(i)]


class TestRatio:
    @pytest.mark.parametrize("family", [(1, 2, 2.0, 0.7, 1.0), (1, 1, 1, 2, 1)])
    def test_constant_when_balanced(self, family):
        # k*r1 = l*r3: the maximum stays at 0, so ratio is 1 up to the last row (tau = pi)
        for row in sweep_rows(*family, 16):
            assert row.ratio == pytest.approx(1.0, abs=1e-12)

    def test_extremal_instance_is_balanced(self):
        # moduli (l, k+l, k) have k*r1 = l*r3, hence ratio 1 up to tau = pi
        for k, l in ((1, 2), (3, 2), (2, 5)):
            for row in sweep_rows(k, l, l, k + l, k, 16):
                assert row.ratio == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_otherwise(self):
        vals = [row.ratio for row in sweep_rows(1, 2, 1.0, 1.0, 1.0, 24)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0, abs=1e-12)


class TestCosQuotientBound:
    def test_reference_value(self):
        rows = sweep_rows(1, 1, 1.0, 1.0, 1.0, 2)
        assert rows[-1].bound / rows[0].bound == pytest.approx(1 / math.sqrt(2))

    def test_tends_to_one(self):
        # on a fine sweep neighbouring rows are 1e-3 apart: both quotients
        # lie in [bound quotient, 1] and the bound quotient tends to 1
        rows = sweep_rows(1, 2, 0.5, 1.5, 1.0, 512)
        for prev, row in zip(rows, rows[1:]):
            quotient = row.bound / prev.bound
            assert 1.0 - 1e-3 < quotient < 1.0
            assert quotient * (1 - 1e-12) <= row.fstar / prev.fstar <= 1.0

    def test_equality_at_extremal_moduli(self):
        # moduli (l, k+l, k): the bound is attained between every pair of rows
        for k, l in ((1, 1), (1, 2), (3, 2)):
            for i, j in pairs_of_rows(sweep_rows(k, l, l, k + l, k, 9)):
                assert i.fstar == pytest.approx(i.bound / j.bound * j.fstar, rel=1e-10)

    def test_strict_inequality_for_generic_moduli(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            for i, j in pairs_of_rows(sweep_rows(1, 2, *r, 9)):
                assert i.fstar >= i.bound / j.bound * j.fstar * (1 - 1e-12)


class TestModuliSumBound:
    def test_zero_phase_equality(self):
        row = sweep_rows(1, 2, 0.7, 1.1, 2.0, 8)[0]
        assert row.tau == 0.0
        assert row.fstar / (0.7 + 1.1 + 2.0) == pytest.approx(1.0)
        assert row.bound == 1.0

    def test_holds_on_every_row(self):
        rng = np.random.default_rng(34)
        for k, l in ((1, 1), (1, 2), (3, 2), (2, 5)):
            r = np.exp(rng.uniform(math.log(0.1), math.log(10), 3))
            rows = sweep_rows(k, l, *r, 16)
            total = float(sum(r))
            assert rows[0].fstar / total == pytest.approx(1.0)
            for row in rows:
                assert row.fstar / total >= row.bound * (1 - 1e-12)

    def test_extremal_moduli_equality(self):
        for k, l in ((1, 2), (2, 1), (1, 1)):
            for row in sweep_rows(k, l, l, k + l, k, 16):
                assert row.fstar / (2 * (k + l)) == pytest.approx(row.bound, abs=1e-10)

    def test_strict_above_otherwise(self):
        row = sweep_rows(1, 2, 1.0, 1.0, 1.0, 3)[1]  # tau = pi/2, t = pi/6
        assert row.fstar / 3.0 > row.bound + 1e-9

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

    @pytest.mark.parametrize("n", [12, 14, 26])
    def test_last_row_is_exactly_pi(self, n):
        # pi*(n-1)/(n-1) rounds below pi at n = 12 and above it at n = 14
        rows = sweep_rows(1, 2, 1, 1, 1, n)
        assert (rows[-1].tau, rows[-1].t) == (math.pi, math.pi / 3)
        assert [row.tau for row in rows[:-1]] == [math.pi * i / (n - 1) for i in range(n - 1)]

    def test_broken_bracket_raises_from_the_sweep(self, monkeypatch):
        # flipping the sign of sin flips the kernel's slope, which breaks the
        # bracket of every interior row
        sin = math.sin
        monkeypatch.setattr(math, "sin", lambda x: -sin(x))
        with pytest.raises(BracketFailure, match="endpoint derivative signs violate the bracket"):
            sweep_rows(1, 2, 0.5, 1.5, 1.0, 16)


def _sweep_families():
    """Seeded (kind, k, l, r1, r2, r3): wide moduli, moduli near 1e100 (the
    kernel's products reach 1e200), k*r1 = l*r3, and l = 1 with r2 on the
    knife edge or past it (the boundary branch at tau = pi)."""
    rng = np.random.default_rng(41)
    fams = [("huge", 1, 2, 3e99, 5e99, 1e100)]
    for k, l in ((1, 1), (1, 2), (3, 2), (2, 5), (7, 3), (1, 12)):
        fams.append(("wide", k, l, *np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 3)).tolist()))
    for k, l in ((1, 2), (3, 1), (4, 3)):
        r2, r3 = np.exp(rng.uniform(-2.0, 2.0, 2)).tolist()
        fams.append(("at-zero", k, l, l * r3 / k, r2, r3))
    for k in (1, 2, 3):
        r1 = float(np.exp(rng.uniform(-1.0, 1.0)))
        r3 = k * k * r1 * float(np.exp(rng.uniform(0.1, 2.0)))
        edge = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
        fams.append(("knife-edge", k, 1, r1, edge, r3))
        fams.append(("boundary", k, 1, r1, 1.5 * edge, r3))
    return fams


LAST_ROW_CLASS = {"knife-edge": MaxClassification.DEGENERATE4, "boundary": MaxClassification.AT_BOUNDARY}


@pytest.mark.parametrize("fam", _sweep_families(), ids=lambda fam: f"{fam[0]}-{fam[1]}-{fam[2]}")
def test_sweep_matches_scalar_fstar(fam):
    kind, k, l, r1, r2, r3 = fam
    for n in (2, 3, 7, 14, 64, 301):
        rows = sweep_rows(k, l, r1, r2, r3, n)
        # fstar shares the sweep's path, so the reference is the full solve of each row's checked form
        for row in rows:
            ref = find_max_reduced(make_reduced_form(k, l, r1, r2, r3, row.t)[0]).value
            assert row.fstar == ref
        if kind in LAST_ROW_CLASS:
            last, _ = make_reduced_form(k, l, r1, r2, r3, rows[-1].t)
            assert find_max_reduced(last).classification is LAST_ROW_CLASS[kind]


@pytest.mark.parametrize(
    "call",
    [
        lambda: sweep_rows(1, 2, 1.0, 2.0, 3.0, 4),
        lambda: fstar(1, 2, 1.0, 2.0, 3.0, 0.4),
        lambda: fstar(2, 1, 3.0, 2.0, 1.0, -7.0),
        lambda: chebotarev_derivative(1, 2, 1.0, 2.0, 3.0, 0.4),
        lambda: chebotarev_derivative(2, 1, 3.0, 2.0, 1.0, math.pi / 3, side="-"),
    ],
    ids=["sweep", "fstar", "fstar-folded-swapped", "chebotarev", "chebotarev-edge-swapped"],
)
def test_each_input_rule_runs_once(count_rules, call):
    # the sweep's t = 0 and tau = pi rows and the folded phase build their forms unchecked
    rules = ("_check_gaps", "_check_reduced", "_check_moduli")
    assert count_rules(call, *rules) == dict.fromkeys(rules, 1)


def test_fstar_reduces_a_large_phase_exactly():
    # the phases rule reduces t past a turn as Trinomial stores its phase, where
    # t % (2*pi/D) would carry the rounding of 2*pi times t/(2*pi) turns
    k, l, r = 1, 2, (1.0, 2.0, 3.0)
    draws = [(k, l, r, 1e12)]
    rng = np.random.default_rng(39)
    for _ in range(200):
        k, l = ((1, 1), (1, 2), (3, 2), (2, 5), (7, 3))[rng.integers(5)]
        t = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 15.0))
        draws.append((k, l, tuple(np.exp(rng.uniform(-2.0, 2.0, 3)).tolist()), t))
    for k, l, r, t in draws:
        want = max_points_global(Trinomial(-k, 0, l, *r, 0.0, t, 0.0)).value
        assert fstar(k, l, *r, t) == pytest.approx(want, rel=1e-15, abs=0.0), (k, l, r, t)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_fstar_rejects_a_phase_that_is_not_finite(t):
    with pytest.raises(SpectrumError, match="t must be finite"):
        fstar(1, 2, 1.0, 2.0, 3.0, t)
