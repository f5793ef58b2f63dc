"""Acceptance suite: every criterion at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion; any assertion failure marks the criterion red.
"""

import json
import math
import time

import numpy as np

from trinomax import (
    Multiplier,
    ReducedForm,
    Trinomial,
    brute_max,
    brute_multiplier_norm,
    brute_sidon,
    canonical_reduction,
    chebotarev_derivative,
    closed_form_k1_l1,
    closed_form_k2_l1,
    evaluate,
    farthest_points,
    find_max_reduced,
    fstar,
    half_derivative,
    lift_to_measure,
    make_reduced_form,
    max_points_global,
    multiplier_norm,
    random_symmetric_pair,
    random_trinomial,
    sidon_constant,
    unconditional_constants,
)
from trinomax.cli import main
from trinomax.maxmod import MaxClassification

TWO_PI = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)


def report(number: int, text: str) -> None:
    print(f"PASS  criterion {number:2d}: {text}")


def circular(a: float, b: float, period: float) -> float:
    return abs(math.remainder(a - b, period))


def test_criterion_01_sidon_constant_with_oracle(capsys):
    start = time.perf_counter()
    code = main(["sidon", "-l", "-1", "0", "1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    constant = json.loads(out)["results"]["constant"]
    assert abs(constant - SQRT2) <= 1e-12
    empirical = brute_sidon((-1, 0, 1), grid_phases=256, simplex_n=40, grid_n=1024)
    assert abs(empirical - SQRT2) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        report(1, f"sidon({{-1,0,1}}) = {constant:.12f}, oracle {empirical:.6f}, {elapsed:.1f}s")


def test_criterion_02_extremal_function(capsys):
    tri = Trinomial(-1, 0, 1, 1, 2, 1, 0, math.pi / 2, 0)
    res = max_points_global(tri)
    assert len(res.points) == 2
    assert res.multiplicity == 2
    (x, vx), (y, vy) = res.points
    assert abs(vx - 2 * SQRT2) <= 1e-10
    assert abs(vy - 2 * SQRT2) <= 1e-10
    assert abs(x - 0.0) <= 1e-10
    assert abs(y - math.pi) <= 1e-10
    ratio = (1 + 2 + 1) / res.value
    assert abs(ratio - SQRT2) <= 1e-10
    with capsys.disabled():
        report(2, f"max = 2*sqrt(2) at {{0, pi}}, (r1+r2+r3)/max = {ratio:.12f}")


def test_criterion_03_uniqueness_against_oracle(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    checked = 0
    worst_value = worst_pos = 0.0
    while checked < 10_000:
        tri = random_trinomial(rng)
        red = canonical_reduction(tri)
        if red.tau >= math.pi - 1e-3:
            continue
        checked += 1
        analytic = max_points_global(tri)
        oracle = brute_max(tri, 1024)
        assert len(analytic.points) == 1, f"analytic multiple points for {tri}"
        assert len(oracle.argmaxes) == 1, f"oracle multiple points for {tri}"
        period = red.period
        worst_value = max(worst_value, abs(analytic.value - oracle.value) / oracle.value)
        worst_pos = max(worst_pos, circular(analytic.points[0][0], oracle.argmaxes[0], period))
    assert worst_value <= 1e-9
    assert worst_pos <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(3, f"10^4 instances unique; value err {worst_value:.1e}, "
                  f"position err {worst_pos:.1e}, {elapsed:.1f}s")


def test_criterion_04_symmetric_pairs(capsys):
    rng = np.random.default_rng(1904)
    worst = 0.0
    for _ in range(1000):
        tri = random_symmetric_pair(rng)
        period = canonical_reduction(tri).period
        res = max_points_global(tri)
        assert len(res.points) == 2, f"expected a pair for {tri}"
        assert res.s is not None
        (x, _), (y, _) = res.points
        err = circular(x + y, res.s, period)
        worst = max(worst, err)
    assert worst <= 1e-8
    with capsys.disabled():
        report(4, f"10^3 half-turn instances give pairs with x + y = s (err {worst:.1e})")


def test_criterion_05_quadruple_multiplicity(capsys):
    rng = np.random.default_rng(55)
    worst_second = worst_fourth = 0.0
    for k in (1, 2, 3):
        for _ in range(25):
            r1 = float(np.exp(rng.uniform(math.log(0.05), math.log(1.0))))
            r3 = float(r1 * k * k * (1.0 + np.exp(rng.uniform(0.0, 2.0))))
            r2 = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
            form = ReducedForm(k, 1, r1, r2, r3, math.pi / (k + 1))
            res = find_max_reduced(form)
            assert res.classification is MaxClassification.DEGENERATE4
            assert res.multiplicity == 4
            x = res.points[0][0]
            scale = k * k * r1 * r2 + (k + 1) ** 2 * r1 * r3 + r2 * r3
            second = 2.0 * half_derivative(form, x, 2)
            worst_second = max(worst_second, abs(second) / scale)
            assert abs(second) <= 1e-6 * scale
            fourth = 2.0 * half_derivative(form, x, 4)
            expected = -2.0 * k * (k + 1) * r1 * ((k - 1) * k * r2 + (k + 1) * (k + 2) * r3)
            assert fourth < 0
            rel = abs(fourth - expected) / abs(expected)
            worst_fourth = max(worst_fourth, rel)
            assert rel <= 1e-6
    with capsys.disabled():
        report(5, f"knife-edge family: |f''| <= {worst_second:.1e}*scale, "
                  f"f'''' matches closed form to {worst_fourth:.1e}")


def test_criterion_06_monotonicity_and_derivative(capsys):
    rng = np.random.default_rng(66)
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 4)]
    for i in range(200):
        k, l = pairs[int(rng.integers(0, len(pairs)))]
        r = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3))
        taus = np.linspace(0.0, math.pi, 64)
        vals = [fstar(k, l, *r, float(t) / (k + l)) for t in taus]
        scale = float(sum(r))
        for a, b in zip(vals, vals[1:]):
            assert b - a < -1e-12 * scale
    worst_fd = 0.0
    for _ in range(50):
        k, l = pairs[int(rng.integers(0, len(pairs)))]
        r = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
        for frac in (0.3, 0.55, 0.8):
            t = frac * math.pi / (k + l)
            h = 1e-6
            fd = (fstar(k, l, *r, t + h) ** 2 - fstar(k, l, *r, t - h) ** 2) / (2 * h)
            slope = chebotarev_derivative(k, l, *r, t)
            rel = abs(slope - fd) / max(abs(fd), 1e-30)
            worst_fd = max(worst_fd, rel)
            assert rel <= 1e-5
    with capsys.disabled():
        report(6, f"200 triples strictly decreasing on 64-point grids; "
                  f"derivative vs FD err {worst_fd:.1e}")


def test_criterion_07_cosine_inequalities(capsys):
    rng = np.random.default_rng(77)
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 2)]
    min_margin = math.inf
    worst_eq = 0.0
    for i in range(1000):
        k, l = pairs[int(rng.integers(0, len(pairs)))]
        big_d = k + l
        tau = float(rng.uniform(0.2, math.pi))
        tau_p = float(rng.uniform(0.0, tau - 0.1))
        bound = math.cos(tau / (2 * big_d)) / math.cos(tau_p / (2 * big_d))
        if i % 4 == 0:
            scale = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            r = (l * scale, (k + l) * scale, k * scale)
            lhs = fstar(k, l, *r, tau / big_d)
            rhs = fstar(k, l, *r, tau_p / big_d)
            worst_eq = max(worst_eq, abs(lhs - bound * rhs) / lhs)
            assert abs(lhs - bound * rhs) <= 1e-10 * lhs
            total = sum(r)
            assert abs(fstar(k, l, *r, tau / big_d) / total - math.cos(tau / (2 * big_d))) <= 1e-10
        else:
            r = tuple(np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3)))
            lhs = fstar(k, l, *r, tau / big_d)
            rhs = fstar(k, l, *r, tau_p / big_d)
            margin = (lhs - bound * rhs) / lhs
            min_margin = min(min_margin, margin)
            assert margin > 0.0
            total = sum(r)
            assert fstar(k, l, *r, tau / big_d) / total >= math.cos(tau / (2 * big_d)) - 1e-12
    assert min_margin > 1e-9
    with capsys.disabled():
        report(7, f"cosine bounds hold on 10^3 draws; equality err {worst_eq:.1e}, "
                  f"generic margin > {min_margin:.1e}")


def test_criterion_08_multiplier_norms(capsys):
    rng = np.random.default_rng(88)
    worst_norm = worst_tv = worst_conv = 0.0
    for _ in range(20):
        while True:
            freqs = rng.integers(-5, 6, size=3)
            if len(set(freqs.tolist())) == 3:
                break
        freqs = tuple(int(f) for f in freqs)
        mult = Multiplier(*rng.uniform(0.0, TWO_PI, 3))
        norm, witness = multiplier_norm(freqs, mult)
        empirical = brute_multiplier_norm(freqs, mult)
        worst_norm = max(worst_norm, abs(empirical - norm))
        assert abs(empirical - norm) <= 1e-3

        red = canonical_reduction(Trinomial(*freqs, 1, 1, 1, *mult.phases))
        k, l = red.geometry.k, red.geometry.l
        t = red.tau / red.geometry.D
        lift = lift_to_measure(k, l, t)
        model_norm, _ = multiplier_norm((-k, 0, l), Multiplier(0.0, t, 0.0))
        worst_tv = max(worst_tv, abs(lift.total_variation - model_norm))
        assert abs(lift.total_variation - model_norm) <= 1e-12

        base = Trinomial(-k, 0, l, l, k + l, k, 0.0, math.pi / (k + l), 0.0)
        shifted = Trinomial(-k, 0, l, l, k + l, k, 0.0, math.pi / (k + l) + t, 0.0)
        for x in np.linspace(0.0, TWO_PI, 16, endpoint=False):
            conv = lift.convolve(lambda yy: evaluate(base, yy), float(x))
            want = evaluate(shifted, float(x))
            err = abs(conv - want) / (1.0 + abs(want))
            worst_conv = max(worst_conv, err)
            assert err <= 1e-9
    with capsys.disabled():
        report(8, f"20 multipliers: formula vs oracle err {worst_norm:.1e}, "
                  f"lift TV err {worst_tv:.1e}, convolution err {worst_conv:.1e}")


def test_criterion_09_dilation_settles_the_constant(capsys):
    empirical = brute_sidon((-2, 0, 2), grid_phases=256, simplex_n=40, grid_n=1024)
    assert SQRT2 - 1e-3 <= empirical <= SQRT2 + 1e-3
    with capsys.disabled():
        report(9, f"brute sidon({{-2,0,2}}) = {empirical:.6f} = sqrt(2) "
                  f"(scale-invariant reading confirmed)")


def test_criterion_10_closed_forms(capsys):
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        r = tuple(np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 3)))
        v1, _ = closed_form_k1_l1(*r)
        form1, _ = make_reduced_form(1, 1, *r, math.pi / 2)
        ref1 = find_max_reduced(form1).value
        err1 = abs(v1 - ref1) / ref1
        v2 = closed_form_k2_l1(*r)
        form2, _ = make_reduced_form(2, 1, *r, math.pi / 3)
        ref2 = find_max_reduced(form2).value
        err2 = abs(v2 - ref2) / ref2
        worst = max(worst, err1, err2)
        assert err1 <= 1e-10 and err2 <= 1e-10
    with capsys.disabled():
        report(10, f"both closed forms match find_max_reduced on 10^3 triples (err {worst:.1e})")


def test_criterion_11_unconditional_constants(capsys):
    rng = np.random.default_rng(1111)
    done = 0
    while done < 20:
        freqs = rng.integers(-12, 13, size=3)
        if len(set(freqs.tolist())) != 3:
            continue
        done += 1
        freqs = tuple(int(f) for f in freqs)
        res = unconditional_constants(freqs)
        constant, _ = sidon_constant(freqs)
        assert abs(res.real_constant - constant) <= 1e-12 * constant
        assert len(res.isometric_patterns) == 4
        assert len(res.non_isometric_patterns) == 4
    with capsys.disabled():
        report(11, "20 spectra: sign-pattern maximum equals the Sidon constant, "
                   "4 isometric patterns each")


def test_criterion_12_farthest_point_geometry(capsys):
    fig1 = Trinomial(-2, 0, 1, 4, 1, 1)
    fig2 = Trinomial(-2, 0, 1, 1 / 3, 1, 2 / 3)
    worst = 0.0
    for tri in (fig1, fig2):
        for middle_phase, expected_count in ((0.0, 1), (math.pi / 3, 2)):
            probe = Trinomial(
                tri.lambda1, tri.lambda2, tri.lambda3,
                tri.r1, tri.r2, tri.r3,
                0.0, middle_phase, 0.0,
            )
            points = farthest_points(probe)
            assert len(points) == expected_count
            reference = max_points_global(probe).value
            for _, dist in points:
                worst = max(worst, abs(dist - reference) / reference)
                assert abs(dist - reference) <= 1e-12 * reference
    with capsys.disabled():
        report(12, f"figure geometry: 1 point at centre -1, 2 at -e^(i*pi/3); "
                   f"distance err {worst:.1e}")
