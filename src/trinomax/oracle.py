"""Brute-force verification oracle, independent of the analytic path.

Grid maximisation of |T|, each grid peak near the maximum refined on the
derivative of |T|^2 (a one-point band is its own peak, one refined peak the
maximum), and one constant search for the empirical Sidon constant and
multiplier norms: both are a supremum over the unit ball of a ratio of
maximum moduli, 1/max|T| and max|MT|/max|T|, maximised by one coarse scan,
exact only on the phases whose cap from a sub-grid bound pass (all phases
folded into the sub-grid at once) reaches the best cell, and one coordinate
descent on the largest refined value.  Every stage works in y = d*x on the period 2*pi and
evaluates |T|^2 = sum r^2 + sum_{a<b} 2 r_a r_b cos(t_a - t_b + m_ab y) from
the raw coefficients and the integer steps m_ab = (lambda_a - lambda_b)/d, so
no gap is squared (2 r_a r_b gap^2 overflows past gaps of 1e154): on a grid
of ``_grid_size`` points, rounded up to a power of two, from one pair table
(``_pair_table``, stacking each step's memoised cos and sin rows, gathered by
exact masked integer index from a memoised full-turn table), which a constant
search builds once, and in the refinement, with its first two derivatives
(four at a quartic peak), from three ``math.sin`` and three ``math.cos``
calls.  The refinement reads its three pair terms as Python floats, and a
constant search computes its simplex rows' moduli terms once, so each scan
cell forms only the cos and sin of its phase gaps.  The oracle shares one
piece with the rest of the library, the dilation d of the spectrum
geometry; its evaluator is not the reduced-form expansion
``find_max_reduced`` uses, nor is its Newton loop on the + to - sign change
of d|T|^2/dy the kernel's, so the comparison stays independent; ``agreement``
is the one rule that judges it.  ``_golden_max`` refines a peak without that
sign change and runs the descent, which stops at a round that moves nothing.

All searches are deterministic given their grids and seeds.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .constants import multiplier_norm, sidon_constant
from .maxmod import (
    MaxResult,
    _knife_edge,
    closed_form_k1_l1,
    closed_form_k2_l1,
    find_max_reduced,
    max_points_global,
)
from .spectrum import (
    TWO_PI,
    Multiplier,
    SpectrumError,
    Trinomial,
    _check_moduli,
    _count,
    _geometry,
    make_reduced_form,
    spectrum_geometry,
)

__all__ = [
    "Agreement",
    "OracleReport",
    "VerificationRow",
    "agreement",
    "brute_max",
    "brute_sidon",
    "brute_multiplier_norm",
    "random_trinomial",
    "random_symmetric_pair",
    "run_verification",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# the largest oracle grid: 8 * D points at D = 2**17
MAX_GRID = 2**20
# refined peaks within this relative of the best one are maximum points too
TIE_REL_TOL = 1e-10
# a slope root where |d^2|T|^2/dx^2| is below this relative of sum w * gap^2 is
# taken for a quartic peak and refined on the root of d^3|T|^2/dx^3 instead:
# there the slope's rounding already moves its root by ~eps/1e-9 of a cycle of
# the gaps (the knife-edge quartic reads 2e-11, an ordinary peak order 1)
QUARTIC_REL_TOL = 1e-9
# the analytic maximum and the oracle's agree within these: relative value,
# and circular argmax distance (both sides find a root of the slope to a few
# ulp of x; the worst seeded gap is about 3e-15)
AGREEMENT_VALUE_TOL = 1e-9
AGREEMENT_ARGMAX_TOL = 1e-9
# verify's other rules: a symmetric pair sums to its axis s up to rounding
PAIR_AXIS_TOL = 1e-8
# closed forms vs find_max_reduced, relative; (2, 1)'s cancellation costs ~3e-11
CLOSED_FORM_REL_TOL = 1e-10
# brute Sidon/multiplier constants vs their formulas, absolute: grid-and-descent searches
CONSTANT_ABS_TOL = 1e-3


class OracleReport(NamedTuple):
    value: float
    argmaxes: tuple[float, ...]
    grid_size: int
    period: float
    evaluations: int


class Agreement(NamedTuple):
    """An analytic maximum held against the oracle's, by ``agreement``."""

    count_match: bool
    value_error: float
    argmax_error: float

    @property
    def value_ok(self) -> bool:
        return self.value_error <= AGREEMENT_VALUE_TOL

    @property
    def argmax_ok(self) -> bool:
        return self.argmax_error <= AGREEMENT_ARGMAX_TOL

    @property
    def ok(self) -> bool:
        return self.count_match and self.value_ok and self.argmax_ok


def agreement(result: MaxResult, report: OracleReport) -> Agreement:
    """Whether the point counts match, the relative value error, and the
    largest circular distance from an analytic point to its nearest oracle
    point modulo the report's period."""
    return Agreement(
        count_match=len(result.points) == len(report.argmaxes),
        value_error=abs(report.value - result.value) / report.value,
        argmax_error=max(
            min(_circular_distance(x, y, report.period) for y in report.argmaxes)
            for x, _ in result.points
        ),
    )


def _constant_agreement(got: float, expected: float) -> tuple[float, bool]:
    """A brute constant held against its formula: the error, and whether it
    is within CONSTANT_ABS_TOL."""
    error = abs(got - expected)
    return error, error <= CONSTANT_ABS_TOL


def _golden_max(fun, lo: float, hi: float, iters: int = 64) -> tuple[float, float, int]:
    """Golden-section search for a maximum of ``fun`` on [lo, hi].

    Reuses one interior evaluation per step; returns the best probe, its
    value and the number of evaluations, iters + 2.  Meant for unimodal
    brackets, where any sub-bracket around the maximum finds it again (the
    stop rule of ``_constant_search``'s descent relies on this).
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fun(c)
    fd = fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    if fc > fd:
        return c, fc, iters + 2
    return d, fd, iters + 2


def _slope_root(slope, lo: float, hi: float) -> tuple[float | None, int]:
    """Root of a slope g that goes from + to - on [lo, hi], and the number of
    evaluations; the root is None when g(lo) > 0 > g(hi) fails.

    slope(x) returns (g, g').  Bracket-keeping Newton from the midpoint: the
    sign of each g narrows the bracket, and a Newton step that leaves it or
    exceeds half the step before gives way to bisection.  Ends once a Newton
    step is within 2 ulp of the larger bracket end, or when bisection can no
    longer split the bracket.
    """
    if not slope(lo)[0] > 0.0 > slope(hi)[0]:
        return None, 2
    tol = 2.0 * math.ulp(max(abs(lo), abs(hi)))
    x, step = 0.5 * (lo + hi), hi - lo
    for n in range(3, 200):
        g, dg = slope(x)
        lo, hi = (x, hi) if g > 0.0 else (lo, x)
        newton = g / dg if dg else math.inf
        if abs(newton) <= tol:
            return x - newton, n
        if lo < x - newton < hi and abs(newton) <= 0.5 * abs(step):
            x, step = x - newton, newton
        else:
            x, step = 0.5 * (lo + hi), 0.5 * (hi - lo)
            if x in (lo, hi):
                break
    return x, n


def brute_max(trinomial: Trinomial, grid_n: int = 1024) -> OracleReport:
    """Grid scan of |T| over one period 2*pi/d, refined on the derivative.

    The grid has max(grid_n, 8 * D) points rounded up to a power of two
    (``_grid_size``).  |T|^2 is evaluated from the pair gaps lambda_a -
    lambda_b only (see ``_pair_table``: the grid phases are exact at any gap,
    by integer index), so a large common offset costs no precision.  Every
    grid local maximum that could hide the global maximum given the quadratic
    droop of |T|^2 between grid points (and at least every one within a 1e-7
    relative band of the grid maximum; a band of one point is the grid argmax)
    is refined over its two neighbouring grid cells to the + to - root of
    d|T|^2/dx, or by golden section where the slope lacks those signs; refined
    points within TIE_REL_TOL relative of the best (a single one is the best)
    are maximum points, clustered with radius 1e-4 of the period."""
    geo = _geometry(trinomial.frequencies)
    table = _pair_table(trinomial.frequencies, geo.d, _grid_size(grid_n, geo))
    return _grid_and_refine(table, trinomial.moduli, trinomial.phases)


def _grid_size(grid_n: int, geo) -> int:
    """max(grid_n, 8 * D) rounded up to a power of two: |T|^2 has degree D on
    the period, so the coarse scan's every second point still samples its top
    frequency 4 times a cycle; ``_step_turn`` masks by the power of two, which
    bounds its grid-size memos too.  Past MAX_GRID raises SpectrumError, before any table."""
    grid_n = _count(grid_n, 1024, "oracle grid must have at least 1024 points, got {n}")
    n = 1 << (max(grid_n, 8 * geo.D) - 1).bit_length()
    if n > MAX_GRID:
        raise SpectrumError(f"D = {geo.D} needs an oracle grid of {n} points, above MAX_GRID = {MAX_GRID}")
    return n


# the coefficient pairs a < b of the cross terms of |T|^2
_A, _B = np.array([0, 0, 1]), np.array([1, 2, 2])


class _PairTable(NamedTuple):
    steps: tuple[float, float, float]  # the integer gaps (lambda_a - lambda_b)/d
    d: int
    grid: np.ndarray  # cos, then sin, of step * y on the grid; shape (6, grid_n)


@lru_cache(maxsize=8)
def _full_turn(grid_n: int) -> np.ndarray:
    """cos, then sin, of 2*pi*k/grid_n for k < grid_n; read-only, shape (2, grid_n)."""
    angle = np.arange(grid_n) * (TWO_PI / grid_n)
    turn = np.vstack((np.cos(angle), np.sin(angle)))
    turn.flags.writeable = False
    return turn


# the most bytes of step rows ``_step_memo`` keeps per grid size: 64 steps at 1024 points
_STEP_MEMO_BYTES = 2**20


@lru_cache(maxsize=8)
def _step_memo(grid_n: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    return {}


def _step_turn(m: int, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of m * y_j for y_j = j * 2*pi / grid_n: two read-only rows.

    m * y_j is exactly 2*pi * (m * j mod grid_n) / grid_n, an entry of
    ``_full_turn``, however large m is: m is reduced mod grid_n as a Python
    int, past int64, so m * j < grid_n**2 <= 2**40, which the mask grid_n - 1
    takes mod grid_n exactly (grid_n is a power of two, ``_grid_size``).  The
    rows are memoised while the grid's memo stays within _STEP_MEMO_BYTES."""
    memo, m = _step_memo(grid_n), m % grid_n
    rows = memo.get(m)
    if rows is None:
        turn = _full_turn(grid_n)[:, (m * np.arange(grid_n)) & (grid_n - 1)]
        turn.flags.writeable = False
        rows = tuple(turn)
        if (len(memo) + 1) * turn.nbytes <= _STEP_MEMO_BYTES:
            memo[m] = rows
    return rows


def _pair_table(lams, d: int, grid_n: int) -> _PairTable:
    """The steps m = (lambda_a - lambda_b)/d, d, and ``_step_turn``'s exact cos and
    sin of m * y at y = d * x = j * 2*pi / grid_n, where the refinement runs too."""
    steps = [(lams[a] - lams[b]) // d for a, b in ((0, 1), (0, 2), (1, 2))]
    (c1, s1), (c2, s2), (c3, s3) = (_step_turn(m, grid_n) for m in steps)
    return _PairTable(tuple(map(float, steps)), d, np.array((c1, c2, c3, s1, s2, s3)))


def _cross_terms(r):
    """|T(x)|^2 = s0 + sum over pairs (a, b) of w * cos(t[a] - t[b] + gap * x) at
    any phases t: returns s0 and w, from moduli r along the last axis."""
    r = np.asarray(r)
    return (r * r).sum(axis=-1), 2.0 * r[..., _A] * r[..., _B]


def _refined_peaks(table: _PairTable, moduli, phases) -> tuple[list[tuple[float, float]], int]:
    """``brute_max``'s grid pass on a prebuilt pair table, the refined (y, |T|) of each peak in its band
    and the evaluation count: ``_cross_terms`` and the grid weights in Python floats, which the
    refinement reads too, in y = d * x on the period 2*pi, on the table's integer steps."""
    (r1, r2, r3), (t1, t2, t3), (g1, g2, g3) = map(float, moduli), map(float, phases), table.steps
    s0 = r1 * r1 + r2 * r2 + r3 * r3
    w1, w2, w3 = 2.0 * r1 * r2, 2.0 * r1 * r3, 2.0 * r2 * r3
    p1, p2, p3 = t1 - t2, t1 - t3, t2 - t3
    wg1, wg2, wg3 = w1 * g1, w2 * g2, w3 * g3
    wgg1, wgg2, wgg3 = wg1 * g1, wg2 * g2, wg3 * g3
    grid_n = table.grid.shape[1]
    h = TWO_PI / grid_n
    weights = np.array((w1 * math.cos(p1), w2 * math.cos(p2), w3 * math.cos(p3),
                        -w1 * math.sin(p1), -w2 * math.sin(p2), -w3 * math.sin(p3)))
    sq = weights @ table.grid
    sq += s0
    evaluations = grid_n
    vmax_sq = float(sq[sq.argmax()])

    # |T|^2 droops at most max |(|T|^2)''| * h^2 / 8 between samples; /6 is a wider margin
    curvature = wgg1 + wgg2 + wgg3
    droop_sq = curvature * h * h / 6.0
    threshold = min(vmax_sq * (1.0 - 1e-7) ** 2, vmax_sq - droop_sq)
    # a band as wide as the whole period can hold several local maxima, so each grid peak in it gets its
    # own bracket (neighbours taken cyclically); a band of one index holds the grid argmax alone, the only
    # peak.  Scalar reads filter up to 8 points, array operations (as on a flat modulus) past that
    peaks = (sq >= threshold).nonzero()[0]
    if len(peaks) > 8:
        top = sq[peaks]
        peaks = peaks[(top >= sq[peaks - 1]) & (top >= sq[(peaks + 1) & (grid_n - 1)])].tolist()
    else:
        at = sq.item
        peaks = [i for i in peaks.tolist() if at(i) >= at(i - 1) and at(i) >= at((i + 1) & (grid_n - 1))]

    def modulus_sq(y: float) -> tuple[float, float]:
        # |T|^2 and d^2|T|^2/dy^2, from the same three cosines
        c1, c2, c3 = math.cos(p1 + g1 * y), math.cos(p2 + g2 * y), math.cos(p3 + g3 * y)
        return s0 + w1 * c1 + w2 * c2 + w3 * c3, -(wgg1 * c1 + wgg2 * c2 + wgg3 * c3)

    def slope(y: float) -> tuple[float, float]:
        # d|T|^2/dy and d^2|T|^2/dy^2
        a1, a2, a3 = p1 + g1 * y, p2 + g2 * y, p3 + g3 * y
        return (
            -(wg1 * math.sin(a1) + wg2 * math.sin(a2) + wg3 * math.sin(a3)),
            -(wgg1 * math.cos(a1) + wgg2 * math.cos(a2) + wgg3 * math.cos(a3)),
        )

    def quartic_slope(y: float) -> tuple[float, float]:
        # d^3|T|^2/dy^3 and d^4|T|^2/dy^4
        a1, a2, a3 = p1 + g1 * y, p2 + g2 * y, p3 + g3 * y
        return (
            wgg1 * g1 * math.sin(a1) + wgg2 * g2 * math.sin(a2) + wgg3 * g3 * math.sin(a3),
            wgg1 * g1 * g1 * math.cos(a1) + wgg2 * g2 * g2 * math.cos(a2) + wgg3 * g3 * g3 * math.cos(a3),
        )

    refined: list[tuple[float, float]] = []
    for i in peaks:
        lo, hi = (i - 1) * h, (i + 1) * h
        y, n = _slope_root(slope, lo, hi)
        if y is None:
            y, v, m = _golden_max(lambda z: modulus_sq(z)[0], lo, hi)
        else:
            (v, bend), m = modulus_sq(y), 1
            # a quartic peak: the cubic slope loses its sign over ~eps^(1/3), but
            # d^3|T|^2/dy^3 goes + to - through the peak at a simple root
            if abs(bend) < QUARTIC_REL_TOL * curvature:
                y4, n4 = _slope_root(quartic_slope, lo, hi)
                n += n4
                if y4 is not None:
                    y, (v, _), m = y4, modulus_sq(y4), m + 1
        refined.append((y % TWO_PI, math.sqrt(v)))
        evaluations += n + m
    return refined, evaluations


def _grid_and_refine(table: _PairTable, moduli, phases) -> OracleReport:
    """``brute_max`` on a prebuilt pair table: ``_refined_peaks``' best value, and its refined points within
    TIE_REL_TOL relative of it, clustered with radius 1e-4 of the period, reported as x = y / d."""
    refined, evaluations = _refined_peaks(table, moduli, phases)
    if len(refined) == 1:  # the best peak, and its only tie
        (y, best), = refined
        return OracleReport(best, (y / table.d,), table.grid.shape[1], TWO_PI / table.d, evaluations)
    best = max(v for _, v in refined)
    keep = sorted((y, v) for y, v in refined if v >= best * (1.0 - TIE_REL_TOL))
    radius = 1e-4 * TWO_PI
    argmaxes: list[float] = []
    for y, _ in keep:
        if all(_circular_distance(y, z, TWO_PI) > radius for z in argmaxes):
            argmaxes.append(y)
    return OracleReport(best, tuple(y / table.d for y in argmaxes), table.grid.shape[1], TWO_PI / table.d, evaluations)


def _simplex_grid(n: int) -> np.ndarray:
    """Strictly positive moduli triples summing to 1, on an n-subdivision grid."""
    pts = [
        (i / n, j / n, (n - i - j) / n)
        for i in range(1, n - 1)
        for j in range(1, n - i)
    ]
    return np.asarray(pts)


def _grid_max(table: _PairTable, s0, w, phases) -> np.ndarray:
    """Grid maximum of |T|, unrefined, at one phase triple for each row of ``_cross_terms``' s0 and w.
    The product stays (rows, 6) @ (6, N): BLAS rounds a transposed product's last rows differently."""
    t, rows = np.asarray(phases), max(1, 2**22 // table.grid.shape[1])  # 32 MiB of |T|^2 at a time
    weights = np.concatenate((w * np.cos(t[_A] - t[_B]), -w * np.sin(t[_A] - t[_B])), axis=-1)
    top = [(weights[i:i + rows] @ table.grid).max(axis=1) for i in range(0, len(weights), rows)]
    return np.sqrt(np.concatenate(top) + s0)


# the bound pass's relative rounding margin: 512 u (u = 2**-53) against the 100 u ``_scan_bounds`` derives
_BOUND_REL = 2.0**-44
_BOUND_OUTPUTS = 2**15  # the most outputs of one bound-pass product (256 KiB): whole phases, or rows of w


def _scan_bounds(coarse: _PairTable, D: int, s0, w):
    """Lower and upper bounds on ``_grid_max(coarse, s0, w, phases)``, two functions of the phases (a row
    per phase; arrays of P phases give P rows), from every stride-th point, stride the largest power of
    two leaving 16 * D; None at stride 1.

    The sub-grid maximum of |T|^2 is at most the coarse one, which is at most the sub-grid one plus
    sum w * step^2 * h^2 / 8 (h the sub-grid spacing): |(|T|^2)''| <= sum w * step^2.  Each phase gap p_j
    folds into the sub-grid's cos and sin rows of step j, a_j = cos p_j C_j - sin p_j S_j, so |T|^2 - s0 =
    a @ w^T, with K = 3.  Rounding: at a shared point the exact pass (rounded weights, 6-term product) and
    the fold (3 u on each |a_j| <= 1, 3-term product) are each within 10 u (sum r)^2 of the exact sum on
    the table's entries, cos p, sin p and the added s0 included; 20 u (sum r)^2 <= 60 u max |T|^2 (|T|^2
    has mean s0 >= (sum r)^2 / 3 over more than D points) is 31 u on |T|, and the upper bound also meets
    the entries' error against exact cos and sin, under 16 u: under 100 u."""
    stride = 1 << max(0, (coarse.grid.shape[1] // (16 * D)).bit_length() - 1)
    if stride == 1:
        return None
    cos_sub, sin_sub = (np.ascontiguousarray(half[:, ::stride].T) for half in np.split(coarse.grid, 2))
    droop = w @ np.square(coarse.steps) * (TWO_PI / len(cos_sub)) ** 2 / 8.0
    rows = min(len(w), _BOUND_OUTPUTS // len(cos_sub))  # at least 2: at most 2**14 sub-grid points
    per = max(1, _BOUND_OUTPUTS // (len(cos_sub) * rows))

    def bound(phases, upper: bool) -> np.ndarray:
        t = np.stack(np.broadcast_arrays(*phases), axis=-1)
        cos_p, sin_p = (f(t[..., _A] - t[..., _B]).reshape(-1, 1, 3) for f in (np.cos, np.sin))
        sq = np.empty((len(cos_p), len(w)))
        for i in range(0, len(sq), per):
            a = cos_p[i:i + per] * cos_sub - sin_p[i:i + per] * sin_sub
            for j in range(0, len(w), rows):
                sq[i:i + per, j:j + rows] = (a @ w[j:j + rows].T).max(axis=1)
        return np.sqrt(sq + s0 + droop) * (1.0 + _BOUND_REL) if upper else np.sqrt(sq + s0) * (1.0 - _BOUND_REL)

    return partial(bound, upper=False), partial(bound, upper=True)


# smallest modulus the constant searches keep on the unit simplex
_SIMPLEX_EPS = 1e-3
# the largest constant-search grid: 8 * D points at D = 2**13, where one search
# already takes up to half a minute on a 2-vCPU machine; its cost grows with the grid
MAX_SEARCH_GRID = 2**16


def _constant_search(
    geo, shift: tuple[float, float, float] | None, grid_phases: int, simplex_n: int, grid_n: int
) -> float:
    """Sup of one ratio over moduli r on the unit simplex and the middle phase u2.

    With top(r, phases) the maximum of |T| on the sorted spectrum geo.lams, the ratio
    is top(r, base + shift) / top(r, base) at base = (0, u2, 0) for a
    multiplier's sorted phases ``shift``, and 1 / top(r, base) for the Sidon
    constant (``shift`` None; the moduli sum to 1).  It is maximised first on
    ``_simplex_grid`` times a full-turn grid of u2, with top ``_grid_max`` on
    every second point of the one pair table: a bound pass on all phases at once
    caps each phase's cells by ``_scan_bounds``' lower bound on the denominator and
    upper bound on the numerator, and the phases, largest cap first, are scanned
    exactly until a cap falls below the best cell, ties going to the lowest phase,
    then the lowest row, as in a full scan.  Then by coordinate descent on (r1, r2, u2)
    with top the largest ``_refined_peaks`` value on the whole table: at most four
    rounds of one golden section per coordinate, spans halving, ending after a
    round that moves nothing, as the next would search the same lines through
    the same point on narrower brackets (see ``_golden_max``).  A grid past
    MAX_SEARCH_GRID (D > 2**13) raises SpectrumError before any table.
    """
    grid_phases = _count(grid_phases, 1, "phase grid must have at least 1 point, got {n}")
    simplex_n = _count(simplex_n, 3, "simplex grid must have at least 3 subdivisions, got {n}")

    def ratio(den, num, u2):
        base = den((0.0, u2, 0.0))
        if shift is None:
            return 1.0 / base
        u1, v2, u3 = shift
        return num((u1, u2 + v2, u3)) / base

    grid_n = _grid_size(grid_n, geo)
    if grid_n > MAX_SEARCH_GRID:
        raise SpectrumError(
            f"D = {geo.D} gives a constant-search grid of {grid_n} points, above MAX_SEARCH_GRID = "
            f"{MAX_SEARCH_GRID}, past which one search takes a minute or more"
        )
    phase_grid = np.linspace(0.0, TWO_PI, grid_phases, endpoint=False)
    simplex = _simplex_grid(simplex_n)
    fine = _pair_table(geo.lams, geo.d, grid_n)
    coarse = fine._replace(grid=np.ascontiguousarray(fine.grid[:, ::2]))
    # the simplex rows' moduli terms, once: each scan cell forms only its phase terms
    s0, w = _cross_terms(simplex)
    # each phase's cap on its cells' ratios, from the bound pass (none at stride 1)
    scan_bounds, caps = _scan_bounds(coarse, geo.D, s0, w), np.full(grid_phases, np.inf)
    if scan_bounds is not None:
        caps = ratio(*scan_bounds, phase_grid).max(axis=1)
    exact = partial(_grid_max, coarse, s0, w)
    top, p_idx, m_idx = -math.inf, 0, 0
    for p in np.argsort(-caps, kind="stable").tolist():
        if caps[p] < top:
            break
        cells = ratio(exact, exact, phase_grid[p])
        m = int(cells.argmax())
        if (cells[m], -p) > (top, -p_idx):  # np.argmax's tie rule: lowest phase, then lowest row
            top, p_idx, m_idx = cells[m], p, m
    r1, r2, _ = simplex[m_idx]
    point = [float(r1), float(r2), float(phase_grid[p_idx])]

    def objective(params: list[float]) -> float:
        a, b, u2 = params
        rest = 1.0 - a - b
        # keep r3 on the simplex along the descent path
        if rest <= _SIMPLEX_EPS:
            return 0.0
        refined = lambda t: max(v for _, v in _refined_peaks(fine, (a, b, rest), t)[0])
        return ratio(refined, refined, u2)

    eps = _SIMPLEX_EPS
    bounds = [(eps, 1.0 - 2 * eps), (eps, 1.0 - 2 * eps), (-math.inf, math.inf)]
    spans = [2.0 / simplex_n, 2.0 / simplex_n, 2.0 * TWO_PI / grid_phases]
    best = objective(point)
    for _ in range(4):
        start = best
        for axis in range(3):
            lo = max(bounds[axis][0], point[axis] - spans[axis])
            hi = min(bounds[axis][1], point[axis] + spans[axis])
            if hi <= lo:
                continue
            x, v, _ = _golden_max(lambda y: objective(point[:axis] + [y] + point[axis + 1:]), lo, hi, iters=48)
            if v > best:
                best = v
                point[axis] = x
        if best == start:
            break
        spans = [s * 0.5 for s in spans]
    return best


def brute_sidon(
    frequencies: tuple[int, int, int],
    grid_phases: int = 256,
    simplex_n: int = 40,
    grid_n: int = 1024,
) -> float:
    """Empirical Sidon constant: 1 / min over moduli and phases of max|T|/(r1+r2+r3).

    Phases are searched on the middle coefficient only (the two outer phases
    can be rotated away by an isometry), over a full-turn grid followed by
    coordinate-descent refinement of (r1, r2, u2) on the unit simplex.
    """
    return _constant_search(spectrum_geometry(frequencies), None, grid_phases, simplex_n, grid_n)


def brute_multiplier_norm(frequencies: tuple[int, int, int], multiplier: Multiplier) -> float:
    """Empirical multiplier norm: sup over the unit ball of max|MT| / max|T|,
    searched on 96 phases, a 20-subdivision simplex and a grid floor of 1024."""
    geo = spectrum_geometry(frequencies)
    return _constant_search(geo, geo.sort(multiplier.phases), 96, 20, 1024)


def random_trinomial(
    rng: np.random.Generator, modulus_range: tuple[float, float] = (1e-2, 1e2)
) -> Trinomial:
    """Random instance: distinct frequencies in [-12, 12], log-uniform moduli."""
    try:
        low, high = modulus_range
    except (TypeError, ValueError):
        raise SpectrumError(f"modulus_range must be two values (low, high), got {modulus_range}") from None
    low, high = _check_moduli((low, high))
    if low > high:
        raise SpectrumError(f"modulus_range must be (low, high) with low <= high, got {modulus_range}")
    while True:
        freqs = rng.integers(-12, 13, size=3)
        if len(set(freqs.tolist())) == 3:
            break
    moduli = np.exp(rng.uniform(math.log(low), math.log(high), size=3))
    phases = rng.uniform(0.0, TWO_PI, size=3)
    return Trinomial(*freqs, *moduli, *phases)


def random_symmetric_pair(rng: np.random.Generator) -> Trinomial:
    """Random instance with tau = pi, outside the boundary and knife-edge
    branches, with its middle frequency in [-8, 8]."""
    coprime = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (3, 4), (1, 5)]
    while True:
        k, l = coprime[int(rng.integers(0, len(coprime)))]
        d = int(rng.integers(1, 4))
        center = int(rng.integers(-8, 9))
        freqs = (center - k * d, center, center + l * d)
        moduli = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=3))
        r1, r2, r3 = (float(m) for m in moduli)
        # the reduced form at tau = pi decides the branch tests
        form, _ = make_reduced_form(k, l, r1, r2, r3, math.pi / (k + l))
        outer1, outer3 = form.k * form.r1, form.l * form.r3
        if abs(outer1 - outer3) <= 1e-6 * max(outer1, outer3):
            continue
        if form.l == 1:
            edge, scale = _knife_edge(form)
            if edge <= 1e-4 * scale:
                continue
        u1 = float(rng.uniform(0.0, TWO_PI))
        u3 = float(rng.uniform(0.0, TWO_PI))
        j = int(rng.integers(0, k + l))
        u2 = (math.pi + l * u1 + k * u3 + TWO_PI * j) / (k + l)
        return Trinomial(*freqs, r1, r2, r3, u1, u2, u3)


class VerificationRow(NamedTuple):
    name: str
    checked: int
    failures: int
    worst_error: float


def _circular_distance(a: float, b: float, period: float) -> float:
    return abs(math.remainder(a - b, period))


def _row(label: str, tol: float | None, checked: int, results) -> VerificationRow:
    """One verify row from judged results: an (error, ok) pair per instance
    from the rule that judged it, or None for an instance that failed before
    its check.  Failures are the Nones and the pairs not ok; the worst error
    is the largest judged one.  label has a {} for tol, written 1e-9 (not
    1e-09); tol is only printed here, never compared."""
    failures = sum(r is None or not r[1] for r in results)
    worst = max((r[0] for r in results if r is not None), default=0.0)
    return VerificationRow(label if tol is None else label.format(f"{tol:.0e}".replace("e-0", "e-")),
                           checked, failures, worst)


def _axis_error(res: MaxResult) -> tuple[float, bool] | None:
    # a symmetric pair's x + y against its axis s; None unless it found a pair
    if len(res.points) != 2 or res.s is None:
        return None
    (x, _), (y, _) = res.points
    err = _circular_distance(x + y, res.s, res.reduction.period)
    return err, err <= PAIR_AXIS_TOL


def _closed_form_error(r) -> tuple[float, bool]:
    # both closed forms against find_max_reduced on their reduced forms, relative
    v1, _ = closed_form_k1_l1(*r)
    ref1 = find_max_reduced(make_reduced_form(1, 1, *r, math.pi / 2)[0]).value
    v2 = closed_form_k2_l1(*r)
    ref2 = find_max_reduced(make_reduced_form(2, 1, *r, math.pi / 3)[0]).value
    err = max(abs(v1 - ref1) / ref1, abs(v2 - ref2) / ref2)
    return err, err <= CLOSED_FORM_REL_TOL


def _brute_constant(freqs, mult: Multiplier | None) -> tuple[float, bool]:
    # a brute Sidon constant (mult None) or multiplier norm against its formula
    if mult is None:
        return _constant_agreement(brute_sidon(freqs, grid_phases=128, simplex_n=24), sidon_constant(freqs)[0])
    return _constant_agreement(brute_multiplier_norm(freqs, mult), multiplier_norm(freqs, mult)[0])


def run_verification(seed: int, count: int) -> list[VerificationRow]:
    """Oracle-agreement suites: uniqueness, argmax/value agreement, symmetric
    pairs, closed forms, and Sidon/multiplier spot checks.  Each suite judges
    its instances once and ``_row`` counts them.
    """
    seed = _count(seed, 0, "seed must be a nonnegative integer, got {n}")
    count = _count(count, 1, "count must be at least 1, got {n}")
    rng = np.random.default_rng(seed)

    # one Agreement per single-point instance, None where the point counts differ
    single: list[Agreement | None] = []
    while len(single) < count:
        tri = random_trinomial(rng)
        if abs(_geometry(tri.frequencies).signed_tau(tri.phases)) >= math.pi - 1e-3:
            continue
        analytic = max_points_global(tri)
        agreed = agreement(analytic, brute_max(tri))
        single.append(agreed if len(analytic.points) == 1 and agreed.count_match else None)
    found = [a for a in single if a is not None]

    n_sym = max(50, count // 10)
    axes = [_axis_error(max_points_global(random_symmetric_pair(rng))) for _ in range(n_sym)]
    n_cf = max(100, count // 10)
    closed = [_closed_form_error(np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size=3))) for _ in range(n_cf)]
    checks = [
        ((-1, 0, 1), None),
        ((-2, 0, 2), None),
        ((-1, 0, 1), Multiplier(0.0, math.pi / 2.0, 0.0)),
        ((-1, 0, 2), Multiplier(0.0, math.pi / 2.0, 0.0)),
    ]
    return [
        _row("uniqueness (single max point)", None, count, [None if a is None else (0.0, True) for a in single]),
        _row("value agreement (rel, tol {})", AGREEMENT_VALUE_TOL, count,
             [(a.value_error, a.value_ok) for a in found]),
        _row("argmax agreement (tol {})", AGREEMENT_ARGMAX_TOL, count,
             [(a.argmax_error, a.argmax_ok) for a in found]),
        _row("symmetric pair x + y = s (tol {})", PAIR_AXIS_TOL, n_sym, axes),
        _row("closed forms vs find_max_reduced (rel, tol {})", CLOSED_FORM_REL_TOL, n_cf, closed),
        _row("constants vs formulas (abs, tol {})", CONSTANT_ABS_TOL, len(checks),
             [_brute_constant(freqs, mult) for freqs, mult in checks]),
    ]
