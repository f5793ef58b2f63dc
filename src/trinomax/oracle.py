"""Brute-force verification oracle, independent of the analytic path.

Grid maximisation of |T| with each grid peak refined on the derivative of
|T|^2, and one constant search for the empirical Sidon constant and
multiplier norms: both are a supremum over the unit ball of a ratio of
maximum moduli, 1/max|T| and max|MT|/max|T|, maximised by one coarse scan
and one coordinate descent.  Every stage evaluates
|T(x)|^2 = sum r^2 + sum_{a<b} 2 r_a r_b cos(t_a - t_b + (lambda_a - lambda_b) x)
from the raw coefficients: on a grid of ``_grid_size`` points from one
pair table (``_pair_table``, gathered by exact integer index from a
memoised full-turn table of cos and sin), which a constant search builds
once, and in the refinement, with its first two derivatives (four at a
quartic peak), from three ``math.sin`` and three ``math.cos`` calls.  The
refinement reads its three pair terms as Python floats, and a constant
search computes its simplex rows' moduli terms once, so each scan cell
forms only the cos and sin of its phase gaps.  The oracle shares one piece
with the rest of the library, the period 2*pi/d from ``spectrum_geometry``;
its evaluator is not the reduced-form expansion ``find_max_reduced`` uses,
nor is its Newton loop on the + to - sign change of d|T|^2/dx the kernel's,
so the comparison stays independent; ``agreement`` is the one rule that
judges it.  ``_golden_max`` refines a bracket without that sign change (a
flat or double peak) and runs the coordinate descent.

All searches are deterministic given their grids and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

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
    derive_spectrum_stats,
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


@dataclass(frozen=True)
class OracleReport:
    value: float
    argmaxes: tuple[float, ...]
    grid_size: int
    period: float
    evaluations: int


@dataclass(frozen=True)
class Agreement:
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
    value and the number of evaluations.  Meant for unimodal brackets.
    """
    a, b = lo, hi
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc = fun(c)
    fd = fun(d)
    count = 2
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = fun(d)
        count += 1
    if fc > fd:
        return c, fc, count
    return d, fd, count


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

    The grid has grid_n points, or 8 * D rounded up to a power of two if more
    (``_grid_size``).  |T|^2 is evaluated from the pair gaps lambda_a -
    lambda_b only (see ``_pair_table``: the grid phases are exact at any gap,
    by integer index), so a large common offset costs no precision.  Every
    grid local maximum that could hide the global maximum given the quadratic
    droop of |T|^2 between grid points (and at least every one within a 1e-7
    relative band of the grid maximum) is refined over its two neighbouring
    grid cells to the + to - root of d|T|^2/dx, or by golden section where
    the slope lacks those signs; refined points within TIE_REL_TOL relative
    of the best are maximum points, clustered with radius 1e-4 of the period.
    """
    geo = spectrum_geometry(trinomial.frequencies)
    table = _pair_table(trinomial.frequencies, geo.d, _grid_size(grid_n, geo))
    return _grid_and_refine(table, trinomial.moduli, trinomial.phases)


def _grid_size(grid_n: int, geo) -> int:
    """The floor grid_n, or 8 * D rounded up to a power of two if more: |T|^2
    has degree D on the period, so the coarse scan's every second point still
    samples its top frequency 4 times a cycle, and powers of two bound the
    ``_full_turn`` memo.  Past MAX_GRID raises SpectrumError, before any table."""
    grid_n = _count(grid_n, 1024, "oracle grid must have at least 1024 points, got {n}")
    n = max(grid_n, 1 << (8 * geo.D - 1).bit_length())
    if n > MAX_GRID:
        raise SpectrumError(f"D = {geo.D} needs an oracle grid of {n} points, above MAX_GRID = {MAX_GRID}")
    return n


# the coefficient pairs a < b of the cross terms of |T|^2
_A, _B = np.array([0, 0, 1]), np.array([1, 2, 2])


@dataclass(frozen=True)
class _PairTable:
    gaps: tuple[float, float, float]
    period: float
    grid: np.ndarray  # cos, then sin, of gap * x on the grid; shape (6, grid_n)


@lru_cache(maxsize=8)
def _full_turn(grid_n: int) -> np.ndarray:
    """cos, then sin, of 2*pi*k/grid_n for k < grid_n; read-only, shape (2, grid_n)."""
    angle = np.arange(grid_n) * (TWO_PI / grid_n)
    turn = np.vstack((np.cos(angle), np.sin(angle)))
    turn.flags.writeable = False
    return turn


def _pair_table(lams, d: int, grid_n: int) -> _PairTable:
    """cos and sin of (lambda_a - lambda_b) * x at x = j * (2*pi/d) / grid_n.

    Each gap is a multiple of d, so gap * x is exactly 2*pi * ((gap/d) * j mod
    grid_n) / grid_n, an entry of ``_full_turn``: no phase is lost however
    large the gaps.  The steps gap/d are reduced as Python ints, past int64.
    """
    gaps = [lams[a] - lams[b] for a, b in zip(_A, _B)]
    index = np.outer([(g // d) % grid_n for g in gaps], np.arange(grid_n)) % grid_n
    grid = np.take(_full_turn(grid_n), index, axis=1).reshape(6, grid_n)
    return _PairTable(tuple(map(float, gaps)), TWO_PI / d, grid)


def _cross_terms(r, t):
    """|T(x)|^2 = s0 + sum over pairs of w * cos(p + gap * x), from moduli r
    and phases t along the last axis: returns s0, w and p."""
    r, t = np.asarray(r), np.asarray(t)
    return (r * r).sum(axis=-1), 2.0 * r[..., _A] * r[..., _B], t[..., _A] - t[..., _B]


def _grid_weights(w, p) -> np.ndarray:
    # |T|^2 on the grid is s0 + weights @ table.grid
    return np.concatenate((w * np.cos(p), -w * np.sin(p)), axis=-1)


def _grid_and_refine(table: _PairTable, moduli, phases) -> OracleReport:
    """``brute_max`` on a prebuilt pair table: ``_cross_terms`` and
    ``_grid_weights`` in Python floats, which the refinement reads too."""
    (r1, r2, r3), (t1, t2, t3), (g1, g2, g3) = map(float, moduli), map(float, phases), table.gaps
    s0 = r1 * r1 + r2 * r2 + r3 * r3
    w1, w2, w3 = 2.0 * r1 * r2, 2.0 * r1 * r3, 2.0 * r2 * r3
    p1, p2, p3 = t1 - t2, t1 - t3, t2 - t3
    wg1, wg2, wg3 = w1 * g1, w2 * g2, w3 * g3
    wgg1, wgg2, wgg3 = wg1 * g1, wg2 * g2, wg3 * g3
    grid_n = table.grid.shape[1]
    period = table.period
    h = period / grid_n
    weights = np.array((w1 * math.cos(p1), w2 * math.cos(p2), w3 * math.cos(p3),
                        -w1 * math.sin(p1), -w2 * math.sin(p2), -w3 * math.sin(p3)))
    sq = s0 + weights @ table.grid
    evaluations = grid_n
    vmax_sq = float(sq.max())

    # |T|^2 droops at most max |(|T|^2)''| * h^2 / 8 between samples; /6 is a wider margin
    curvature = wgg1 + wgg2 + wgg3
    droop_sq = curvature * h * h / 6.0
    threshold = min(vmax_sq * (1.0 - 1e-7) ** 2, vmax_sq - droop_sq)
    # a band as wide as the whole period can hold several local maxima, so
    # each grid peak in it gets its own bracket (neighbours taken cyclically)
    idx = np.flatnonzero(sq >= threshold)
    top = sq[idx]
    peaks = idx[(top >= sq[idx - 1]) & (top >= sq[(idx + 1) % grid_n])]

    def modulus_sq(x: float) -> tuple[float, float]:
        # |T|^2 and d^2|T|^2/dx^2, from the same three cosines
        c1, c2, c3 = math.cos(p1 + g1 * x), math.cos(p2 + g2 * x), math.cos(p3 + g3 * x)
        return s0 + w1 * c1 + w2 * c2 + w3 * c3, -(wgg1 * c1 + wgg2 * c2 + wgg3 * c3)

    def slope(x: float) -> tuple[float, float]:
        # d|T|^2/dx and d^2|T|^2/dx^2
        a1, a2, a3 = p1 + g1 * x, p2 + g2 * x, p3 + g3 * x
        return (
            -(wg1 * math.sin(a1) + wg2 * math.sin(a2) + wg3 * math.sin(a3)),
            -(wgg1 * math.cos(a1) + wgg2 * math.cos(a2) + wgg3 * math.cos(a3)),
        )

    def quartic_slope(x: float) -> tuple[float, float]:
        # d^3|T|^2/dx^3 and d^4|T|^2/dx^4
        a1, a2, a3 = p1 + g1 * x, p2 + g2 * x, p3 + g3 * x
        return (
            wgg1 * g1 * math.sin(a1) + wgg2 * g2 * math.sin(a2) + wgg3 * g3 * math.sin(a3),
            wgg1 * g1 * g1 * math.cos(a1) + wgg2 * g2 * g2 * math.cos(a2) + wgg3 * g3 * g3 * math.cos(a3),
        )

    refined: list[tuple[float, float]] = []
    for i in peaks.tolist():
        lo, hi = (i - 1) * h, (i + 1) * h
        x, n = _slope_root(slope, lo, hi)
        if x is None:
            x, v, m = _golden_max(lambda y: modulus_sq(y)[0], lo, hi)
        else:
            (v, bend), m = modulus_sq(x), 1
            # a quartic peak: the cubic slope loses its sign over ~eps^(1/3), but
            # d^3|T|^2/dx^3 goes + to - through the peak at a simple root
            if abs(bend) < QUARTIC_REL_TOL * curvature:
                x4, n4 = _slope_root(quartic_slope, lo, hi)
                n += n4
                if x4 is not None:
                    x, (v, _), m = x4, modulus_sq(x4), m + 1
        refined.append((x % period, math.sqrt(v)))
        evaluations += n + m

    best = max(v for _, v in refined)
    keep = sorted((x, v) for x, v in refined if v >= best * (1.0 - TIE_REL_TOL))
    radius = 1e-4 * period
    argmaxes: list[float] = []
    for x, _ in keep:
        if all(_circular_distance(x, y, period) > radius for y in argmaxes):
            argmaxes.append(x)
    return OracleReport(best, tuple(sorted(argmaxes)), grid_n, period, evaluations)


def _simplex_grid(n: int) -> np.ndarray:
    """Strictly positive moduli triples summing to 1, on an n-subdivision grid."""
    pts = [
        (i / n, j / n, (n - i - j) / n)
        for i in range(1, n - 1)
        for j in range(1, n - i)
    ]
    return np.asarray(pts)


def _grid_max(table: _PairTable, s0, w, phases) -> np.ndarray:
    """Grid maximum of |T|, unrefined, at one phase triple for each row of ``_cross_terms``' s0 and w."""
    t = np.asarray(phases)
    weights, rows = _grid_weights(w, t[_A] - t[_B]), max(1, 2**22 // table.grid.shape[1])  # 32 MiB of |T|^2 at a time
    top = [(weights[i:i + rows] @ table.grid).max(axis=1) for i in range(0, len(weights), rows)]
    return np.sqrt(np.concatenate(top) + s0)


# smallest modulus the constant searches keep on the unit simplex
_SIMPLEX_EPS = 1e-3
# the largest constant-search grid: 8 * D points at D = 2**13, where one search
# already takes up to half a minute on a 2-vCPU machine; its cost grows with the grid
MAX_SEARCH_GRID = 2**16


def _constant_search(
    frequencies, shift: tuple[float, float, float] | None, grid_phases: int, simplex_n: int, grid_n: int
) -> float:
    """Sup of one ratio over moduli r on the unit simplex and the middle phase u2.

    With top(r, phases) the maximum of |T| on the sorted spectrum, the ratio
    is top(r, base + shift) / top(r, base) at base = (0, u2, 0) for a
    multiplier's sorted phases ``shift``, and 1 / top(r, base) for the Sidon
    constant (``shift`` None; the moduli sum to 1).  It is maximised first on
    ``_simplex_grid`` times a full-turn grid of u2, with top ``_grid_max`` on
    every second point of the one pair table, then by four rounds of
    coordinate descent on (r1, r2, u2), a golden section per coordinate with
    halving spans, with top ``_grid_and_refine`` on the whole table.  A grid
    past MAX_SEARCH_GRID (D > 2**13) raises SpectrumError before any table.
    """
    geo = spectrum_geometry(frequencies)
    grid_phases = _count(grid_phases, 1, "phase grid must have at least 1 point, got {n}")
    simplex_n = _count(simplex_n, 3, "simplex grid must have at least 3 subdivisions, got {n}")

    def ratio(top, moduli, u2):
        base = top(moduli, (0.0, u2, 0.0))
        if shift is None:
            return 1.0 / base
        u1, v2, u3 = shift
        return top(moduli, (u1, u2 + v2, u3)) / base

    grid_n = _grid_size(grid_n, geo)
    if grid_n > MAX_SEARCH_GRID:
        raise SpectrumError(
            f"D = {geo.D} gives a constant-search grid of {grid_n} points, above MAX_SEARCH_GRID = "
            f"{MAX_SEARCH_GRID}, past which one search takes a minute or more"
        )
    phase_grid = np.linspace(0.0, TWO_PI, grid_phases, endpoint=False)
    simplex = _simplex_grid(simplex_n)
    fine = _pair_table(geo.lams, geo.d, grid_n)
    coarse = replace(fine, grid=np.ascontiguousarray(fine.grid[:, ::2]))
    # the simplex rows' moduli terms, once: each scan cell forms only its phase terms
    s0, w, _ = _cross_terms(simplex, np.zeros(3))
    scan = np.asarray([ratio(partial(_grid_max, coarse, s0), w, u2) for u2 in phase_grid])
    p_idx, m_idx = np.unravel_index(np.argmax(scan), scan.shape)
    r1, r2, _ = simplex[m_idx]
    point = [float(r1), float(r2), float(phase_grid[p_idx])]

    def refined_max(moduli, phases) -> float:
        return _grid_and_refine(fine, moduli, phases).value

    def objective(params: list[float]) -> float:
        a, b, u2 = params
        rest = 1.0 - a - b
        # keep r3 on the simplex along the descent path
        if rest <= _SIMPLEX_EPS:
            return 0.0
        return ratio(refined_max, (a, b, rest), u2)

    eps = _SIMPLEX_EPS
    bounds = [(eps, 1.0 - 2 * eps), (eps, 1.0 - 2 * eps), (-math.inf, math.inf)]
    spans = [2.0 / simplex_n, 2.0 / simplex_n, 2.0 * TWO_PI / grid_phases]
    best = objective(point)
    for _ in range(4):
        for axis in range(3):
            lo = max(bounds[axis][0], point[axis] - spans[axis])
            hi = min(bounds[axis][1], point[axis] + spans[axis])
            if hi <= lo:
                continue
            x, v, _ = _golden_max(lambda y: objective(point[:axis] + [y] + point[axis + 1:]), lo, hi, iters=48)
            if v > best:
                best = v
                point[axis] = x
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
    return _constant_search(frequencies, None, grid_phases, simplex_n, grid_n)


def brute_multiplier_norm(frequencies: tuple[int, int, int], multiplier: Multiplier) -> float:
    """Empirical multiplier norm: sup over the unit ball of max|MT| / max|T|,
    searched on 96 phases, a 20-subdivision simplex and a grid floor of 1024."""
    shift = spectrum_geometry(frequencies).sort(multiplier.phases)
    return _constant_search(frequencies, shift, 96, 20, 1024)


def random_trinomial(
    rng: np.random.Generator, modulus_range: tuple[float, float] = (1e-2, 1e2)
) -> Trinomial:
    """Random instance: distinct frequencies in [-12, 12], log-uniform moduli."""
    _check_moduli(modulus_range)
    while True:
        freqs = rng.integers(-12, 13, size=3)
        if len(set(freqs.tolist())) == 3:
            break
    lo, hi = math.log(modulus_range[0]), math.log(modulus_range[1])
    moduli = np.exp(rng.uniform(lo, hi, size=3))
    phases = rng.uniform(0.0, TWO_PI, size=3)
    return Trinomial(*(int(f) for f in freqs), *moduli, *phases)


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


@dataclass(frozen=True)
class VerificationRow:
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
    err = _circular_distance(x + y, res.s, TWO_PI / res.reduction[1].d)
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
    count = _count(count, 1, "count must be at least 1, got {n}")
    rng = np.random.default_rng(seed)

    # one Agreement per single-point instance, None where the point counts differ
    single: list[Agreement | None] = []
    while len(single) < count:
        tri = random_trinomial(rng)
        if derive_spectrum_stats(tri).tau >= math.pi - 1e-3:
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
