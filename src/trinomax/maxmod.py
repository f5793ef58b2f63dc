"""Locating and classifying the maximum-modulus points of a trinomial.

The squared modulus of the reduced form r1*e^(-ikx) + r2*e^(it) + r3*e^(ilx)
is

    f(x) = r1^2 + r2^2 + r3^2
           + 2*(r1*r2*cos(t + kx) + r1*r3*cos((k+l)x) + r2*r3*cos(t - lx)),

and under the normalisation k*r1 <= l*r3 its derivative changes sign exactly
once on [0, t/l], from + to -.  That guaranteed bracket makes bracket-keeping
Newton (rtsafe) safe: it converges quadratically, and falls back to
bisection wherever a Newton step would leave the bracket.  The absolute
maximum is attained once modulo 2*pi/d unless tau = pi, in which case the
modulus has an axis of symmetry and the maximum is attained either at a
symmetric pair of points or, on a knife-edge coefficient set, at one point
with multiplicity four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectrum import (
    TWO_PI,
    ReducedForm,
    SpectrumStats,
    Transcript,
    Trinomial,
    _check_moduli,
    _turn_shifts,
    canonical_reduction,
    modular_inverse,
    spectrum_geometry,
)

__all__ = [
    "BracketFailure",
    "MaxClassification",
    "MaxResult",
    "evaluate",
    "half_derivative",
    "locate_interval",
    "localization_interval",
    "find_max_reduced",
    "max_at_zero",
    "max_points_global",
    "closed_form_k1_l1",
    "closed_form_k2_l1",
    "binomial_max",
]

# |t*(k+l) - pi| at or below this counts as tau = pi
TAU_PI_TOL = 1e-9
# relative distance to the knife edge k^2*r1*r2 + (k+1)^2*r1*r3 = r2*r3 that
# counts as on it
DEGENERATE_REL_TOL = 1e-10
# relative |k*r1 - l*r3| at or below this counts as k*r1 = l*r3 (maximum at 0,
# hypocycloid outer curve); a nearer tie moves the maximum off 0 in proportion
AT_ZERO_REL_TOL = 1e-12
# slack on the localization interval: a maximum point further outside it
# than this is a BracketFailure, not rounding of the endpoints
LOCALIZATION_TOL = 1e-7


class BracketFailure(RuntimeError):
    """Derivative signs at the bracket endpoints contradict the guarantee."""


class MaxClassification(str, Enum):
    INTERIOR_UNIQUE = "InteriorUnique"
    AT_ZERO = "AtZero_kr1_eq_lr3"
    AT_BOUNDARY = "AtBoundary_tOverL"
    SYMMETRIC_PAIR = "SymmetricPair"
    DEGENERATE4 = "Degenerate4"


@dataclass(frozen=True)
class MaxResult:
    """Maximum-modulus points of a trinomial, modulo its natural period.

    points holds one or two (x, value) pairs; two points occur only when
    tau = pi.  multiplicity is 2 except on the degenerate coefficient set
    where the maximum is attained with multiplicity 4.  s is the symmetry
    axis parameter, present exactly when tau = pi (then x + y = s for the
    symmetric pair).  reduction is the (form, stats, transcript) of the
    canonical reduction max_points_global solved through; find_max_reduced,
    which starts from a reduced form, leaves it None.
    """

    points: tuple[tuple[float, float], ...]
    multiplicity: int
    classification: MaxClassification
    s: float | None
    reduction: tuple[ReducedForm, SpectrumStats, Transcript] | None = None

    @property
    def value(self) -> float:
        return max(v for _, v in self.points)


def evaluate(trinomial: Trinomial, x):
    """Value of the trinomial at x (complex for scalar x, an array for array x)."""
    f = trinomial.frequencies
    r = trinomial.moduli
    t = trinomial.phases
    return sum(r[j] * np.exp(1j * (t[j] + f[j] * x)) for j in range(3))


def _cos_deriv(arg: float, rate: float, order: int) -> float:
    # d^n/dx^n cos(c + rate*x) = rate^n * cos(arg + n*pi/2), kept exact by branching
    phase = order % 4
    if phase == 0:
        c = math.cos(arg)
    elif phase == 1:
        c = -math.sin(arg)
    elif phase == 2:
        c = -math.cos(arg)
    else:
        c = math.sin(arg)
    return rate**order * c


def half_derivative(form: ReducedForm, x: float, order: int = 1) -> float:
    """(1/2) * d^order/dx^order of the squared modulus of the reduced form.

    The one evaluator of the expansion above: order 0 is |R(x)|^2 / 2.
    """
    k, l = form.k, form.l
    r1, r2, r3, t = form.r1, form.r2, form.r3, form.t
    out = (
        r1 * r2 * _cos_deriv(t + k * x, k, order)
        + r1 * r3 * _cos_deriv((k + l) * x, k + l, order)
        + r2 * r3 * _cos_deriv(t - l * x, -l, order)
    )
    if order == 0:
        out += 0.5 * (r1 * r1 + r2 * r2 + r3 * r3)
    return out


def locate_interval(form: ReducedForm) -> tuple[float, float]:
    """[-t/k, t/l]: contains an absolute maximum point for any moduli.

    Under the normalisation k*r1 <= l*r3 the maximum point lies in [0, t/l].
    """
    return (-form.t / form.k, form.t / form.l)


def _derivative_scale(form: ReducedForm) -> float:
    k, l = form.k, form.l
    return k * form.r1 * form.r2 + (k + l) * form.r1 * form.r3 + l * form.r2 * form.r3


def _slope_and_curvature(form: ReducedForm, x: float) -> tuple[float, float]:
    """half_derivative orders 1 and 2, bit for bit, from one set of sines and cosines."""
    k, kl, l = form.k, form.k + form.l, form.l
    a, b, c = form.r1 * form.r2, form.r1 * form.r3, form.r2 * form.r3
    u, v, w = form.t + k * x, kl * x, form.t - l * x
    su, sv, sw = math.sin(u), math.sin(v), math.sin(w)
    cu, cv, cw = math.cos(u), math.cos(v), math.cos(w)
    return (
        -(a * (k * su) + b * (kl * sv) - c * (l * sw)),
        -(a * (k * k * cu) + b * (kl * kl * cv) + c * (l * l * cw)),
    )


def _root_plus_to_minus(fun, lo: float, hi: float, scale: float) -> float:
    """Root in [lo, hi] of a g that changes sign once there, from + to -.

    fun(x) returns (g, g'); scale bounds the terms g sums and sets the
    endpoint guard (1e-10*scale) and the rounding noise (8 ulp of it).
    Bracket-keeping Newton (rtsafe, Numerical Recipes 9.4) from the endpoint
    with the shorter step: each evaluation narrows [lo, hi] by the sign of
    g, and a Newton step that leaves the bracket or exceeds half the step
    before last gives way to bisection.  Ends at g >= 0 on hi, at a Newton
    step within 2 ulp of the bracket (tested first, so a step resolved on
    the bracket edge ends it), or at a refused step with g' < 0 and |g|
    within the noise, where bisecting would only follow the noise.
    """
    glo, dlo = fun(lo)
    ghi, dhi = fun(hi)
    if glo < -1e-10 * scale or ghi > 1e-10 * scale:
        raise BracketFailure(
            f"endpoint derivative signs violate the bracket: f({lo})={glo}, f({hi})={ghi}"
        )
    if ghi >= 0.0:
        return hi
    tol = 2.0 * math.ulp(max(abs(lo), abs(hi)))
    x, g, dg = (lo, glo, dlo) if abs(glo * dhi) <= abs(ghi * dlo) else (hi, ghi, dhi)
    step = hi - lo
    for _ in range(200):
        newton = g / dg if dg else math.inf
        if abs(newton) <= tol:
            return x - newton
        older, step = step, newton
        if lo < x - newton < hi and abs(newton) <= 0.5 * abs(older):
            x -= newton
        elif dg < 0.0 and abs(g) <= 8.0 * math.ulp(scale):
            return x
        else:
            step = 0.5 * (hi - lo)
            x = lo + step
            if x == lo or x == hi:
                break
        g, dg = fun(x)
        if g > 0.0:
            lo = x
        else:
            hi = x
    return x


def max_at_zero(k: int, r1: float, l: int, r3: float) -> bool:
    """Whether k*r1 = l*r3 to AT_ZERO_REL_TOL: the maximum of the reduced form
    sits at 0, and the outer-coefficient curve is a hypocycloid."""
    return abs(k * r1 - l * r3) <= AT_ZERO_REL_TOL * max(k * r1, l * r3)


def _knife_edge(form: ReducedForm) -> tuple[float, float]:
    """The knife-edge margin k^2*r1*r2 + (k+1)^2*r1*r3 - r2*r3 of an l = 1
    form at tau = pi, and its scale, the same sum with + r2*r3."""
    k, r1, r2, r3 = form.k, form.r1, form.r2, form.r3
    outer = k * k * r1 * r2 + (k + 1) ** 2 * r1 * r3
    return outer - r2 * r3, outer + r2 * r3


def find_max_reduced(form: ReducedForm) -> MaxResult:
    """Maximum-modulus points of a reduced-form trinomial, modulo 2*pi.

    Bracket-keeping Newton runs on the first and second half_derivative over
    [0, t/l], where the sign change from + to - is guaranteed.  tau = pi
    (detected as |t*(k+l) - pi| <= TAU_PI_TOL) switches on the symmetric
    branches: a pair {x, s - x} with s = 2*m*pi/(k+l), or for l = 1 the
    boundary point t with the maximum value r2 + r3 - r1, with multiplicity
    4 on the knife edge k^2*r1*r2 + (k+1)^2*r1*r3 = r2*r3 (relative
    tolerance DEGENERATE_REL_TOL).  The maximum sits at 0 when max_at_zero
    holds.
    """
    k, l = form.k, form.l
    r1, r2, r3, t = form.r1, form.r2, form.r3, form.t
    big_d = k + l
    symmetric = abs(t * big_d - math.pi) <= TAU_PI_TOL
    at_zero = max_at_zero(k, r1, l, r3)

    if at_zero or t <= 1e-15:
        x_star = 0.0
    else:
        hi = t / l
        if symmetric and l == 1:
            edge, edge_scale = _knife_edge(form)
            if abs(edge) <= DEGENERATE_REL_TOL * edge_scale:
                return MaxResult(
                    ((t % TWO_PI, r2 + r3 - r1),), 4, MaxClassification.DEGENERATE4, 2.0 * t
                )
            if edge < 0.0:
                return MaxResult(
                    ((t % TWO_PI, r2 + r3 - r1),), 2, MaxClassification.AT_BOUNDARY, 2.0 * t
                )
            # the derivative vanishes identically at t, so the bracket stops
            # short of it; a maximum closer to t than that is taken as t - 1e-7 * t
            hi = t - 1e-7 * t
        x_star = _root_plus_to_minus(
            lambda x: _slope_and_curvature(form, x), 0.0, hi, _derivative_scale(form)
        )
    value = math.sqrt(2.0 * half_derivative(form, x_star, 0))
    if symmetric:
        axis = TWO_PI * modular_inverse(l, big_d) / big_d
        partner = (axis - x_star) % TWO_PI
        value2 = math.sqrt(2.0 * half_derivative(form, partner, 0))
        if abs(value2 - value) > 1e-8 * value:
            raise BracketFailure(
                f"symmetric pair values diverge: {value} vs {value2} at tau within {TAU_PI_TOL} of pi"
            )
        points = tuple(sorted(((x_star % TWO_PI, value), (partner, value2))))
        return MaxResult(points, 2, MaxClassification.SYMMETRIC_PAIR, axis)
    cls = MaxClassification.AT_ZERO if at_zero else MaxClassification.INTERIOR_UNIQUE
    return MaxResult(((x_star % TWO_PI, value),), 2, cls, None)


def _localization_endpoints(trinomial: Trinomial) -> tuple[float, float, float]:
    """Maximum points of the three binomials left by dropping one coefficient.

    Returns the points e1 (first coefficient kept with the middle one), e2
    (middle with last) and e3 (first with last), computed from the phases
    alone after shifting t1, t3 by the whole turns of _turn_shifts, so that
    the phase combination lands in (-pi, pi] and the endpoints stay within a
    few turns of the origin.
    """
    geo = spectrum_geometry(trinomial.frequencies)
    l1, l2, l3 = geo.lams
    t1, t2, t3 = geo.sort(trinomial.phases)
    u, w = _turn_shifts(geo, (t1, t2, t3))
    t1a = t1 - TWO_PI * u
    t3a = t3 - TWO_PI * w
    e1 = (t1a - t2) / (l2 - l1)
    e2 = (t2 - t3a) / (l3 - l2)
    e3 = (t1a - t3a) / (l3 - l1)
    return e1, e2, e3


def localization_interval(trinomial: Trinomial) -> tuple[float, float]:
    """Interval containing a maximum-modulus point, independent of the moduli.

    The endpoints are the maximum points of the two binomials obtained by
    dropping an outer coefficient, computed from the phases alone.
    """
    e1, e2, _ = _localization_endpoints(trinomial)
    return (min(e1, e2), max(e1, e2))


def _check_localization(
    trinomial: Trinomial, classification: MaxClassification, swapped: bool,
    points: tuple[float, ...], period: float,
) -> None:
    """Raise BracketFailure unless a point lies, mod period, in the phase-only
    interval of the branch the solve took: e3 at k*r1 = l*r3; for a unique
    interior point, e3 and e2, or e1 when the reduction swapped (k*r1 >
    l*r3); at tau = pi, e1 and e2."""
    e1, e2, e3 = _localization_endpoints(trinomial)
    if classification is MaxClassification.AT_ZERO:
        ends = (e3, e3)
    elif classification is MaxClassification.INTERIOR_UNIQUE:
        ends = (e3, e1 if swapped else e2)
    else:
        ends = (e1, e2)
    lo, hi = min(ends), max(ends)
    mid = 0.5 * (lo + hi)
    for x in points:
        folded = x - period * round((x - mid) / period)
        if lo - LOCALIZATION_TOL <= folded <= hi + LOCALIZATION_TOL:
            return
    raise BracketFailure(
        f"maximum points {points} escape the localization interval [{lo}, {hi}] mod {period}"
    )


def max_points_global(trinomial: Trinomial) -> MaxResult:
    """Maximum-modulus points of a general trinomial, modulo 2*pi/d.

    Runs the canonical reduction, locates the maximum of the reduced form and
    maps the points back through the transcript.  When tau = pi the symmetry
    axis s (with x + y = s for the pair) is reported as well.  The points are
    checked against the phase-only localization interval of the branch the
    solve took, and the result keeps the reduction it solved through.  The
    points are stationary to spectrum.STATIONARY_REL_TOL relative; spectra
    past float resolution for that (2*(l3 - l1)*ulp(2*pi/d) above it, a
    diameter l3 - l1 beyond about 5.6e6 for d = 1) raise SpectrumError from
    the reduction.
    """
    form, stats, transcript = canonical_reduction(trinomial)
    res = find_max_reduced(form)
    period = TWO_PI / stats.d
    points = tuple(
        sorted((transcript.from_reduced(x) % period, v) for x, v in res.points)
    )
    axis = None
    if res.s is not None:
        axis = (
            2.0 * transcript.v + res.s / (transcript.epsilon * transcript.homothety)
        ) % period
    _check_localization(
        trinomial, res.classification, transcript.swapped, tuple(x for x, _ in points), period
    )
    return MaxResult(points, res.multiplicity, res.classification, axis, (form, stats, transcript))


def closed_form_k1_l1(r1: float, r2: float, r3: float) -> tuple[float, tuple[float, ...]]:
    """Maximum of |r1*e^(-ix) + i*r2 + r3*e^(ix)| in closed form (k = l = 1, t = pi/2).

    Equals (r1+r3)*sqrt(1 + r2^2/(4*r1*r3)) attained where
    sin(x) = r2*(r3-r1)/(4*r1*r3) when |1/r1 - 1/r3| < 4/r2, and
    r2 + |r3 - r1| attained at a single point otherwise.
    """
    _check_moduli((r1, r2, r3))
    if abs(1.0 / r1 - 1.0 / r3) < 4.0 / r2:
        value = (r1 + r3) * math.sqrt(1.0 + r2 * r2 / (4.0 * r1 * r3))
        s = r2 * (r3 - r1) / (4.0 * r1 * r3)
        x0 = math.asin(s)
        points = tuple(sorted({x0 % TWO_PI, (math.pi - x0) % TWO_PI}))
        return value, points
    point = math.pi / 2.0 if r1 < r3 else -math.pi / 2.0
    return r2 + abs(r3 - r1), ((point % TWO_PI),)


def closed_form_k2_l1(r1: float, r2: float, r3: float) -> float:
    """Maximum of |r1*e^(-2ix) + r2*e^(i*pi/3) + r3*e^(ix)| in closed form.

    When 1/r1 - 4/r3 < 9/r2 the squared maximum is

        r1^2 + (2/3)*r2^2 + r3^2 + r1*r2
        + 2*r1*r3*[ (a^2 + b + 1)^(3/2) - a^3 ],   a = r2/(3*r3), b = r2/(3*r1);

    otherwise the maximum is -r1 + r2 + r3.
    """
    _check_moduli((r1, r2, r3))
    if 1.0 / r1 - 4.0 / r3 < 9.0 / r2:
        a = r2 / (3.0 * r3)
        b = r2 / (3.0 * r1)
        squared = (
            r1 * r1
            + (2.0 / 3.0) * r2 * r2
            + r3 * r3
            + r1 * r2
            + 2.0 * r1 * r3 * ((a * a + b + 1.0) ** 1.5 - a**3)
        )
        return math.sqrt(squared)
    return -r1 + r2 + r3


def binomial_max(r1: float, r2: float) -> float:
    """Maximum modulus of a trigonometric binomial: always r1 + r2.

    Degenerate entry point for spectra where one trinomial coefficient
    vanishes; the maximum does not depend on frequencies or phases.
    """
    _check_moduli((r1, r2))
    return r1 + r2
