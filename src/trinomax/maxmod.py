"""Locating and classifying the maximum-modulus points of a trinomial.

The squared modulus of the reduced form r1*e^(-ikx) + r2*e^(it) + r3*e^(ilx)
is

    f(x) = r1^2 + r2^2 + r3^2
           + 2*(r1*r2*cos(t + kx) + r1*r3*cos((k+l)x) + r2*r3*cos(t - lx)),

and under the normalisation k*r1 <= l*r3 its derivative changes sign exactly
once on [0, t/l], from + to -.  That guaranteed bracket makes bracket-keeping
Newton (rtsafe) safe: it converges quadratically, and falls back to
bisection wherever a Newton step would leave the bracket.  One kernel,
_root_plus_to_minus, runs it for every solve and sweep row: it takes the
form's scalars and evaluates the slope and its derivative itself, from
three sines and three cosines a point (sin t and cos t alone at x = 0).
At t <= 1e-15 the maximum is the correctly rounded r1 + r2 + r3.  The absolute
maximum is attained once modulo 2*pi/d unless tau = pi, in which case the
modulus has an axis of symmetry and the maximum is attained either at a
symmetric pair of points or, on a knife-edge coefficient set, at one point
with multiplicity four.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .spectrum import (
    TWO_PI,
    ReducedForm,
    Reduction,
    SpectrumError,
    SpectrumGeometry,
    Trinomial,
    _check_moduli,
    _count,
    _trusted_form,
    canonical_reduction,
    modular_inverse,
)

__all__ = [
    "BracketFailure",
    "MaxClassification",
    "MaxResult",
    "evaluate",
    "half_derivative",
    "find_max_reduced",
    "max_at_zero",
    "max_points_global",
    "closed_form_k1_l1",
    "closed_form_k2_l1",
]

# |t*(k+l) - pi| at or below this counts as tau = pi
TAU_PI_TOL = 1e-9
# relative distance to the knife edge k^2*r1*r2 + (k+1)^2*r1*r3 = r2*r3 that
# counts as on it
DEGENERATE_REL_TOL = 1e-10
# relative |k*r1 - l*r3| at or below this counts as k*r1 = l*r3 (maximum at 0,
# hypocycloid outer curve); a nearer tie moves the maximum off 0 in proportion
AT_ZERO_REL_TOL = 1e-12
# largest ratio of two moduli the closed forms take: for a largest modulus
# anywhere in [1e-100, 1e100], every intermediate of both is a normal float
CLOSED_FORM_RATIO = 1e50
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


# the members every solve reads, bound once: each lookup through the enum class
# costs about 0.1 us, a module global a tenth of that
_INTERIOR_UNIQUE = MaxClassification.INTERIOR_UNIQUE
_AT_ZERO = MaxClassification.AT_ZERO
_AT_BOUNDARY = MaxClassification.AT_BOUNDARY
_SYMMETRIC_PAIR = MaxClassification.SYMMETRIC_PAIR
_DEGENERATE4 = MaxClassification.DEGENERATE4


class MaxResult(NamedTuple):
    """Maximum-modulus points of a trinomial, modulo its natural period.

    points holds one or two (x, value) pairs; two points occur only when
    tau = pi.  multiplicity follows from the classification: 4 on the
    degenerate coefficient set (Degenerate4), 2 otherwise.  s is the symmetry
    axis parameter, present exactly when tau = pi (then x + y = s for the
    symmetric pair).  reduction is the Reduction max_points_global solved
    through; find_max_reduced, which starts from a reduced form, leaves it
    None.
    """

    points: tuple[tuple[float, float], ...]
    classification: MaxClassification
    s: float | None
    reduction: Reduction | None = None

    @property
    def value(self) -> float:
        return max(v for _, v in self.points)

    @property
    def multiplicity(self) -> int:
        return 4 if self.classification is _DEGENERATE4 else 2


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
    """(1/2) * d^order/dx^order of the squared modulus of the reduced form, for
    an integer order >= 0; order 0 is |R(x)|^2 / 2.  The kernel and _modulus
    evaluate orders 0 to 2 inline and are tested against this reference.
    """
    order = _count(order, 0, "derivative order must be a nonnegative integer, got {n}")
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


def _derivative_scale(k: int, l: int, r1: float, r2: float, r3: float) -> float:
    return k * r1 * r2 + (k + l) * r1 * r3 + l * r2 * r3


def _root_plus_to_minus(k: int, l: int, r1: float, r2: float, r3: float, t: float, hi: float, scale: float) -> float:
    """Root in [0, hi] of the slope g = half_derivative(form, x, 1) of the form
    (k, l, r1, r2, r3, t), which changes sign once there, from + to -.

    g and g' (order 2) are evaluated inline, bit for bit, from one set of sines and
    cosines, which at x = 0 are sin t and cos t.  scale bounds the terms g sums and sets
    the endpoint guard (1e-10*scale) and the rounding noise (8 ulp of it).
    Bracket-keeping Newton (rtsafe, Numerical Recipes 9.4) from the endpoint with the
    shorter step: each evaluation narrows [lo, hi] by the sign of g, and a Newton step
    that leaves the bracket or exceeds half the step before last gives way to bisection.
    Ends at g >= 0 on hi, at a Newton step within 2 ulp of the bracket (tested first, so
    a step resolved on the bracket edge ends it), or at a refused step with g' < 0 and
    |g| within the noise, where bisecting would only follow the noise.
    """
    sin, cos, kl = math.sin, math.cos, k + l
    a, b, c = r1 * r2, r1 * r3, r2 * r3
    # the integer factors as floats: int * float converts the int the same way, only slower
    kk, kkl, ll = float(k * k), float(kl * kl), float(l * l)
    k, l, kl = float(k), float(l), float(kl)
    # x = 0: u = w = t and v = 0, whose terms keep their products, so an infinite b still gives nan
    lo, su, cu = 0.0, sin(t), cos(t)
    glo = -(a * (k * su) + b * (kl * 0.0) - c * (l * su))
    dlo = -(a * (kk * cu) + b * (kkl * 1.0) + c * (ll * cu))
    u, v, w = t + k * hi, kl * hi, t - l * hi
    ghi = -(a * (k * sin(u)) + b * (kl * sin(v)) - c * (l * sin(w)))
    dhi = -(a * (kk * cos(u)) + b * (kkl * cos(v)) + c * (ll * cos(w)))
    if glo < -1e-10 * scale or ghi > 1e-10 * scale:
        raise BracketFailure(
            f"endpoint derivative signs violate the bracket: f({lo})={glo}, f({hi})={ghi}"
        )
    if ghi >= 0.0:
        return hi
    tol = 2.0 * math.ulp(hi)
    x, g, dg = (lo, glo, dlo) if abs(glo * dhi) <= abs(ghi * dlo) else (hi, ghi, dhi)
    step = hi
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
        u, v, w = t + k * x, kl * x, t - l * x
        g = -(a * (k * sin(u)) + b * (kl * sin(v)) - c * (l * sin(w)))
        dg = -(a * (kk * cos(u)) + b * (kkl * cos(v)) + c * (ll * cos(w)))
        if g > 0.0:
            lo = x
        else:
            hi = x
    return x


def max_at_zero(k: int, r1: float, l: int, r3: float) -> bool:
    """Whether k*r1 = l*r3 to AT_ZERO_REL_TOL: the maximum of the reduced form
    sits at 0, and the outer-coefficient curve is a hypocycloid."""
    return abs(k * r1 - l * r3) <= AT_ZERO_REL_TOL * max(k * r1, l * r3)


def _modulus(k: int, l: int, r1: float, r2: float, r3: float, t: float, x: float) -> float:
    """|R(x)| = sqrt(2 * half_derivative(form, x, 0)), bit for bit, of the form (k, l, r1, r2, r3, t)."""
    half = r1 * r2 * math.cos(t + k * x) + r1 * r3 * math.cos((k + l) * x) + r2 * r3 * math.cos(t - l * x)
    return math.sqrt(2.0 * (half + 0.5 * (r1 * r1 + r2 * r2 + r3 * r3)))


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
    holds.  Values come from _modulus: sqrt(2 * half_derivative(form, x, 0)), bit for bit,
    except at t <= 1e-15, where the value is math.fsum((r1, r2, r3)): the
    expansion's sum can round 1 ulp above that triangle-inequality bound.
    """
    k, l, r1, r2, r3, t = form.k, form.l, form.r1, form.r2, form.r3, form.t
    big_d = k + l
    symmetric = abs(t * big_d - math.pi) <= TAU_PI_TOL
    at_zero = max_at_zero(k, r1, l, r3)

    if at_zero or t <= 1e-15:
        x_star = 0.0
    else:
        hi = t / l
        if symmetric and l == 1:
            edge, edge_scale = _knife_edge(form)
            knife = abs(edge) <= DEGENERATE_REL_TOL * edge_scale
            if knife or edge < 0.0:
                return MaxResult(((t % TWO_PI, r2 + r3 - r1),), _DEGENERATE4 if knife else _AT_BOUNDARY, 2.0 * t)
            # the derivative vanishes identically at t, so the bracket stops
            # short of it; a maximum closer to t than that is taken as t - 1e-7 * t
            hi = t - 1e-7 * t
        x_star = _root_plus_to_minus(k, l, r1, r2, r3, t, hi, _derivative_scale(k, l, r1, r2, r3))
    # at t <= 1e-15 the maximum is r1 + r2 + r3 to 1e-30 relative: return their correctly rounded sum
    value = math.fsum((r1, r2, r3)) if t <= 1e-15 else _modulus(k, l, r1, r2, r3, t, x_star)
    if symmetric:
        axis = TWO_PI * modular_inverse(l, big_d) / big_d
        partner = (axis - x_star) % TWO_PI
        value2 = _modulus(k, l, r1, r2, r3, t, partner)
        if abs(value2 - value) > 1e-8 * value:
            raise BracketFailure(
                f"symmetric pair values diverge: {value} vs {value2} at tau within {TAU_PI_TOL} of pi"
            )
        points = tuple(sorted(((x_star % TWO_PI, value), (partner, value2))))
        return MaxResult(points, _SYMMETRIC_PAIR, axis)
    cls = _AT_ZERO if at_zero else _INTERIOR_UNIQUE
    # tuple.__new__ skips the Python-level __new__ that a NamedTuple call runs (see spectrum._geometry)
    return tuple.__new__(MaxResult, (((x_star % TWO_PI, value),), cls, None, None))


def _max_values(form: ReducedForm, phases: list[float]) -> list[float]:
    """find_max_reduced(replace(form, t=t)).value for each float t in [0, pi/(k+l)]
    of phases, bit for bit; a row with a unique interior maximum (not max_at_zero,
    t > 1e-15, tau further than TAU_PI_TOL from pi) runs the kernel and _modulus
    directly, and the others solve a form built unchecked from the form's scalars."""
    k, l, r1, r2, r3 = form.k, form.l, form.r1, form.r2, form.r3
    big_d = k + l
    at_zero = max_at_zero(k, r1, l, r3)
    scale = _derivative_scale(k, l, r1, r2, r3)
    values = []
    for t in phases:
        if at_zero or t <= 1e-15 or abs(t * big_d - math.pi) <= TAU_PI_TOL:
            values.append(find_max_reduced(_trusted_form(k, l, r1, r2, r3, t)[0]).value)
            continue
        x = _root_plus_to_minus(k, l, r1, r2, r3, t, t / l, scale)
        values.append(_modulus(k, l, r1, r2, r3, t, x))
    return values


def _localization_endpoints(
    geo: SpectrumGeometry, phases: tuple[float, float, float], turns: tuple[int, int]
) -> tuple[float, float, float]:
    """Maximum points of the three binomials left by dropping one coefficient.

    Returns the points e1 (first coefficient kept with the middle one), e2
    (middle with last) and e3 (first with last), computed from the sorted
    phases alone after shifting t1, t3 by the reduction's whole turns (U, W),
    so that the phase combination lands in (-pi, pi] and the endpoints stay
    within a few turns of the origin.
    """
    l1, l2, l3 = geo.lams
    t1, t2, t3 = phases
    u, w = turns
    t1a = t1 - TWO_PI * u
    t3a = t3 - TWO_PI * w
    e1 = (t1a - t2) / (l2 - l1)
    e2 = (t2 - t3a) / (l3 - l2)
    e3 = (t1a - t3a) / (l3 - l1)
    return e1, e2, e3


def max_points_global(trinomial: Trinomial) -> MaxResult:
    """Maximum-modulus points of a general trinomial, modulo 2*pi/d.

    Runs the canonical reduction, locates the maximum of the reduced form and
    maps each point y back to reduction.from_reduced(y) mod the period, a
    symmetric pair in ascending order.  When tau = pi the symmetry axis s
    (with x + y = s for the pair) is reported as well.  The result keeps the
    reduction it solved through.  In the same pass, some point must lie, mod
    the period and to LOCALIZATION_TOL, in the phase-only localization
    interval of the branch the solve took, or BracketFailure is raised: e3 at
    k*r1 = l*r3; for a unique interior point, e3 and e2, or e1 when the
    reduction swapped (k*r1 > l*r3); at tau = pi, e1 and e2 (see
    _localization_endpoints).  The points are stationary to
    spectrum.STATIONARY_REL_TOL relative (the reduction refuses spectra past
    float resolution for that).  No input is checked again (Trinomial did).
    """
    reduction = canonical_reduction(trinomial)
    form, geo, _, turns, _, v, epsilon, swapped, phases = reduction
    found, cls, s, _ = find_max_reduced(form)
    period, scale = TWO_PI / geo.d, epsilon * geo.d
    y, value = found[0]
    points = (((v + y / scale) % period, value),)
    if len(found) == 2:
        y, value = found[1]
        points = tuple(sorted(points + (((v + y / scale) % period, value),)))
    e1, e2, e3 = _localization_endpoints(geo, phases, turns)
    if s is not None:  # the axis is present exactly when tau = pi
        s = (2.0 * v + s / scale) % period
        a, b = e1, e2
    elif cls is _AT_ZERO:
        a = b = e3
    else:
        a, b = e3, e1 if swapped else e2
    lo, hi = (a, b) if a <= b else (b, a)
    mid = 0.5 * (lo + hi)
    for x, _ in points:
        if lo - LOCALIZATION_TOL <= x - period * round((x - mid) / period) <= hi + LOCALIZATION_TOL:
            return tuple.__new__(MaxResult, (points, cls, s, reduction))
    raise BracketFailure(
        f"maximum points {points} escape the localization interval [{lo}, {hi}] mod {period}"
    )


def _check_closed_form_moduli(r1: float, r2: float, r3: float) -> None:
    moduli = _check_moduli((r1, r2, r3))
    if max(moduli) > CLOSED_FORM_RATIO * min(moduli):
        raise SpectrumError(
            f"the closed forms take moduli within a ratio of {CLOSED_FORM_RATIO:g}, got {moduli}"
        )


def closed_form_k1_l1(r1: float, r2: float, r3: float) -> tuple[float, tuple[float, ...]]:
    """Maximum of |r1*e^(-ix) + i*r2 + r3*e^(ix)| in closed form (k = l = 1, t = pi/2).

    Equals (r1+r3)*sqrt(1 + r2^2/(4*r1*r3)) attained where
    sin(x) = r2*(r3-r1)/(4*r1*r3) when |1/r1 - 1/r3| < 4/r2, and
    r2 + |r3 - r1| attained at a single point otherwise.  The moduli must lie
    within a ratio of CLOSED_FORM_RATIO of each other (SpectrumError).
    """
    _check_closed_form_moduli(r1, r2, r3)
    if abs(1.0 / r1 - 1.0 / r3) < 4.0 / r2:
        value = (r1 + r3) * math.sqrt(1.0 + r2 * r2 / (4.0 * r1 * r3))
        # |s| < 1 in exact arithmetic, but rounds to 1 + ulp on the case boundary
        s = max(-1.0, min(1.0, r2 * (r3 - r1) / (4.0 * r1 * r3)))
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

    otherwise the maximum is -r1 + r2 + r3.  With u = a^2, c = b + 1 the bracket is
    computed as c*(3*u^2 + 3*u*c + c^2) / ((u + c)^(3/2) + a^3), which cannot cancel.
    The moduli must lie within a ratio of CLOSED_FORM_RATIO of each other (SpectrumError).
    """
    _check_closed_form_moduli(r1, r2, r3)
    if 1.0 / r1 - 4.0 / r3 < 9.0 / r2:
        a = r2 / (3.0 * r3)
        u, c = a * a, r2 / (3.0 * r1) + 1.0
        bracket = c * (3.0 * u * u + 3.0 * u * c + c * c) / ((u + c) ** 1.5 + a**3)
        squared = r1 * r1 + (2.0 / 3.0) * r2 * r2 + r3 * r3 + r1 * r2 + 2.0 * r1 * r3 * bracket
        return math.sqrt(squared)
    return -r1 + r2 + r3
