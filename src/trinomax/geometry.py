"""Hypotrochoid geometry of the maximum-modulus problem.

Dropping the middle coefficient of a trinomial leaves the closed curve

    z(x) = r1*e^(i(t1 - (l2-l1)*x)) + r3*e^(i(t3 + (l3-l2)*x)),

a hypotrochoid; the maximum modulus of the full trinomial is the largest
distance from a point of this curve to -r2*e^(i*t2).  When
r1 : r3 = |l3-l2| : |l2-l1| the tracing point sits on the rolling circle and
the curve degenerates to a hypocycloid with |l3-l1|/d cusps.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .maxmod import max_at_zero, max_points_global
from .spectrum import SpectrumGeometry, Trinomial, _count, spectrum_geometry

__all__ = ["Curve", "hypotrochoid_sample", "farthest_points"]


class Curve(NamedTuple):
    """Parameter-ordered samples over x in (-pi, pi], d periods of the curve (not arc length)."""

    samples: tuple[tuple[float, complex], ...]
    closed: bool
    cusp_count: int | None


def _outer_curve(trinomial: Trinomial, geo: SpectrumGeometry):
    """The outer-coefficient curve, on spectrum geometry geo, as a function of its parameter x."""
    r1, _, r3 = geo.sort(trinomial.moduli)
    t1, _, t3 = geo.sort(trinomial.phases)
    gap1, gap3 = geo.lams[1] - geo.lams[0], geo.lams[2] - geo.lams[1]
    return lambda x: r1 * np.exp(1j * (t1 - gap1 * x)) + r3 * np.exp(1j * (t3 + gap3 * x))


def hypotrochoid_sample(trinomial: Trinomial, n: int) -> Curve:
    """n uniform samples of the curve over the parameter period (-pi, pi].

    cusp_count is |l3-l1|/d in the hypocycloid case and None otherwise; the
    case is decided by maxmod.max_at_zero, the rule that puts the maximum at 0.
    """
    n = _count(n, 16, "need at least 16 samples, got {n}")
    geo = spectrum_geometry(trinomial.frequencies)
    r1, _, r3 = geo.sort(trinomial.moduli)
    cusps = geo.D if max_at_zero(geo.k, r1, geo.l, r3) else None
    xs = -math.pi + 2.0 * math.pi * np.arange(1, n + 1) / n
    xs[-1] = math.pi  # the rounded formula can land an ulp past pi
    samples = tuple(zip(xs.tolist(), _outer_curve(trinomial, geo)(xs).tolist()))
    return Curve(samples=samples, closed=True, cusp_count=cusps)


def farthest_points(trinomial: Trinomial) -> list[tuple[float, float]]:
    """Curve parameters and distances of the points farthest from -r2*e^(i*t2).

    This is exactly the maximum-modulus problem for the trinomial itself,
    so the parameters are its maximum points; one or two are returned.
    """
    res = max_points_global(trinomial)
    geo = res.reduction.geometry
    curve = _outer_curve(trinomial, geo)
    center = -geo.sort(trinomial.moduli)[1] * cmath.exp(1j * geo.sort(trinomial.phases)[1])
    return [(x, abs(complex(curve(x)) - center)) for x, _ in res.points]
