"""Dependence of the maximum modulus on the phase invariant.

For fixed moduli the maximum modulus of the reduced family
r1*e^(-ikx) + r2*e^(it) + r3*e^(ilx) is an even, 2*pi/(k+l)-periodic
function of t that strictly decreases on [0, pi/(k+l)].  This module
computes that curve, its directional derivative through the max-function
expansion (the derivative of a parametric maximum is the extreme of the
partial derivatives over the argmax set), and a sweep over tau whose rows
carry both sides of the paper's two cosine bounds on the decrease.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .maxmod import _max_values, find_max_reduced
from .spectrum import (
    TWO_PI,
    SpectrumError,
    _check_phases,
    _count,
    _trusted_form,
    make_reduced_form,
)

__all__ = [
    "SweepRow",
    "fstar",
    "chebotarev_derivative",
    "sweep_rows",
]


class SweepRow(NamedTuple):
    """One row of a phase sweep: invariant tau, reduced phase t = tau/(k+l),
    maximum modulus, its quotient by |r1 + r2*e^(it) + r3|, and the cosine
    reference cos(tau/(2D)).  ratio and bound carry the paper's inequalities:
    ratio is 1 throughout when k*r1 = l*r3 and strictly increasing otherwise,
    and fstar/(r1+r2+r3) >= bound, with equality at tau = 0 and at moduli
    (l, k+l, k), so fstar_i >= bound_i/bound_j * fstar_j for rows i > j."""

    tau: float
    t: float
    fstar: float
    ratio: float
    bound: float


def _fold_phase(t: float, big_d: int) -> float:
    # evenness + 2*pi/(k+l) periodicity fold a finite float t into [0, pi/(k+l)]
    period = TWO_PI / big_d
    tm = t % period
    if tm > period / 2.0:
        tm = period - tm
    return min(tm, math.pi / big_d)


def fstar(k: int, l: int, r1: float, r2: float, r3: float, t: float) -> float:
    """Maximum modulus of the reduced family at phase t.

    t is any real number, read by the phases rule (past a full turn it is
    reduced exactly, as a Trinomial phase is) and folded into [0, pi/(k+l)]
    by evenness and periodicity; the value comes from the sweep's path.
    """
    form, _ = make_reduced_form(k, l, r1, r2, r3, 0.0)
    (t,) = _check_phases((t,), "t")
    return _max_values(form, [_fold_phase(t, k + l)])[0]


def chebotarev_derivative(
    k: int, l: int, r1: float, r2: float, r3: float, t: float, side: str = "+"
) -> float:
    """d/dt of the squared maximum modulus via the max-function expansion.

    Evaluates -2*r2*(r1*sin(t + k*x) + r3*sin(t - l*x)) at the maximum
    points and returns the extreme over the argmax set: the max for
    side "+" (right derivative), the min for side "-" (left derivative).
    The two sides agree at interior t, where the maximum point is unique;
    at the endpoint t = pi/(k+l) the curve has a symmetric corner and only
    the one-sided values are defined.

    The value refers to the squared modulus; divide by 2*fstar for the
    slope of the modulus itself.
    """
    if side not in ("+", "-"):
        raise SpectrumError(f"side must be '+' or '-', got {side!r}")
    form, _ = make_reduced_form(k, l, r1, r2, r3, t)
    if not form.t > 0.0:
        raise SpectrumError(f"t must lie in (0, pi/(k+l)], got {form.t}")
    k, l, r1, r2, r3 = form.k, form.l, form.r1, form.r2, form.r3
    # the rule lets t pass pi/(k+l) by REDUCED_T_SLACK: solve at the edge itself
    t = min(form.t, math.pi / (k + l))
    res = find_max_reduced(_trusted_form(k, l, r1, r2, r3, t)[0])
    slopes = [-2.0 * r2 * (r1 * math.sin(t + k * x) + r3 * math.sin(t - l * x)) for x, _ in res.points]
    return max(slopes) if side == "+" else min(slopes)


def sweep_rows(
    k: int, l: int, r1: float, r2: float, r3: float, n: int = 64
) -> list[SweepRow]:
    """Sweep tau over n uniform values in [0, pi]: row i at tau = pi*i/(n-1), the
    last at exactly pi.  fstar and the sweep share one values path, so each row's
    fstar is fstar(k, l, r1, r2, r3, t): the family's form is built once, a row
    with a unique interior maximum runs the rtsafe kernel on the form's scalars,
    which evaluates the slope itself, and the rest (t <= 1e-15, tau within
    TAU_PI_TOL of pi, every row when k*r1 = l*r3) go through find_max_reduced."""
    form, _ = make_reduced_form(k, l, r1, r2, r3, 0.0)
    n = _count(n, 2, "sweep needs at least 2 rows, got {n}")
    big_d = k + l
    taus = [math.pi * i / (n - 1) for i in range(n - 1)] + [math.pi]
    ts = [tau / big_d for tau in taus]
    # ratio over |r1 + r2*e^(it) + r3|, the modulus at x = 0; tuple.__new__ skips NamedTuple's __new__
    return [
        tuple.__new__(
            SweepRow,
            (tau, t, v, v / math.hypot(r1 + r3 + r2 * math.cos(t), r2 * math.sin(t)), math.cos(tau / (2.0 * big_d))),
        )
        for tau, t, v in zip(taus, ts, _max_values(form, ts))
    ]
