"""Exposed and extreme points of the unit ball of a three-exponential span.

A norm-one element is exposed exactly when it is a unimodular multiple of a
single exponential or a trinomial attaining modulus 1 at two points modulo
2*pi/d; it is extreme exactly when it is such a monomial or a trinomial for
which 1 - |P|^2 has total zero multiplicity four over one period (two double
zeros, or one quadruple zero).  No binomial is extreme.

Both facts are read off the branch of ``max_points_global`` that found the
maximum: the zeros of 1 - |P|^2 are exactly its maximum points, each of the
multiplicity that branch reports (four on the knife edge, two elsewhere).
Given p1 + p2 + p3 = rho, the paper's parabola condition on the signed
coefficients of a quadruple point is that same knife edge, tested in maxmod.

Reconstruction: a trinomial that attains its maximum modulus at two given
points is pinned down by its values there, via a 3-equation linear system in
the signed coefficients after translating the midpoint to the origin.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .maxmod import MaxResult, evaluate, max_points_global
from .spectrum import TWO_PI, SpectrumError, Trinomial, _check_moduli, _check_phases, _frequencies, spectrum_geometry

__all__ = [
    "NoSolution",
    "SingularConfiguration",
    "UnitBallPoint",
    "ExtremalEvidence",
    "ExtremalClass",
    "unit_ball_point",
    "classify_unit_ball_point",
    "reconstruct_from_two_points",
]

_ZERO_COEFF_REL = 1e-12
# a point is classified only when its sup norm is within this of 1; the
# maximum itself is accurate far below that
NORM_TOL = 1e-6


class NoSolution(ValueError):
    """The point data is not realised by any trinomial of the requested kind."""


class SingularConfiguration(ValueError):
    """The reconstruction system degenerates (a sine factor vanishes)."""


class UnitBallPoint(NamedTuple):
    """Element of the span, allowing zero coefficients, with its sup norm.

    maximum is the max_points_global result the sup norm of a trinomial
    was read from; None for monomials and binomials.
    """

    frequencies: tuple[int, int, int]
    moduli: tuple[float, float, float]
    phases: tuple[float, float, float]
    sup_norm: float
    maximum: MaxResult | None = None

    @property
    def kind(self) -> str:
        return {1: "Monomial", 2: "Binomial", 3: "Trinomial"}[len(_live_moduli(self.moduli))]


def _live_moduli(moduli) -> list[float]:
    """The moduli above _ZERO_COEFF_REL of the largest; the rest count as zero."""
    threshold = _ZERO_COEFF_REL * max(moduli)
    return [r for r in moduli if r > threshold]


class ExtremalEvidence(NamedTuple):
    max_point_count: int | None
    zero_multiplicity_sum: int | None


class ExtremalClass(NamedTuple):
    exposed: bool
    extreme: bool
    evidence: ExtremalEvidence


def unit_ball_point(
    frequencies: tuple[int, int, int],
    moduli: tuple[float, float, float],
    phases: tuple[float, float, float],
) -> UnitBallPoint:
    """Build a point of the span and compute its sup norm, keeping the
    maximum of a trinomial for the classification."""
    frequencies = _frequencies(frequencies)
    if len(moduli) != 3 or len(phases) != 3:
        raise SpectrumError(f"need three moduli and three phases, got {moduli} and {phases}")
    _check_moduli(moduli, zeros=True)
    _check_phases(phases)
    live = _live_moduli(moduli)
    maximum = None
    if len(live) == 3:
        maximum = max_points_global(Trinomial(*frequencies, *moduli, *phases))
    # a monomial or a binomial attains the sum of its moduli
    sup = maximum.value if maximum is not None else sum(live)
    return UnitBallPoint(frequencies, tuple(moduli), tuple(phases), sup, maximum)


def classify_unit_ball_point(point: UnitBallPoint) -> ExtremalClass:
    """Decide whether a norm-one element is exposed and/or extreme.

    The element must be normalised: its sup norm may differ from 1 by at
    most NORM_TOL.  Monomials are both; binomials are neither; a
    trinomial is exposed exactly when it attains its maximum at two points
    modulo 2*pi/d and extreme exactly when the zero multiplicities of
    1 - |P|^2 sum to four.  The evidence is the point count and the
    multiplicity of the ``max_points_global`` result the point keeps.
    """
    if abs(point.sup_norm - 1.0) > NORM_TOL:
        raise SpectrumError(
            f"classification needs sup norm 1, got {point.sup_norm}"
        )
    kind = point.kind
    if kind == "Monomial":
        return ExtremalClass(True, True, ExtremalEvidence(None, None))
    if kind == "Binomial":
        return ExtremalClass(False, False, ExtremalEvidence(None, None))
    res = point.maximum
    if res is None:
        raise SpectrumError("a trinomial point needs its maximum; build it with unit_ball_point")
    count = len(res.points)
    zsum = res.multiplicity * count
    return ExtremalClass(
        exposed=count == 2,
        extreme=zsum == 4,
        evidence=ExtremalEvidence(max_point_count=count, zero_multiplicity_sum=zsum),
    )


def reconstruct_from_two_points(
    frequencies: tuple[int, int, int],
    x: float,
    y: float,
    value_x: complex,
    value_y: complex,
) -> Trinomial:
    """The unique trinomial attaining its maximum modulus at x and y with the
    given values, when one exists.

    After translating the midpoint of {x, y} to the origin and rotating the
    value phases to opposite angles, the signed coefficients solve a linear
    system; the candidate is then verified to actually attain its maximum at
    the two points.  Raises SingularConfiguration when a sine factor of the
    system vanishes and NoSolution when the data is inconsistent.
    """
    _, lams, d, k, l = spectrum_geometry(frequencies)
    rho_x, rho_y = abs(value_x), abs(value_y)
    if rho_x <= 0.0 or rho_y <= 0.0:
        raise NoSolution("values at the maximum points must be nonzero")
    if abs(rho_x - rho_y) > 1e-9 * max(rho_x, rho_y):
        raise NoSolution(f"values must share one modulus, got {rho_x} and {rho_y}")
    period = TWO_PI / d
    if abs(math.remainder(x - y, period)) < 1e-9:
        raise SpectrumError("the two points must differ modulo 2*pi/d")

    # pass to the model spectrum (-k, 0, l): modulate out the middle
    # frequency, rescale x by d
    ux = value_x * cmath.exp(-1j * lams[1] * x)
    uy = value_y * cmath.exp(-1j * lams[1] * y)
    wx, wy = d * x, d * y
    centre = 0.5 * (wx + wy)
    xhat = 0.5 * (wx - wy)
    theta = cmath.phase(ux)
    zeta = cmath.phase(uy)
    phi = 0.5 * (theta + zeta)
    that = 0.5 * (theta - zeta)
    rho = 0.5 * (rho_x + rho_y)

    s1 = math.sin(that + k * xhat)
    s3 = math.sin(that - l * xhat)
    if abs(s1) < 1e-9 or abs(s3) < 1e-9:
        raise SingularConfiguration(
            f"sin factors vanish: sin(theta+kx)={s1}, sin(theta-lx)={s3}"
        )
    st = math.sin(that)
    bracket = (
        math.cos(that)
        - l * st * math.cos(that + k * xhat) / ((k + l) * s1)
        - k * st * math.cos(that - l * xhat) / ((k + l) * s3)
    )
    if abs(bracket) < 1e-12:
        raise NoSolution("the linear system is inconsistent for this data")
    p2 = rho / bracket
    p1 = -l * p2 * st / ((k + l) * s1)
    p3 = -k * p2 * st / ((k + l) * s3)
    ps = (p1, p2, p3)
    if min(abs(p) for p in ps) < 1e-12 * max(abs(p) for p in ps):
        raise NoSolution("a coefficient vanishes; the data is not trinomial")

    model_freqs = (-k, 0, l)
    coeffs = [
        p * cmath.exp(1j * phi) * cmath.exp(-1j * mu * centre)
        for p, mu in zip(ps, model_freqs)
    ]
    candidate = Trinomial(
        *lams,
        *(abs(c) for c in coeffs),
        *(cmath.phase(c) for c in coeffs),
    )
    res = max_points_global(candidate)
    if abs(res.value - rho) > 1e-8 * rho:
        raise NoSolution(
            f"candidate maximum {res.value} does not match the prescribed modulus {rho}"
        )
    for point, want in ((x, value_x), (y, value_y)):
        got = evaluate(candidate, point)
        if abs(got - want) > 1e-8 * rho:
            raise NoSolution(f"candidate misses the value at {point}: {got} vs {want}")
        if not any(
            abs(math.remainder(point - px, period)) < 1e-6 for px, _ in res.points
        ):
            raise NoSolution(f"candidate does not attain its maximum at {point}")
    return candidate
