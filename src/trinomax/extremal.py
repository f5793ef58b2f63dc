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
"""

from __future__ import annotations

from typing import NamedTuple

from .maxmod import MaxResult, max_points_global
from .spectrum import SpectrumError, Trinomial, _check_moduli, _check_phases, _frequencies

__all__ = [
    "UnitBallPoint",
    "ExtremalEvidence",
    "ExtremalClass",
    "unit_ball_point",
    "classify_unit_ball_point",
]

_ZERO_COEFF_REL = 1e-12
# a point is classified only when its sup norm is within this of 1; the
# maximum itself is accurate far below that
NORM_TOL = 1e-6


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
    moduli, phases = _check_moduli(moduli, zeros=True), _check_phases(phases)
    if len(moduli) != 3 or len(phases) != 3:
        raise SpectrumError(f"need three moduli and three phases, got {moduli} and {phases}")
    live = _live_moduli(moduli)
    maximum = None
    if len(live) == 3:
        maximum = max_points_global(Trinomial(*frequencies, *moduli, *phases))
    # a monomial or a binomial attains the sum of its moduli
    sup = maximum.value if maximum is not None else sum(live)
    return UnitBallPoint(frequencies, moduli, phases, sup, maximum)


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
