"""Closed-form extremal constants of three-point spectra.

The norm of the unimodular multiplier with phase invariant tau on the span
of three exponentials is cos((pi - tau)/(2D)) / cos(pi/(2D)); its largest
value sec(pi/(2D)), reached at tau = pi, is the Sidon constant of the
spectrum, equal to both the complex and the real unconditional constant of
the exponential basis.  Extremal functions have moduli proportional to
(l, k+l, k), and every multiplier lifts to convolution with a combination
of two Dirac measures whose total variation equals the norm.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .maxmod import max_points_global
from .spectrum import (
    TWO_PI,
    Multiplier,
    SpectrumGeometry,
    Trinomial,
    _check_reduced,
    _top_two_adic_pair,
    modular_inverse,
    spectrum_geometry,
)

__all__ = [
    "Witness",
    "MeasureLift",
    "UnconditionalConstants",
    "multiplier_norm",
    "sidon_constant",
    "lift_to_measure",
    "unconditional_constants",
]


class Witness(NamedTuple):
    """An extremal trinomial attaining a sharp constant.

    Moduli are proportional to (l, k+l, k) in sorted-frequency order and the
    phases satisfy -l*u1 + (k+l)*u2 - k*u3 = pi (mod 2*pi); ``attained`` is
    the constant realised by this function.
    """

    frequencies: tuple[int, int, int]
    moduli: tuple[float, float, float]
    phases: tuple[float, float, float]
    attained: float

    @property
    def trinomial(self) -> Trinomial:
        return Trinomial(*self.frequencies, *self.moduli, *self.phases)


class MeasureLift(NamedTuple):
    """Two-atom measure whose convolution realises a phase multiplier.

    atom0 sits at 0 and atom1 at 2*m*pi/(k+l); |atom0| + |atom1| equals the
    multiplier norm.
    """

    atom0: complex
    atom1: complex
    position0: float
    position1: float

    @property
    def total_variation(self) -> float:
        return abs(self.atom0) + abs(self.atom1)

    def convolve(self, fun, x: float) -> complex:
        """(mu * f)(x) for a callable f of one real variable."""
        return self.atom0 * fun(x - self.position0) + self.atom1 * fun(x - self.position1)


class UnconditionalConstants(NamedTuple):
    """Real and complex unconditional constants of the exponential basis.

    ``equal_valuation_pair`` holds the 1-based indices (i, j) of the two
    frequencies whose differences to the third carry the same power of two;
    sign patterns agreeing on that pair are isometries, the four others all
    realise the real constant (the parity rule of _top_two_adic_pair).
    """

    real_constant: float
    complex_constant: float
    equal_valuation_pair: tuple[int, int]
    isometric_patterns: tuple[tuple[int, int, int], ...]
    non_isometric_patterns: tuple[tuple[int, int, int], ...]


def _norm_at(tau: float, big_d: int) -> float:
    return math.cos((math.pi - tau) / (2.0 * big_d)) / math.cos(math.pi / (2.0 * big_d))


def _extremal_trinomial(geo: SpectrumGeometry) -> Trinomial:
    # moduli (l, k+l, k) and phases (0, pi/D, 0), so tau = pi
    return Trinomial(*geo.lams, geo.l, geo.D, geo.k, 0.0, math.pi / geo.D, 0.0)


def multiplier_norm(
    frequencies: tuple[int, int, int], multiplier: Multiplier
) -> tuple[float, Witness]:
    """Operator norm of a unimodular phase multiplier on the three-exponential span.

    Equals cos((pi - tau)/(2D)) / cos(pi/(2D)) where tau is the phase
    invariant of the multiplier; 1 exactly when the multiplier is an
    isometry.  The witness attains the norm: max|M W| / max|W| is returned
    in ``attained``.  The witness is solved by max_points_global, so past its
    float resolution (a diameter above about 5.6e6 for d = 1) this raises SpectrumError.
    """
    geo = spectrum_geometry(frequencies)
    norm = _norm_at(abs(geo.signed_tau(multiplier.phases)), geo.D)
    w = _extremal_trinomial(geo)
    shifted = Trinomial(*w.frequencies, *w.moduli, *(t + u for t, u in zip(w.phases, geo.sort(multiplier.phases))))
    attained = max_points_global(shifted).value / max_points_global(w).value
    return norm, Witness(w.frequencies, w.moduli, w.phases, attained)


def sidon_constant(frequencies: tuple[int, int, int]) -> tuple[float, Witness]:
    """Sidon constant of a three-point spectrum: sec(pi/(2D)).

    D is the diameter of the spectrum divided by the gcd d of its gaps, so
    the constant is invariant under dilation of the spectrum; sec(pi/(2D))
    is the value confirmed by the brute-force oracle (in particular on
    dilated spectra where d > 1).  Smallest C with
    r1 + r2 + r3 <= C * max|T| over all phase choices; coincides with the
    multiplier norm at tau = pi.  The witness is checked with
    max_points_global, so past its float resolution (a diameter above about
    5.6e6 for d = 1) this raises SpectrumError rather than report an unchecked
    constant; unconditional_constants answers at any D.
    """
    geo = spectrum_geometry(frequencies)
    constant = _norm_at(math.pi, geo.D)
    w = _extremal_trinomial(geo)
    attained = (w.r1 + w.r2 + w.r3) / max_points_global(w).value
    return constant, Witness(w.frequencies, w.moduli, w.phases, attained)


def lift_to_measure(k: int, l: int, t: float) -> MeasureLift:
    """Two-Dirac measure realising the middle-phase multiplier (0, t, 0).

    mu = e^(it/2) * sin(pi/(k+l) - t/2)/sin(pi/(k+l)) * delta_0
       + e^(i(t/2 + pi/(k+l))) * sin(t/2)/sin(pi/(k+l)) * delta_{2m pi/(k+l)}

    with m the inverse of l modulo k+l; its total variation equals the
    multiplier norm cos(pi/(2(k+l)) - t/2) / cos(pi/(2(k+l))).
    """
    t = _check_reduced(k, l, t)
    big_d = k + l
    edge = math.pi / big_d
    s = math.sin(edge)
    atom0 = cmath.exp(1j * t / 2.0) * math.sin(edge - t / 2.0) / s
    atom1 = cmath.exp(1j * (t / 2.0 + edge)) * math.sin(t / 2.0) / s
    position1 = TWO_PI * modular_inverse(l, big_d) / big_d
    return MeasureLift(atom0=atom0, atom1=atom1, position0=0.0, position1=position1)


def unconditional_constants(frequencies: tuple[int, int, int]) -> UnconditionalConstants:
    """Real and complex unconditional constants of the basis; they coincide.

    The eight sign multipliers (phases in {0, pi}) split by the parity rule
    of _top_two_adic_pair, exact at any D: the four agreeing on the
    equal-valuation pair are isometries, the other four have phase
    invariant pi and realise the common constant sec(pi/(2D)).
    """
    geo = spectrum_geometry(frequencies)
    constant = _norm_at(math.pi, geo.D)  # the Sidon constant
    i, j = _top_two_adic_pair(geo)
    patterns = [tuple(1 if bits & (1 << n) == 0 else -1 for n in range(3)) for bits in range(8)]
    return UnconditionalConstants(
        real_constant=constant,
        complex_constant=constant,
        equal_valuation_pair=(i + 1, j + 1),
        isometric_patterns=tuple(s for s in patterns if s[i] == s[j]),
        non_isometric_patterns=tuple(s for s in patterns if s[i] != s[j]),
    )
