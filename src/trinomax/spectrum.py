"""Integer and angle arithmetic for trigonometric trinomials.

A trigonometric trinomial

    T(x) = r1*e^(i(t1 + l1*x)) + r2*e^(i(t2 + l2*x)) + r3*e^(i(t3 + l3*x))

with three pairwise distinct integer frequencies is governed by a handful of
discrete invariants: the step d of the spectrum, the coprime gaps (k, l), the
quotient D = k + l of the diameter by d, and a single phase invariant tau in
[0, pi].  This module derives those invariants, strips the phase shift that
acts as an isometry (rotation + translation), and reduces a general trinomial
to the canonical form

    r1*e^(-i k x) + r2*e^(i t) + r3*e^(i l x),   t in [0, pi/(k+l)],  k*r1 <= l*r3

returned as one Reduction: the form, the invariants and the map back to x.

Everything here is pure and reentrant; all values are immutable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from math import gcd, inf
from operator import index
from typing import NamedTuple

TWO_PI = 2.0 * math.pi
# relative residual |(|T|^2)'(x)| / sum(2*ri*rj*|gap|) that maximum points are
# held to.  |T| depends on the gaps only, and a float x in [0, 2*pi/d) fixes
# the phase differences gap*x only to about 2*(l3 - l1)*ulp(2*pi/d) of it, so
# canonical_reduction refuses spectra past that: a diameter l3 - l1 above
# about 5.6e6 for d = 1, twice that for d = 2 or 3.
STATIONARY_REL_TOL = 1e-8
# slack on the reduced phase range [0, pi/(k+l)], absolute below 0 and
# relative above the edge: a t computed from tau may round a few ulp past it
REDUCED_T_SLACK = 1e-12
# the largest modulus must lie in [1/MODULUS_SCALE, MODULUS_SCALE]: the solve and
# the oracle square the moduli, which overflows past about 1.3e154 and turns subnormal
# below about 1e-154, and |T| is homogeneous in the moduli, so any trinomial rescales into range
MODULUS_SCALE = 1e100
# the widest frequency span max - min, the float range: d and the period 2*pi/d are floats
_MAX_SPAN = int(sys.float_info.max)

__all__ = [
    "SpectrumError",
    "Trinomial",
    "Multiplier",
    "SpectrumGeometry",
    "ReducedForm",
    "Reduction",
    "wrap_angle",
    "modular_inverse",
    "spectrum_geometry",
    "phase_combination",
    "canonical_reduction",
    "make_reduced_form",
    "opposition_signs",
]


class SpectrumError(ValueError):
    """Invalid trinomial data: repeated frequencies, nonpositive moduli, ..."""


# The input rules.  Each is defined here and runs once, in the public
# constructors and entry points; internal records are built from trusted values.


def _frequencies(frequencies) -> tuple[int, int, int]:
    """Three pairwise distinct integers (anything operator.index takes) spanning at most _MAX_SPAN, as ints."""
    try:
        f1, f2, f3 = frequencies
        f1, f2, f3 = index(f1), index(f2), index(f3)
    except (TypeError, ValueError):
        raise SpectrumError(f"frequencies must be three integers, got {frequencies}") from None
    if f1 == f2 or f2 == f3 or f1 == f3:
        raise SpectrumError(f"frequencies must be pairwise distinct, got {(f1, f2, f3)}")
    if abs(f1 - f2) > _MAX_SPAN or abs(f1 - f3) > _MAX_SPAN or abs(f2 - f3) > _MAX_SPAN:
        span = max(f1, f2, f3) - min(f1, f2, f3)
        raise SpectrumError(f"frequencies must span at most {_MAX_SPAN:.6g}, got a span of {len(str(span))} digits")
    return f1, f2, f3


def _check_moduli(moduli, zeros: bool = False) -> tuple[float, ...]:
    """Moduli as floats: finite, positive (``zeros``: nonnegative), the largest in [1/MODULUS_SCALE, MODULUS_SCALE]."""
    try:
        moduli = tuple(map(float, moduli))
        largest = max(moduli)
    except (TypeError, ValueError):
        raise SpectrumError(f"moduli must be real numbers, got {moduli}") from None
    for r in moduli:
        if not (0.0 <= r < inf if zeros else 0.0 < r < inf):
            raise SpectrumError(f"moduli must be {'nonnegative' if zeros else 'positive'} and finite, got {r}")
    if not 1.0 / MODULUS_SCALE <= largest <= MODULUS_SCALE:
        raise SpectrumError(
            f"the largest modulus must lie in [{1.0 / MODULUS_SCALE:g}, {MODULUS_SCALE:g}], got "
            f"{largest}; |T| scales with the moduli, so divide them by a common factor"
        )
    return moduli


def _check_phases(phases, name: str = "phases") -> tuple[float, ...]:
    """Phases: real numbers (anything float takes), finite.  Returns them as
    floats, each one past a full turn reduced to [-pi, pi] by atan2(sin t,
    cos t): libm reduces sin and cos exactly, while math.remainder(t, TWO_PI)
    is off by t/(2*pi) times the rounding of TWO_PI.  A phase within one turn
    is returned unchanged, as reducing it gains no precision."""
    try:
        phases = tuple(phases)
    except TypeError:
        raise SpectrumError(f"{name} must be real numbers, got {phases!r}") from None
    reduced = []
    for t in phases:
        try:
            t = float(t)
        except (TypeError, ValueError):
            raise SpectrumError(f"{name} must be real numbers, got {t!r}") from None
        if not math.isfinite(t):
            raise SpectrumError(f"{name} must be finite, got {t}")
        reduced.append(math.atan2(math.sin(t), math.cos(t)) if abs(t) > TWO_PI else t)
    return tuple(reduced)


def _check_gaps(k, l) -> None:
    """Reduced gaps: (k, l) positive coprime integers (anything operator.index takes)."""
    try:
        coprime = index(k) >= 1 and index(l) >= 1 and gcd(k, l) == 1
    except TypeError:
        coprime = False
    if not coprime:
        raise SpectrumError(f"(k, l) must be positive coprime, got ({k}, {l})")


def _check_reduced(k, l, t) -> float:
    """Reduced parameters: the gaps rule, and t a real number (anything float
    takes) in [0, pi/(k+l)] up to REDUCED_T_SLACK.  Returns t as a float."""
    _check_gaps(k, l)
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise SpectrumError(f"t must be a real number, got {t!r}") from None
    edge = math.pi / (k + l)
    if not -REDUCED_T_SLACK <= t <= edge * (1.0 + REDUCED_T_SLACK):
        raise SpectrumError(f"t must lie in [0, pi/(k+l)] = [0, {edge}], got {t}")
    return t


def _count(n, least: int, message: str) -> int:
    """A count: an integer at least ``least`` (anything operator.index takes),
    returned as an int; ``message`` has {n} where the count goes."""
    try:
        if index(n) >= least:
            return index(n)
    except TypeError:
        pass
    raise SpectrumError(message.format(n=n))


def wrap_angle(x: float) -> float:
    """Representative of ``x`` modulo 2*pi in the half-open interval (-pi, pi]."""
    w = math.remainder(x, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


def modular_inverse(a: int, n: int) -> int:
    """Inverse of ``a`` modulo ``n``, returned in [1, n-1].

    Requires integers with gcd(a, n) = 1 and n >= 2.
    """
    try:
        a, n = index(a), index(n)
    except TypeError:
        raise SpectrumError(f"modular_inverse needs two integers, got ({a!r}, {n!r})") from None
    if n < 2:
        raise SpectrumError(f"modulus must be >= 2, got {n}")
    if gcd(a, n) != 1:
        raise SpectrumError(f"{a} is not invertible modulo {n}")
    return pow(a, -1, n)


@dataclass(frozen=True)
class Trinomial:
    """Three Fourier coefficients given as (modulus, phase) at integer frequencies.

    The input rules run here, once: frequencies are stored as ints, moduli as
    floats, and a phase past a full turn, |t| > 2*pi, reduced to [-pi, pi]
    (``_check_phases``), so the solve and the oracle read the same T.
    """

    lambda1: int
    lambda2: int
    lambda3: int
    r1: float
    r2: float
    r3: float
    t1: float = 0.0
    t2: float = 0.0
    t3: float = 0.0

    def __post_init__(self) -> None:
        values = (*_frequencies(self.frequencies), *_check_moduli(self.moduli), *_check_phases(self.phases))
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @property
    def frequencies(self) -> tuple[int, int, int]:
        return (self.lambda1, self.lambda2, self.lambda3)

    @property
    def moduli(self) -> tuple[float, float, float]:
        return (self.r1, self.r2, self.r3)

    @property
    def phases(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)


@dataclass(frozen=True)
class Multiplier:
    """Unimodular phase increments applied to the three Fourier coefficients;
    each past a full turn is stored reduced, as in ``Trinomial``."""

    u1: float
    u2: float
    u3: float

    def __post_init__(self) -> None:
        for name, u in zip(("u1", "u2", "u3"), _check_phases((self.u1, self.u2, self.u3), "multiplier phases")):
            object.__setattr__(self, name, u)

    @property
    def phases(self) -> tuple[float, float, float]:
        return (self.u1, self.u2, self.u3)

    def apply(self, trinomial: Trinomial) -> Trinomial:
        """The trinomial with each coefficient rotated by the matching phase."""
        t1, t2, t3 = trinomial.phases
        return replace(trinomial, t1=t1 + self.u1, t2=t2 + self.u2, t3=t3 + self.u3)


@dataclass(frozen=True)
class ReducedForm:
    """Canonical trinomial r1*e^(-ikx) + r2*e^(it) + r3*e^(ilx).

    Invariants: gcd(k, l) = 1, t in [0, pi/(k+l)], k*r1 <= l*r3, and
    t = tau/(k+l) where tau is the phase invariant of the source trinomial.
    """

    k: int
    l: int
    r1: float
    r2: float
    r3: float
    t: float

    def __post_init__(self) -> None:
        t = _check_reduced(self.k, self.l, self.t)
        values = (*_check_moduli((self.r1, self.r2, self.r3)), t)
        for name, value in zip(("r1", "r2", "r3", "t"), values):
            object.__setattr__(self, name, value)
        slack = 1e-12 * (self.k * self.r1 + self.l * self.r3)
        if self.k * self.r1 > self.l * self.r3 + slack:
            raise SpectrumError(
                f"normalisation k*r1 <= l*r3 violated: {self.k * self.r1} > {self.l * self.r3}"
            )


def make_reduced_form(
    k: int, l: int, r1: float, r2: float, r3: float, t: float
) -> tuple[ReducedForm, bool]:
    """Build a ReducedForm, swapping the outer coefficients when k*r1 > l*r3.

    The swap replaces x by -x, which leaves the maximum modulus unchanged.
    Returns the form and whether the swap was applied.
    """
    form, swapped = _trusted_form(k, l, r1, r2, r3, t)
    form.__post_init__()
    return form, swapped


def _trusted_form(k, l, r1, r2, r3, t) -> tuple[ReducedForm, bool]:
    """make_reduced_form, unchecked, of values that already satisfy ReducedForm's rules.
    One form.__dict__.update(...) fills the fields.  On Python 3.11 it builds a form in
    0.6 us against 0.85 us for six object.__setattr__ calls, and max_points_global over
    the seed-1 solve-mixed pool ran faster with it in 29-30 of 41 interleaved rounds
    (median 1-2 % lower), bit for bit.  Reading the six fields back costs 50-58 ns
    against 35-47 ns, and the form carries its own dict (336 against 137 bytes)."""
    swapped = k * r1 > l * r3
    if swapped:
        k, l, r1, r3 = l, k, r3, r1
    form = object.__new__(ReducedForm)
    form.__dict__.update(k=k, l=l, r1=r1, r2=r2, r3=r3, t=t)
    return form, swapped


def phase_combination(k: int, l: int, t1: float, t2: float, t3: float) -> float:
    """The integer-weighted phase combination -l*t1 + (k+l)*t2 - k*t3.

    The weights are exact integers, so the only rounding is in the final
    sum (done with fsum); the phase invariant tau is the distance of this
    quantity to 2*pi*Z.
    """
    return math.fsum((-l * t1, (k + l) * t2, -k * t3))


class SpectrumGeometry(NamedTuple):
    """Sort order and gap structure of a three-point spectrum.

    perm maps sorted slot j to the original index perm[j]; lams are the
    sorted frequencies, d the gcd of their gaps (the modulus profile is
    2*pi/d periodic) and k, l the coprime gaps divided by d.
    """

    perm: tuple[int, int, int]
    lams: tuple[int, int, int]
    d: int
    k: int
    l: int

    @property
    def D(self) -> int:
        return self.k + self.l

    @property
    def m(self) -> int:
        """The inverse of l modulo D."""
        return modular_inverse(self.l, self.D)

    def sort(self, values) -> tuple:
        """Per-coefficient values reordered into sorted-frequency order."""
        p = self.perm
        return (values[p[0]], values[p[1]], values[p[2]])

    def signed_tau(self, phases) -> float:
        """The phase combination wrapped into (-pi, pi]; tau is its absolute value."""
        t1, t2, t3 = self.sort(phases)
        return wrap_angle(phase_combination(self.k, self.l, t1, t2, t3))


def spectrum_geometry(frequencies) -> SpectrumGeometry:
    """Sort permutation, sorted frequencies, step d and coprime gaps (k, l).

    Raises SpectrumError unless they are three pairwise distinct integers.
    """
    return _geometry(_frequencies(frequencies))


def _geometry(f: tuple[int, int, int]) -> SpectrumGeometry:
    """spectrum_geometry of frequencies that already passed _frequencies: pairwise distinct ints, one index each."""
    l1, l2, l3 = sorted(f)
    perm = (f.index(l1), f.index(l2), f.index(l3))
    d = gcd(l2 - l1, l3 - l2)
    # tuple.__new__ builds the same record without the Python-level __new__ of a NamedTuple call
    return tuple.__new__(SpectrumGeometry, (perm, (l1, l2, l3), d, (l2 - l1) // d, (l3 - l2) // d))


class Reduction(NamedTuple):
    """A trinomial's canonical reduction: the reduced form R and the map back.

    tau in [0, pi] is the phase invariant, turns the whole turns (U, W) that
    canonical_reduction takes off the sorted phases t1, t3, and (alpha, v) the
    isometric rotation and shift stripped from the phases.  |T(x)| = |R(epsilon*d*(x - v))|
    for every x; swapped records that k*r1 > l*r3 exchanged the outer coefficients.
    phases are the source's sorted phases.
    """

    form: ReducedForm
    geometry: SpectrumGeometry
    tau: float
    turns: tuple[int, int]
    alpha: float
    v: float
    epsilon: int
    swapped: bool
    phases: tuple[float, float, float]

    @property
    def period(self) -> float:
        """2*pi/d, the period of the modulus profile."""
        return TWO_PI / self.geometry.d

    def from_reduced(self, y: float) -> float:
        """The point x whose reduced coordinate epsilon*d*(x - v) is y."""
        return self.v + y / (self.epsilon * self.geometry.d)


def _solve_common_shift(geo: SpectrumGeometry, phases: tuple[float, float, float], u: int) -> float:
    """Solve phases[j] + lams[j]*v = const (mod 2*pi) for v, lams = geo.lams.

    phases are in sorted-frequency order.  A solution exists exactly when the
    weighted phase combination lies in 2*pi*Z.  Taking canonical_reduction's
    U = u whole turns off t1 makes the combination vanish, so with n = -U mod k,
    v = (t1 - t2 + 2*pi*n)/(l2 - l1) solves the first congruence and, up to
    rounding, the second; its residual there is checked against 1e-7.  The
    cost is one modular inverse, O(log gap).  Moving t2 by the signed tau
    over k+l, as canonical_reduction does, leaves U unchanged.
    """
    l1, l2, l3 = geo.lams
    t1, t2, t3 = phases
    v = (t1 - t2 + TWO_PI * (-u % geo.k)) / (l2 - l1)
    res = abs(wrap_angle((l3 - l2) * v - (t2 - t3)))
    if res > 1e-7:
        raise SpectrumError(f"no common translation exists (residual {res:.3e} > tol 1.0e-07)")
    return wrap_angle(v)


def canonical_reduction(trinomial: Trinomial) -> Reduction:
    """Reduce a trinomial to canonical form.

    The chain of normalisations is: sort frequencies; strip an isometric
    phase shift so the phases become (0, tau_signed/(k+l), 0); conjugate if
    the remaining phase is negative; rescale x by d; swap the outer
    coefficients if k*r1 > l*r3.  The maximum modulus is preserved at every
    step and |T(x)| = |R(epsilon*d*(x - v))| for all x.

    The signed tau is the phase combination of the sorted phases wrapped into
    (-pi, pi], which adds shift whole turns.  The combination weighs t1 by -l
    and t3 by -k, so t1 - 2*pi*U, t2, t3 - 2*pi*W carry the signed tau when
    U*l + W*k = shift.  In integers: U = shift * (l^-1 mod k) mod k, so
    0 <= U < k and k divides shift - U*l, and W = (shift - U*l) // k exactly.

    Raises SpectrumError for frequencies past float resolution (see
    STATIONARY_REL_TOL).  Nothing else is checked: Trinomial did, and the
    form's rules hold by construction.
    """
    geo = _geometry((trinomial.lambda1, trinomial.lambda2, trinomial.lambda3))
    (p0, p1, p2), (l1, l2, l3), d, k, l = geo
    resolution = 2.0 * (l3 - l1) * math.ulp(TWO_PI / d)
    if resolution > STATIONARY_REL_TOL:
        raise SpectrumError(
            f"frequency diameter {l3 - l1} is past float resolution: a point in "
            f"[0, 2*pi/{d}) fixes the phase gaps only to {resolution:.1e} relative, "
            f"above {STATIONARY_REL_TOL:.0e}"
        )
    big_d = k + l
    ph, r = (trinomial.t1, trinomial.t2, trinomial.t3), (trinomial.r1, trinomial.r2, trinomial.r3)
    phases = t1, t2, t3 = ph[p0], ph[p1], ph[p2]
    comb = phase_combination(k, l, t1, t2, t3)
    tau_signed = wrap_angle(comb)
    shift = round((tau_signed - comb) / TWO_PI)
    u = shift * pow(l, -1, k) % k

    t2_target = tau_signed / big_d
    v = _solve_common_shift(geo, (t1, t2 - t2_target, t3), u)
    alpha = wrap_angle(t2 - t2_target + l2 * v)

    form, swapped = _trusted_form(k, l, r[p0], r[p1], r[p2], min(abs(t2_target), math.pi / big_d))
    epsilon = -1 if (t2_target < 0.0) != swapped else 1
    turns = (u, (shift - u * l) // k)
    return tuple.__new__(Reduction, (form, geo, abs(tau_signed), turns, alpha, v, epsilon, swapped, phases))


def _top_two_adic_pair(geo: SpectrumGeometry) -> tuple[int, int]:
    """Index pair (i, j), i < j, of the frequencies in their given order that
    sit across the even gap; that gap carries the strictly largest power of two.

    Sign multipliers are the phases pi*b, b in {0, 1}.  In sorted-frequency
    order their phase invariant is pi times the parity of
    -l*b1 + (k+l)*b2 - k*b3.  As k and l are coprime, exactly one of k, l,
    k+l is even, and the parity is b1 + b2, b2 + b3 or b1 + b3 respectively:
    the isometric sign patterns are exactly the four that agree on the sorted
    pair across the even gap, and the four others have invariant pi.
    """
    pair = (0, 1) if geo.k % 2 == 0 else (1, 2) if geo.l % 2 == 0 else (0, 2)
    return tuple(sorted(geo.perm[i] for i in pair))


def opposition_signs(lambda1: int, lambda2: int, lambda3: int) -> tuple[int, int, int]:
    """Sign pattern (+-1, +-1, +-1) whose phase invariant is exactly pi.

    The pair across the even gap (see _top_two_adic_pair) receives opposite
    signs; exact in integers at any diameter.
    """
    signs = [1, 1, 1]
    signs[_top_two_adic_pair(spectrum_geometry((lambda1, lambda2, lambda3)))[1]] = -1
    return tuple(signs)
