"""The five benchmark workloads: seeded inputs, the op, and its output check.

Every workload is a closed loop: one caller issues the next op after the
previous one returns.  Inputs come from the benchmark's own generator,
seeded by the ``--seed`` argument (``random.Random`` with a string seed, so
the stream depends neither on numpy nor on ``trinomax.oracle``'s random
helpers).  Inputs are produced in shuffled blocks with fixed category
counts, so every prefix of whole blocks has the stated mix.

Ops call the library through module attributes (``maxmod.max_points_global``
rather than a name bound at import), so that the traced run's wrappers are
seen.  Checks run outside the timed section and return a list of failure
messages (empty when the output is correct).
"""

from __future__ import annotations

import cmath
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from trinomax import constants, extremal, geometry, maxmod, oracle, phasecurves
from trinomax.spectrum import Multiplier, Trinomial

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# oracle-free solve checks, relative to the scales named in solve_check
VALUE_TOL = 1e-9
STATIONARY_TOL = 1e-8
CONCAVE_TOL = 1e-6
GRID_TOL = 1e-11
AXIS_TOL = 1e-8
# verify's agreement tolerances
ORACLE_VALUE_TOL = 1e-9
ORACLE_ARGMAX_TOL = 1e-6
ORACLE_GRID = 1024
CONSTANT_TOL = 1e-3

MAX_FREQ = 12
COPRIME = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1), (3, 4), (4, 3), (1, 5))


@dataclass(frozen=True)
class Instance:
    """One generated trinomial and the category it was built for."""

    tri: Trinomial
    category: str


# ---------------------------------------------------------------- generation


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sorted_gaps(freqs) -> tuple[int, int, int]:
    a, b, c = sorted(freqs)
    d = gcd(b - a, c - b)
    return d, (b - a) // d, (c - b) // d


def phase_invariant(freqs, phases) -> float:
    """tau in [0, pi], computed here rather than by the library under test."""
    order = sorted(range(3), key=lambda j: freqs[j])
    t1, t2, t3 = (phases[j] for j in order)
    _, k, l = _sorted_gaps(freqs)
    return abs(math.remainder(math.fsum((-l * t1, (k + l) * t2, -k * t3)), TWO_PI))


def _shuffled(rng: random.Random, freqs, moduli, phases, category: str) -> Instance:
    # present the coefficients in random order so the sort step is exercised
    triples = list(zip(freqs, moduli, phases))
    rng.shuffle(triples)
    f, r, t = zip(*triples)
    return Instance(Trinomial(*f, *r, *t), category)


def _distinct_freqs(rng: random.Random) -> tuple[int, int, int]:
    while True:
        freqs = tuple(rng.randint(-MAX_FREQ, MAX_FREQ) for _ in range(3))
        if len(set(freqs)) == 3:
            return freqs


def _spectrum(rng: random.Random, k: int, l: int) -> tuple[int, int, int]:
    # sorted frequencies (c - k*d, c, c + l*d) inside [-MAX_FREQ, MAX_FREQ]
    d = rng.choice([d for d in (1, 2, 3) if (k + l) * d <= 2 * MAX_FREQ])
    c = rng.randint(-MAX_FREQ + k * d, MAX_FREQ - l * d)
    return (c - k * d, c, c + l * d)


def _symmetric_phases(rng: random.Random, k: int, l: int) -> tuple[float, float, float]:
    # tau = pi exactly: -l*u1 + (k+l)*u2 - k*u3 = pi (mod 2*pi)
    u1, u3 = rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)
    j = rng.randrange(k + l)
    return (u1, (math.pi + l * u1 + k * u3 + TWO_PI * j) / (k + l), u3)


def _moduli(rng: random.Random, lo: float = 1e-2, hi: float = 1e2) -> tuple[float, float, float]:
    return tuple(_log_uniform(rng, lo, hi) for _ in range(3))


def _generic(rng: random.Random) -> Instance:
    phases = tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
    return _shuffled(rng, _distinct_freqs(rng), _moduli(rng), phases, "generic")


def _symmetric_pair(rng: random.Random) -> Instance:
    # tau = pi, away from the x = 0 branch and from the l = 1 knife edge
    while True:
        k, l = rng.choice(COPRIME)
        r1, r2, r3 = _moduli(rng)
        kk, ll, s1, s3 = (k, l, r1, r3) if k * r1 <= l * r3 else (l, k, r3, r1)
        if abs(kk * s1 - ll * s3) <= 1e-6 * max(kk * s1, ll * s3):
            continue
        if ll == 1:
            edge = kk * kk * s1 * r2 + (kk + 1) ** 2 * s1 * s3 - r2 * s3
            scale = kk * kk * s1 * r2 + (kk + 1) ** 2 * s1 * s3 + r2 * s3
            if abs(edge) <= 1e-4 * scale:
                continue
        freqs = _spectrum(rng, k, l)
        return _shuffled(rng, freqs, (r1, r2, r3), _symmetric_phases(rng, k, l), "symmetric")


def _knife_edge(rng: random.Random) -> Instance:
    """tau = pi with reduced l = 1 and r2 next to (or on) the knife edge

    k^2*r1*r2 + (k+1)^2*r1*r3 = r2*r3, on either side, so the boundary,
    quadruple-point and symmetric-edge branches all occur.
    """
    k = rng.randint(1, 5)
    r1 = _log_uniform(rng, 1e-2, 1e1)
    r3 = k * k * r1 * (1.0 + _log_uniform(rng, 0.05, 20.0))
    r2_edge = (k + 1) ** 2 * r1 * r3 / (r3 - k * k * r1)
    side = rng.randrange(4)
    delta = 0.0 if side == 0 else (-1.0 if side == 1 else 1.0) * 10.0 ** rng.uniform(-7.0, -2.0)
    r2 = r2_edge * (1.0 + delta)
    if rng.random() < 0.5:
        freqs = _spectrum(rng, k, 1)
        return _shuffled(rng, freqs, (r1, r2, r3), _symmetric_phases(rng, k, 1), "knife-edge")
    # mirrored spectrum: the reduction swaps the outer coefficients back
    freqs = _spectrum(rng, 1, k)
    return _shuffled(rng, freqs, (r3, r2, r1), _symmetric_phases(rng, 1, k), "knife-edge")


def _at_zero(rng: random.Random) -> Instance:
    # k*r1 = l*r3 in sorted order: the maximum sits at the reduced origin
    freqs = sorted(_distinct_freqs(rng))
    _, k, l = _sorted_gaps(freqs)
    r1 = _log_uniform(rng, 1e-2, 1e2)
    r2 = _log_uniform(rng, 1e-2, 1e2)
    phases = tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
    return _shuffled(rng, freqs, (r1, r2, k * r1 / l), phases, "at-zero")


MIXED_BLOCK = (("generic", 12), ("symmetric", 4), ("knife-edge", 2), ("at-zero", 2))
_MIXED_MAKERS = {"generic": _generic, "symmetric": _symmetric_pair, "knife-edge": _knife_edge, "at-zero": _at_zero}


def gen_solve_mixed(rng: random.Random):
    while True:
        block = [_MIXED_MAKERS[cat](rng) for cat, n in MIXED_BLOCK for _ in range(n)]
        rng.shuffle(block)
        yield from block


WIDEGAP_STRATA = 8
WIDEGAP_MAX_EXP = 5.0


def gen_solve_widegap(rng: random.Random):
    """Blocks of 16: eight spectra whose lower sorted gap is log-uniform in
    [1, 1e5] and eight with that gap on top instead.

    The gaps are stratified (one per decade-and-a-bit) with a per-block
    offset that follows the golden-ratio sequence, so the large-gap tail
    that dominates the run time is spread evenly whatever the seed.
    """
    offset = rng.random()
    block_no = 0
    while True:
        u = (offset + GOLDEN * block_no) % 1.0
        block = []
        for j in range(WIDEGAP_STRATA):
            big = max(1, round(10.0 ** (WIDEGAP_MAX_EXP * (j + u) / WIDEGAP_STRATA)))
            for on_top in (False, True):
                small = rng.randint(1, 12)
                low = rng.randint(-12, 12)
                gaps = (small, big) if on_top else (big, small)
                freqs = (low, low + gaps[0], low + gaps[0] + gaps[1])
                phases = tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
                block.append(_shuffled(rng, freqs, _moduli(rng), phases, "gap-on-top" if on_top else "gap-below"))
        rng.shuffle(block)
        yield from block
        block_no += 1


def gen_oracle_crosscheck(rng: random.Random):
    # verify's generic domain: tau < pi - 1e-3
    while True:
        inst = _generic(rng)
        if phase_invariant(inst.tri.frequencies, inst.tri.phases) < math.pi - 1e-3:
            yield inst


# fixed list; (-2, 0, 2), (-3, 0, 3), (-2, 0, 4) and (-4, 0, 2) are dilated (d > 1)
CONSTANT_SPECTRA = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 2), (0, 1, 3), (-3, 0, 3), (-2, 0, 4), (1, 2, 5), (-4, 0, 2))


@dataclass(frozen=True)
class ConstantsOp:
    kind: str  # "sidon" or "multiplier"
    frequencies: tuple[int, int, int]
    multiplier: Multiplier | None


def gen_constants_search(rng: random.Random):
    """For each spectrum of the fixed list: a Sidon op, then two multiplier
    ops with seeded phases.

    The list is walked in order, so the first op (the warm-up) is the same
    for every seed.  Two multiplier ops per Sidon op put the median latency
    inside the multiplier ops' cluster rather than on the gap between the
    two kinds (a Sidon search makes 601 ``brute_max`` calls, a multiplier
    search 1202).
    """
    while True:
        for freqs in CONSTANT_SPECTRA:
            yield ConstantsOp("sidon", freqs, None)
            for _ in range(2):
                yield ConstantsOp("multiplier", freqs, Multiplier(*(rng.uniform(0.0, TWO_PI) for _ in range(3))))


@dataclass(frozen=True)
class Family:
    k: int
    l: int
    moduli: tuple[float, float, float]
    d: int
    phases: tuple[float, float, float]

    @property
    def frequencies(self) -> tuple[int, int, int]:
        return (-self.k * self.d, 0, self.l * self.d)


def gen_structure_sweep(rng: random.Random):
    # moduli in [0.2, 5]: the classification's zero counting is tuned for moderate ratios
    while True:
        pairs = list(COPRIME)
        rng.shuffle(pairs)
        for k, l in pairs:
            phases = tuple(rng.uniform(0.0, TWO_PI) for _ in range(3))
            yield Family(k, l, _moduli(rng, 0.2, 5.0), rng.choice((1, 2)), phases)


# ------------------------------------------------------------------ ops


def op_solve(inst: Instance):
    return maxmod.max_points_global(inst.tri)


def op_crosscheck(inst: Instance):
    return maxmod.max_points_global(inst.tri), oracle.brute_max(inst.tri, ORACLE_GRID)


def op_constants(c: ConstantsOp):
    if c.kind == "sidon":
        expected, witness = constants.sidon_constant(c.frequencies)
        got = oracle.brute_sidon(c.frequencies, grid_phases=128, simplex_n=24, grid_n=ORACLE_GRID)
    else:
        expected, witness = constants.multiplier_norm(c.frequencies, c.multiplier)
        got = oracle.brute_multiplier_norm(c.frequencies, c.multiplier)
    return expected, witness, got


SWEEP_N = 64
CURVE_N = 512


def _normalised_point(freqs, moduli, phases):
    sup = maxmod.max_points_global(Trinomial(*freqs, *moduli, *phases)).value
    return extremal.unit_ball_point(freqs, tuple(r / sup for r in moduli), phases)


def op_structure(f: Family):
    k, l = f.k, f.l
    rows = phasecurves.sweep_rows(k, l, *f.moduli, n=SWEEP_N)
    witness = _normalised_point(f.frequencies, (float(l), float(k + l), float(k)), (0.0, math.pi / (k + l), 0.0))
    generic = _normalised_point(f.frequencies, f.moduli, f.phases)
    cls_witness = extremal.classify_unit_ball_point(witness)
    cls_generic = extremal.classify_unit_ball_point(generic)
    tri = Trinomial(*f.frequencies, *f.moduli, *f.phases)
    curve = geometry.hypotrochoid_sample(tri, CURVE_N)
    far = geometry.farthest_points(tri)
    return rows, cls_witness, cls_generic, curve, far


# --------------------------------------------------------------- checks


def _terms(tri: Trinomial):
    return tuple(zip(tri.frequencies, tri.moduli, tri.phases))


def modulus(tri: Trinomial, x: float) -> float:
    return abs(sum(r * cmath.exp(1j * (t + f * x)) for f, r, t in _terms(tri)))


def squared_modulus_derivatives(tri: Trinomial, x: float) -> tuple[float, float, float, float]:
    """(g', g'', S1, S2) for g = |T|^2, with the scales S1 = sum 2*ri*rj*|gap|
    and S2 = sum 2*ri*rj*gap^2 that bound |g'| and |g''|."""
    g1 = g2 = s1 = s2 = 0.0
    terms = _terms(tri)
    for a in range(3):
        for b in range(a + 1, 3):
            (fa, ra, ta), (fb, rb, tb) = terms[a], terms[b]
            w, gap = 2.0 * ra * rb, fa - fb
            arg = (ta - tb) + gap * x
            g1 -= w * gap * math.sin(arg)
            g2 -= w * gap * gap * math.cos(arg)
            s1 += w * abs(gap)
            s2 += w * gap * gap
    return g1, g2, s1, s2


def grid_max(tri: Trinomial, n: int = 1024) -> float:
    d, _, _ = _sorted_gaps(tri.frequencies)
    xs = np.arange(n) * (TWO_PI / d / n)
    return float(np.abs(sum(r * np.exp(1j * (t + f * xs)) for f, r, t in _terms(tri))).max())


def solve_check(inst: Instance, res) -> list[str]:
    """Oracle-free checks of a max_points_global result.

    At every reported point: |T(x)| equals the reported value, |T|^2 is
    stationary relative to its derivative scale, and its second derivative
    is not positive.  No sample of |T| on a 1024-point grid exceeds the
    value, and a symmetric pair satisfies x + y = s.
    """
    tri = inst.tri
    errors = []
    total = sum(tri.moduli)
    for x, v in res.points:
        m = modulus(tri, x)
        if abs(m - v) > VALUE_TOL * total:
            errors.append(f"value: |T({x!r})| = {m!r} but {v!r} reported")
        g1, g2, s1, s2 = squared_modulus_derivatives(tri, x)
        if abs(g1) > STATIONARY_TOL * s1:
            errors.append(f"stationarity: (|T|^2)'({x!r}) = {g1:.3e}, scale {s1:.3e}")
        if g2 > CONCAVE_TOL * s2:
            errors.append(f"concavity: (|T|^2)''({x!r}) = {g2:.3e}, scale {s2:.3e}")
    sampled = grid_max(tri)
    if sampled > res.value * (1.0 + GRID_TOL):
        errors.append(f"global: a grid sample {sampled!r} exceeds the reported maximum {res.value!r}")
    if len(res.points) == 2:
        d, _, _ = _sorted_gaps(tri.frequencies)
        (x, _), (y, _) = res.points
        if res.s is None or abs(math.remainder(x + y - res.s, TWO_PI / d)) > AXIS_TOL:
            errors.append(f"axis: x + y = {x + y!r} but s = {res.s!r}")
    return errors


def crosscheck_disagreements(inst: Instance, res) -> list[str]:
    """Which of verify's agreement rules the pair breaks: one point each
    ("count"), value within 1e-9 relative ("value"), argmax within 1e-6
    ("argmax")."""
    analytic, report = res
    if len(analytic.points) != 1 or len(report.argmaxes) != 1:
        return ["count"]
    kinds = []
    if abs(analytic.value - report.value) / report.value > ORACLE_VALUE_TOL:
        kinds.append("value")
    d, _, _ = _sorted_gaps(inst.tri.frequencies)
    if abs(math.remainder(analytic.points[0][0] - report.argmaxes[0], TWO_PI / d)) > ORACLE_ARGMAX_TOL:
        kinds.append("argmax")
    return kinds


def crosscheck_check(inst: Instance, res) -> list[str]:
    """The analytic result fails when it breaks verify's agreement rules and
    the oracle's answer is not shown to be the weaker one.

    The oracle's golden-section search resolves the argmax only to about
    sqrt(2*eps*|T|/|T''|), which exceeds verify's 1e-6 where one modulus
    dominates and the maximum is flat.  A value or argmax disagreement
    therefore fails the op unless the analytic point passes the oracle-free
    solve checks and is at least as high as the oracle's point; either way
    it is counted in ``oracle.disagreements``.
    """
    analytic, report = res
    kinds = crosscheck_disagreements(inst, res)
    if "count" in kinds:
        return [f"count: analytic {len(analytic.points)} points, oracle {len(report.argmaxes)}"]
    if not kinds:
        return []
    errors = solve_check(inst, analytic)
    x_oracle = report.argmaxes[0]
    if modulus(inst.tri, analytic.points[0][0]) < modulus(inst.tri, x_oracle):
        errors.append(f"{'/'.join(kinds)}: the oracle's point {x_oracle!r} is higher than the analytic one")
    return errors


def constants_check(c: ConstantsOp, res) -> list[str]:
    expected, witness, got = res
    errors = []
    if constants_disagreements(c, res):
        errors.append(f"value: brute {c.kind} {got!r} vs formula {expected!r}")
    if abs(witness.attained - expected) > 1e-9 * expected:
        errors.append(f"witness: attains {witness.attained!r}, constant {expected!r}")
    return errors


def constants_disagreements(c: ConstantsOp, res) -> list[str]:
    expected, _, got = res
    return ["value"] if abs(got - expected) > CONSTANT_TOL else []


def structure_check(f: Family, res) -> list[str]:
    rows, cls_witness, cls_generic, curve, far = res
    errors = []
    for a, b in zip(rows, rows[1:]):
        if b.fstar > a.fstar * (1.0 + 1e-12):
            errors.append(f"monotone: fstar rises from {a.fstar!r} to {b.fstar!r} at tau {b.tau!r}")
            break
    total = sum(f.moduli)
    for row in rows:
        if row.fstar / total < math.cos(row.tau / (2.0 * (f.k + f.l))) - 1e-12:
            errors.append(f"cosine bound: fstar/(r1+r2+r3) = {row.fstar / total!r} at tau {row.tau!r}")
            break
    # pinned by the acceptance and extremal tests: the extremal witness is
    # exposed and extreme with two maximum points and zero multiplicity 4,
    # a generic point neither, with one point and multiplicity 2
    ev_w, ev_g = cls_witness.evidence, cls_generic.evidence
    if not (cls_witness.exposed and cls_witness.extreme and (ev_w.max_point_count, ev_w.zero_multiplicity_sum) == (2, 4)):
        errors.append(f"witness classification: {cls_witness}")
    if cls_generic.exposed or cls_generic.extreme or (ev_g.max_point_count, ev_g.zero_multiplicity_sum) != (1, 2):
        errors.append(f"generic classification: {cls_generic}")
    if len(curve.samples) != CURVE_N:
        errors.append(f"curve: {len(curve.samples)} samples, asked for {CURVE_N}")
    tri = Trinomial(*f.frequencies, *f.moduli, *f.phases)
    x0, z0 = curve.samples[0]
    r1, _, r3 = f.moduli
    t1, _, t3 = f.phases
    want = r1 * cmath.exp(1j * (t1 - f.k * f.d * x0)) + r3 * cmath.exp(1j * (t3 + f.l * f.d * x0))
    if abs(z0 - want) > 1e-12 * total:
        errors.append(f"curve: point {z0!r} at {x0!r}, expected {want!r}")
    top = maxmod.max_points_global(tri).value
    for x, dist in far:
        if abs(dist - top) > 1e-12 * top:
            errors.append(f"farthest: distance {dist!r} at {x!r}, maximum modulus {top!r}")
    return errors


# ------------------------------------------------------------- describing


def _spread(moduli) -> float:
    return math.log10(max(moduli) / min(moduli))


def _solve_properties(pool) -> list[str]:
    cats = Counter(inst.category for inst in pool)
    lower_gaps = [b - a for a, b, _ in (sorted(i.tri.frequencies) for i in pool)]
    spreads = [_spread(i.tri.moduli) for i in pool]
    mix = ", ".join(f"{c} {100.0 * n / len(pool):.1f}%" for c, n in sorted(cats.items()))
    return [
        f"built as: {mix}",
        f"lower sorted gap > 1e3: {100.0 * sum(g > 1e3 for g in lower_gaps) / len(pool):.1f}%"
        f" (max {max(lower_gaps)})",
        f"moduli spread log10(max/min): median {statistics.median(spreads):.2f}, max {max(spreads):.2f}",
    ]


def _constants_properties(pool) -> list[str]:
    gaps = {c.frequencies: _sorted_gaps(c.frequencies) for c in pool}
    return [
        "spectra: " + "; ".join(f"{f} d={d} D={k + l}" for f, (d, k, l) in gaps.items()),
        f"dilated (d > 1): {sum(d > 1 for d, _, _ in gaps.values())} of {len(gaps)}",
    ]


def _structure_properties(pool) -> list[str]:
    spreads = [_spread(f.moduli) for f in pool]
    pairs = sorted({(f.k, f.l) for f in pool})
    return [
        f"(k, l) pairs: {pairs}; dilated share {100.0 * sum(f.d > 1 for f in pool) / len(pool):.1f}%",
        f"moduli spread log10(max/min): median {statistics.median(spreads):.2f}, max {max(spreads):.2f}",
    ]


def solve_branches(res) -> list[str]:
    return [res.classification.name.lower()]


def crosscheck_branches(res) -> list[str]:
    return [res[0].classification.name.lower()]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # random.Random -> iterator of inputs
    op: Callable
    check: Callable
    describe: Callable
    branches: Callable | None  # result -> classifications, for solve workloads
    disagreements: Callable | None  # (input, result) -> broken oracle agreement rules
    pool: int  # inputs generated; the loop cycles through them
    warmup: int  # untimed ops before the first timed op
    tail_pct: float  # percentile reported as op_tail_us (see METRICS.md for the choice)
    trace_ops_per_s: float  # traced-run op count per --seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-mixed",
            gen_solve_mixed, op_solve, solve_check, _solve_properties, solve_branches, None,
            pool=4000, warmup=200, tail_pct=95.0, trace_ops_per_s=1250.0,
        ),
        Workload(
            "solve-widegap",
            gen_solve_widegap, op_solve, solve_check, _solve_properties, solve_branches, None,
            pool=4096, warmup=16, tail_pct=99.0, trace_ops_per_s=100.0,
        ),
        Workload(
            "oracle-crosscheck",
            gen_oracle_crosscheck, op_crosscheck, crosscheck_check, _solve_properties, crosscheck_branches,
            crosscheck_disagreements,
            pool=4096, warmup=50, tail_pct=95.0, trace_ops_per_s=400.0,
        ),
        Workload(
            "constants-search",
            gen_constants_search, op_constants, constants_check, _constants_properties, None,
            constants_disagreements,
            pool=24, warmup=1, tail_pct=50.0, trace_ops_per_s=0.4,
        ),
        Workload(
            "structure-sweep",
            gen_structure_sweep, op_structure, structure_check, _structure_properties, None, None,
            pool=600, warmup=2, tail_pct=90.0, trace_ops_per_s=8.0,
        ),
    )
}


def trace_bindings():
    """(module, attribute, span name, observer) for every call into a layer.

    Each binding of a public function in an importing module's namespace
    gets its own wrapper.  ``evaluate`` and ``modulus_at`` are left alone:
    they run thousands of times inside the golden-section loops; oracle work
    is counted from ``OracleReport.evaluations`` instead.
    """

    def evaluations(report, counters):
        counters["oracle.brute_max.evaluations"] += report.evaluations

    def rows(result, counters):
        counters["phasecurves.rows"] += len(result)

    return [
        (maxmod, "canonical_reduction", "spectrum.canonical_reduction", None),
        (maxmod, "find_max_reduced", "maxmod.find_max_reduced", None),
        (phasecurves, "find_max_reduced", "maxmod.find_max_reduced", None),
        (maxmod, "max_points_global", "maxmod.max_points_global", None),
        (oracle, "max_points_global", "maxmod.max_points_global", None),
        (constants, "max_points_global", "maxmod.max_points_global", None),
        (extremal, "max_points_global", "maxmod.max_points_global", None),
        (geometry, "max_points_global", "maxmod.max_points_global", None),
        (oracle, "brute_max", "oracle.brute_max", evaluations),
        (oracle, "brute_sidon", "oracle.brute_sidon", None),
        (oracle, "brute_multiplier_norm", "oracle.brute_multiplier_norm", None),
        (constants, "sidon_constant", "constants.sidon_constant", None),
        (constants, "multiplier_norm", "constants.multiplier_norm", None),
        (phasecurves, "sweep_rows", "phasecurves.sweep_rows", rows),
        (extremal, "classify_unit_ball_point", "extremal.classify_unit_ball_point", None),
        (geometry, "hypotrochoid_sample", "geometry.hypotrochoid_sample", None),
        (geometry, "farthest_points", "geometry.farthest_points", None),
    ]
