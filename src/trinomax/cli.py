"""Command-line surface: analyze | sidon | multiplier | sweep | hypotrochoid | verify.

Each command builds its results and their text form; one writer, _emit,
prints the JSON envelope under --json and the text otherwise.  The text is a
table, or CSV for sweep, hypotrochoid and analyze --csv (--csv is the default
of sweep and hypotrochoid, so there it only spells it out).
Angles are radians unless --degrees is passed; output is always radians.
JSON output uses Python's shortest round-trip float formatting (17
significant digits where needed); human tables show 9 significant digits.
Exit codes: 0 ok, 2 invalid input, 3 verification failure (including a
BracketFailure of the root finder).  No colour is ever emitted, so NO_COLOR
is honoured trivially; no network access and no environment variables are
required.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .constants import lift_to_measure, multiplier_norm, sidon_constant
from .geometry import farthest_points, hypotrochoid_sample
from .maxmod import BracketFailure, MaxResult, max_points_global
from .oracle import (
    _constant_agreement,
    agreement,
    brute_max,
    brute_multiplier_norm,
    brute_sidon,
    run_verification,
)
from .phasecurves import sweep_rows
from .spectrum import (
    Multiplier,
    SpectrumError,
    Trinomial,
    canonical_reduction,
    spectrum_geometry,
)

SCHEMA_VERSION = 1
_EXIT_OK = 0
_EXIT_BAD_INPUT = 2
_EXIT_VERIFY_FAILED = 3


def _require_finite(obj, path="results"):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise SpectrumError(f"non-finite value at {path}: {obj}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _require_finite(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _require_finite(value, f"{path}[{i}]")


def _emit(args, results: dict, text: str, ok: bool = True) -> int:
    """Print ``results`` in the JSON envelope under --json, else ``text``;
    return the exit code, 0 or, when ``ok`` is false, 3."""
    if args.json:
        _require_finite(results)
        print(json.dumps({
            "schemaVersion": SCHEMA_VERSION,
            "toolVersion": __version__,
            "command": args.command,
            "seed": getattr(args, "seed", None),
            "input": _input_echo(args),
            "results": results,
        }, indent=2))
    else:
        sys.stdout.write(text)
    return _EXIT_OK if ok else _EXIT_VERIFY_FAILED


def _g9(value: float) -> str:
    return f"{value:.9g}"


def _table(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)


def _csv(header: list[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _phases(args) -> tuple[float, float, float]:
    p = tuple(args.phases) if args.phases is not None else (0.0, 0.0, 0.0)
    if getattr(args, "degrees", False):
        p = tuple(math.radians(v) for v in p)
    return p


def _trinomial_from_args(args) -> Trinomial:
    return Trinomial(*args.frequencies, *args.moduli, *_phases(args))


def _max_result_dict(res: MaxResult) -> dict:
    return {
        "points": [{"x": x, "value": v} for x, v in res.points],
        "multiplicity": res.multiplicity,
        "classification": res.classification.value,
        "s": res.s,
    }


def _cmd_analyze(args) -> int:
    trinomial = _trinomial_from_args(args)
    res = max_points_global(trinomial)
    red = res.reduction
    geo = red.geometry
    results = {
        "spectrum": {"d": geo.d, "k": geo.k, "l": geo.l, "m": geo.m, "D": geo.D, "tau": red.tau},
        "reduced": asdict(red.form),
        "transcript": {
            "sortPermutation": list(geo.perm),
            "alpha": red.alpha,
            "v": red.v,
            "epsilon": red.epsilon,
            "swapped": red.swapped,
            "homothety": geo.d,
        },
        "max": _max_result_dict(res),
    }
    rows = [
        ("tau", _g9(red.tau)),
        ("d / k / l / D", f"{geo.d} / {geo.k} / {geo.l} / {geo.D}"),
        ("reduced t", _g9(red.form.t)),
        ("max modulus", _g9(res.value)),
        ("classification", res.classification.value),
        ("multiplicity", str(res.multiplicity)),
    ]
    for i, (x, v) in enumerate(res.points):
        rows.append((f"point {i + 1}", f"x = {_g9(x)}  |T| = {_g9(v)}"))
    if res.s is not None:
        rows.append(("symmetry axis s", _g9(res.s)))
    verified_ok = True
    if args.verify:
        report = brute_max(trinomial)
        agreed = agreement(res, report)
        verified_ok = agreed.ok
        results["oracle"] = {
            "value": report.value,
            "argmaxes": list(report.argmaxes),
            "gridSize": report.grid_size,
            "evaluations": report.evaluations,
            "valueError": agreed.value_error,
            "agreement": verified_ok,
        }
        rows.append(("oracle agreement", str(verified_ok)))
    header = ["x", "value", "multiplicity", "classification"]
    points = ((x, v, res.multiplicity, res.classification.value) for x, v in res.points)
    text = _csv(header, points) if args.csv else _table(rows)
    return _emit(args, results, text, verified_ok)


def _report_constant(args, key: str, search, results: dict, rows: list) -> int:
    """Emit a constant's results and table rows.  Under --verify the brute
    ``search()`` is held against the formula's ``results[key]`` in an
    "oracle" block, and a disagreement exits 3."""
    verified_ok = True
    if args.verify:
        empirical = search()
        _, verified_ok = _constant_agreement(empirical, results[key])
        results["oracle"] = {key: empirical, "agreement": verified_ok}
        rows += [(f"oracle {key}", _g9(empirical)), ("oracle agreement", str(verified_ok))]
    return _emit(args, results, _table(rows), verified_ok)


def _cmd_sidon(args) -> int:
    freqs = tuple(args.frequencies)
    constant, witness = sidon_constant(freqs)
    results = {"constant": constant, "witness": witness._asdict()}
    rows = [("sidon constant", _g9(constant))]
    return _report_constant(args, "constant", lambda: brute_sidon(freqs), results, rows)


def _cmd_multiplier(args) -> int:
    freqs = tuple(args.frequencies)
    mult = Multiplier(*_phases(args))
    norm, witness = multiplier_norm(freqs, mult)
    geo = spectrum_geometry(freqs)
    tau = abs(geo.signed_tau(mult.phases))
    lift = lift_to_measure(geo.k, geo.l, tau / geo.D)
    results = {
        "norm": norm,
        "tau": tau,
        "D": geo.D,
        "witness": witness._asdict(),
        "measureLift": {
            "atom0": {"re": lift.atom0.real, "im": lift.atom0.imag, "abs": abs(lift.atom0)},
            "atom1": {"re": lift.atom1.real, "im": lift.atom1.imag, "abs": abs(lift.atom1)},
            "position0": lift.position0,
            "position1": lift.position1,
            "totalVariation": lift.total_variation,
        },
    }
    rows = [
        ("multiplier norm", _g9(norm)),
        ("tau", _g9(tau)),
        ("measure atoms", f"|a0| = {_g9(abs(lift.atom0))}  |a1| = {_g9(abs(lift.atom1))}"),
        ("total variation", _g9(lift.total_variation)),
    ]
    # the search sees the spectrum and the multiplier only, never the witness
    return _report_constant(args, "norm", lambda: brute_multiplier_norm(freqs, mult), results, rows)


def _cmd_sweep(args) -> int:
    trinomial = Trinomial(*args.frequencies, *args.moduli)
    form = canonical_reduction(trinomial).form
    rows = sweep_rows(form.k, form.l, form.r1, form.r2, form.r3, args.n)
    text = _csv(["tau", "t", "fstar", "ratio", "bound"], rows)
    return _emit(args, {"rows": [row._asdict() for row in rows]}, text)


def _cmd_hypotrochoid(args) -> int:
    trinomial = _trinomial_from_args(args)
    curve = hypotrochoid_sample(trinomial, args.n)
    farthest = farthest_points(trinomial)
    results = {
        "cuspCount": curve.cusp_count,
        "closed": curve.closed,
        "samples": [{"x": x, "re": z.real, "im": z.imag} for x, z in curve.samples],
        "farthest": [{"x": x, "distance": dist} for x, dist in farthest],
    }
    text = _csv(["x", "re", "im"], ((x, z.real, z.imag) for x, z in curve.samples))
    return _emit(args, results, text)


def _cmd_verify(args) -> int:
    rows = run_verification(args.seed, args.count)
    failed = sum(row.failures for row in rows)
    results = {
        "rows": [row._asdict() for row in rows],
        "failures": failed,
    }
    table = [("suite", "checked  failures  worst error")] + [
        (row.name, f"{str(row.checked).rjust(7)}  {str(row.failures).rjust(8)}  {_g9(row.worst_error)}")
        for row in rows
    ]
    return _emit(args, results, _table(table) + f"total failures: {failed}\n", failed == 0)


def _input_echo(args) -> dict:
    echo: dict = {}
    for key in ("frequencies", "moduli", "phases"):
        if getattr(args, key, None) is not None:
            echo[key] = list(getattr(args, key))
    if getattr(args, "degrees", False):
        echo["degrees"] = True
    for key in ("n", "seed", "count"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    return echo


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinomax",
        description="Maximum-modulus analysis of trigonometric trinomials",
    )
    parser.add_argument("--version", action="version", version=f"trinomax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spectrum(p, moduli=True, phases=True):
        p.add_argument("-l", "--frequencies", dest="frequencies", type=int, nargs=3,
                       required=True, metavar=("L1", "L2", "L3"))
        if moduli:
            p.add_argument("-r", "--moduli", dest="moduli", type=float, nargs=3,
                           required=True, metavar=("R1", "R2", "R3"))
        if phases:
            p.add_argument("-p", "--phases", dest="phases", type=float, nargs=3,
                           metavar=("T1", "T2", "T3"))
            p.add_argument("--degrees", action="store_true",
                           help="interpret input phases in degrees (output stays radians)")

    def add_format(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")

    p = sub.add_parser("analyze", help="spectrum stats, reduction and maximum points")
    add_spectrum(p)
    add_format(p)
    p.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sidon", help="Sidon constant of the spectrum with its witness")
    add_spectrum(p, moduli=False, phases=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true", help="compare against the brute-force search")
    p.set_defaults(func=_cmd_sidon)

    p = sub.add_parser("multiplier", help="norm of a unimodular phase multiplier")
    add_spectrum(p, moduli=False)
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true", help="compare against the brute-force search")
    p.set_defaults(func=_cmd_multiplier)

    p = sub.add_parser("sweep", help="maximum modulus as the phase invariant sweeps [0, pi]")
    add_spectrum(p, phases=False)
    p.add_argument("--n", type=int, default=64)
    add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("hypotrochoid", help="sample the outer-coefficient curve")
    add_spectrum(p)
    p.add_argument("--n", type=int, default=512)
    add_format(p)
    p.set_defaults(func=_cmd_hypotrochoid)

    p = sub.add_parser("verify", help="run the oracle-agreement suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectrumError, BracketFailure) as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": {"message": str(exc), "command": args.command}}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_INPUT if isinstance(exc, SpectrumError) else _EXIT_VERIFY_FAILED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
