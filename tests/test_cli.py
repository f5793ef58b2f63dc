import dataclasses
import json
import math

import pytest

from trinomax import cli, maxmod
from trinomax.cli import main
from trinomax.maxmod import BracketFailure
from trinomax.oracle import VerificationRow

PI_HALF = "1.5707963267948966"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_extremal_function_json(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "-1", "0", "1", "-r", "1", "2", "1",
            "-p", "0", PI_HALF, "0", "--json",
        )
        assert code == 0
        body = json.loads(out)
        assert body["schemaVersion"] == 1
        assert body["command"] == "analyze"
        res = body["results"]
        assert res["spectrum"]["tau"] == pytest.approx(math.pi)
        points = res["max"]["points"]
        assert len(points) == 2
        assert points[0]["x"] == pytest.approx(0.0)
        assert points[1]["x"] == pytest.approx(math.pi)
        assert points[0]["value"] == pytest.approx(2 * math.sqrt(2))

    def test_aligned_phases(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "2", "5", "11", "-r", "1", "1", "1", "--json"
        )
        assert code == 0
        body = json.loads(out)
        assert body["results"]["spectrum"]["tau"] == pytest.approx(0.0)
        assert len(body["results"]["max"]["points"]) == 1

    def test_verify_flag_agrees(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "-2", "0", "1", "-r", "4", "1", "1",
            "-p", "0", "1.0471975511965976", "0", "--json", "--verify",
        )
        assert code == 0
        body = json.loads(out)
        assert body["results"]["oracle"]["agreement"] is True

    def test_verify_grid_follows_the_frequency_diameter(self, capsys):
        # D = 3000 needs 8 * D points, rounded up to 2**15
        code, out = run(
            capsys, "analyze", "-l", "0", "1", "3000", "-r", "1", "2", "3",
            "-p", "0.1", "0.2", "0.3", "--json", "--verify",
        )
        assert code == 0
        oracle = json.loads(out)["results"]["oracle"]
        assert oracle["agreement"] is True
        assert oracle["gridSize"] == 32768

    def test_verify_past_the_largest_grid_is_invalid_input(self, capsys):
        code, out = run(capsys, "analyze", "-l", "0", "1", "200000", "-r", "1", "2", "3", "--json", "--verify")
        assert code == 2
        assert "needs an oracle grid of 2097152 points" in json.loads(out)["error"]["message"]

    def test_degrees_flag(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "-1", "0", "1", "-r", "1", "2", "1",
            "-p", "0", "90", "0", "--degrees", "--json",
        )
        assert code == 0
        body = json.loads(out)
        assert body["results"]["spectrum"]["tau"] == pytest.approx(math.pi)

    def test_csv_output(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "-1", "0", "1", "-r", "1", "2", "1",
            "-p", "0", PI_HALF, "0", "--csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value,multiplicity,classification"
        assert len(lines) == 3

    def test_json_round_trip_is_byte_identical(self, capsys):
        args = ("analyze", "-l", "-3", "1", "4", "-r", "0.5", "2", "1.5",
                "-p", "0.3", "1.1", "2.9", "--json")
        _, first = run(capsys, *args)
        echo = json.loads(first)["input"]
        rebuilt = (
            "analyze",
            "-l", *(str(v) for v in echo["frequencies"]),
            "-r", *(repr(v) for v in echo["moduli"]),
            "-p", *(repr(v) for v in echo["phases"]),
            "--json",
        )
        _, second = run(capsys, *rebuilt)
        assert json.loads(first)["results"] == json.loads(second)["results"]

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_verify_disagreement_exits_3(self, capsys, monkeypatch, fmt):
        brute_max = cli.brute_max

        def off_value(trinomial):
            report = brute_max(trinomial)
            return dataclasses.replace(report, value=2 * report.value)

        monkeypatch.setattr(cli, "brute_max", off_value)
        code, out = run(capsys, "analyze", "-l", "-2", "0", "1", "-r", "4", "1", "1", "--verify", *fmt)
        assert code == 3
        if fmt:
            oracle = json.loads(out)["results"]["oracle"]
            assert oracle["agreement"] is False
            assert oracle["valueError"] == pytest.approx(0.5)
        else:
            assert "oracle agreement  False" in out

    def test_invalid_spectrum_exits_2(self, capsys):
        code = main(["analyze", "-l", "1", "1", "2", "-r", "1", "1", "1"])
        capsys.readouterr()
        assert code == 2

    def test_invalid_spectrum_json_error_body(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "1", "1", "2", "-r", "1", "1", "1", "--json"
        )
        assert code == 2
        assert "error" in json.loads(out)

    def test_bracket_failure_exits_3_with_json_error_body(self, capsys, monkeypatch):
        def fail(trinomial):
            raise BracketFailure("endpoint derivative signs violate the bracket: injected")

        monkeypatch.setattr(cli, "max_points_global", fail)
        code, out = run(
            capsys, "analyze", "-l", "-1", "0", "1", "-r", "1", "2", "1", "--json"
        )
        assert code == 3
        assert json.loads(out) == {
            "error": {
                "message": "endpoint derivative signs violate the bracket: injected",
                "command": "analyze",
            }
        }

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_points_outside_the_localization_interval_exit_3(self, capsys, monkeypatch, fmt):
        endpoints = maxmod._localization_endpoints
        monkeypatch.setattr(maxmod, "_localization_endpoints", lambda tri: tuple(e + 1.0 for e in endpoints(tri)))
        code, out = run(
            capsys, "analyze", "-l", "-1", "0", "2", "-r", "1.0", "1.5", "1.2", "-p", "0.3", "1.1", "2.0", *fmt
        )
        assert code == 3
        if fmt:
            assert "escape the localization interval" in json.loads(out)["error"]["message"]


class TestSidon:
    def test_symmetric_spectrum(self, capsys):
        code, out = run(capsys, "sidon", "-l", "-1", "0", "1", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["results"]["constant"] == pytest.approx(math.sqrt(2), rel=1e-15)
        assert body["results"]["witness"]["moduli"] == [1.0, 2.0, 1.0]

    def test_human_output(self, capsys):
        code, out = run(capsys, "sidon", "-l", "-1", "0", "1")
        assert code == 0
        assert "1.41421356" in out

    def test_non_finite_result_is_invalid_input(self, capsys, monkeypatch):
        sidon_constant = cli.sidon_constant
        monkeypatch.setattr(cli, "sidon_constant", lambda freqs: (math.inf, sidon_constant(freqs)[1]))
        code, out = run(capsys, "sidon", "-l", "-1", "0", "1", "--json")
        assert code == 2
        assert json.loads(out) == {
            "error": {"message": "non-finite value at results.constant: inf", "command": "sidon"}
        }


class TestMultiplier:
    def test_quarter_turn(self, capsys):
        code, out = run(
            capsys, "multiplier", "-l", "-1", "0", "1", "-p", "0", PI_HALF, "0", "--json"
        )
        assert code == 0
        body = json.loads(out)
        res = body["results"]
        assert res["norm"] == pytest.approx(math.sqrt(2), rel=1e-14)
        assert res["measureLift"]["atom0"]["abs"] == pytest.approx(1 / math.sqrt(2))
        assert res["measureLift"]["atom1"]["abs"] == pytest.approx(1 / math.sqrt(2))
        assert res["measureLift"]["totalVariation"] == pytest.approx(math.sqrt(2))

    def test_verify_agrees(self, capsys):
        code, out = run(capsys, "multiplier", "-l", "-1", "0", "2", "-p", "0", PI_HALF, "0", "--verify")
        assert code == 0
        assert "oracle agreement  True" in out

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_verify_disagreement_exits_3(self, capsys, monkeypatch, fmt):
        def off_by_one(freqs, mult):
            return cli.multiplier_norm(freqs, mult)[0] + 1

        monkeypatch.setattr(cli, "brute_multiplier_norm", off_by_one)
        code, out = run(capsys, "multiplier", "-l", "-1", "0", "2", "-p", "0", PI_HALF, "0", "--verify", *fmt)
        assert code == 3
        if fmt:
            res = json.loads(out)["results"]
            assert res["oracle"] == {"norm": res["norm"] + 1, "agreement": False}
        else:
            assert "oracle agreement  False" in out


class TestSweep:
    def test_csv_header_and_monotone_rows(self, capsys):
        code, out = run(capsys, "sweep", "-l", "-1", "0", "2", "-r", "1", "1", "1", "--n", "16")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,t,fstar,ratio,bound"
        assert len(lines) == 17
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_json_mode(self, capsys):
        code, out = run(
            capsys, "sweep", "-l", "-1", "0", "2", "-r", "1", "1", "1",
            "--n", "8", "--json",
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 8
        assert rows[0]["tau"] == 0.0


class TestHypotrochoid:
    def test_csv_points(self, capsys):
        code, out = run(
            capsys, "hypotrochoid", "-l", "-2", "0", "1", "-r", "4", "1", "1", "--n", "32"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,re,im"
        assert len(lines) == 33

    def test_json_includes_cusps_and_farthest(self, capsys):
        code, out = run(
            capsys, "hypotrochoid", "-l", "-2", "0", "1",
            "-r", "0.3333333333333333", "1", "0.6666666666666666",
            "--n", "32", "--json",
        )
        assert code == 0
        body = json.loads(out)["results"]
        assert body["cuspCount"] == 3
        assert len(body["samples"]) == 32
        assert len(body["farthest"]) in (1, 2)


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "verify", "--seed", "7", "--count", "60", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["seed"] == 7
        assert body["results"]["failures"] == 0

    def test_human_table(self, capsys):
        code, out = run(capsys, "verify", "--seed", "7", "--count", "50")
        assert code == 0
        assert "total failures: 0" in out

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_a_failing_row_exits_3(self, capsys, monkeypatch, fmt):
        rows = [VerificationRow("passing suite", 5, 0, 0.0), VerificationRow("failing suite", 5, 1, 0.5)]
        monkeypatch.setattr(cli, "run_verification", lambda seed, count: rows)
        code, out = run(capsys, "verify", "--count", "5", *fmt)
        assert code == 3
        if fmt:
            assert json.loads(out)["results"]["failures"] == 1
        else:
            assert out.splitlines()[-1] == "total failures: 1"

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_count_below_one_is_invalid_input(self, capsys, count):
        code, out = run(capsys, "verify", "--count", count, "--json")
        assert code == 2
        assert json.loads(out) == {
            "error": {"message": f"count must be at least 1, got {count}", "command": "verify"}
        }


class TestOneSolvePerAnswer:
    def test_analyze_reduces_once(self, capsys, monkeypatch):
        from trinomax import maxmod

        calls = []
        reduce = maxmod.canonical_reduction

        def counted(trinomial):
            calls.append(trinomial)
            return reduce(trinomial)

        monkeypatch.setattr(maxmod, "canonical_reduction", counted)
        monkeypatch.setattr(cli, "canonical_reduction", counted)
        code, out = run(
            capsys, "analyze", "-l", "-3", "1", "4", "-r", "0.5", "2", "1.5",
            "-p", "0.3", "1.1", "2.9", "--json", "--verify",
        )
        assert code == 0
        assert json.loads(out)["results"]["oracle"]["agreement"] is True
        assert len(calls) == 1

    def test_large_common_offset_verifies(self, capsys):
        code, out = run(
            capsys, "analyze", "-l", "1000000000", "1000000001", "1000000003",
            "-r", "1", "2", "3", "-p", "0.1", "0.2", "0.3", "--json", "--verify",
        )
        assert code == 0
        oracle = json.loads(out)["results"]["oracle"]
        assert oracle["agreement"] is True
        assert oracle["valueError"] <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "-l", "-1", "0", "1", "-r", "1", "2", "1"],
        ["sweep", "-l", "-1", "0", "2", "-r", "1", "1", "1", "--n", "4"],
        ["hypotrochoid", "-l", "-1", "0", "1", "-r", "1", "2", "1", "--n", "16"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_and_csv_together_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", "--csv"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
