import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polydecomp
from polydecomp.cli import main
from polydecomp.polynomial import Polynomial, compose, format_polynomial, parse_polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompose:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "compose", "1,1,0", "1,2,0")
        assert code == 0
        assert out.strip() == "1,4,5,2,0"

    def test_identity_right_factor(self, capsys):
        code, out, _ = run(capsys, "compose", "1,0,-3,0", "1,0")
        assert code == 0
        assert out.strip() == "1,0,-3,0"

    def test_malformed_input(self, capsys):
        code, _, err = run(capsys, "compose", "1,,2", "1,0")
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "g,h,field",
        [
            ("1,nan,0", "1,1,0", "real64"),
            ("1,1e200,0", "1,1e200,0", "real64"),  # 1e400 overflows to inf
            ("1,1e400,0", "1,1,0", "complex64"),
        ],
        ids=["nan", "overflow", "complex-inf"],
    )
    def test_non_finite_rejected(self, capsys, g, h, field):
        code, out, err = run(capsys, "compose", g, h, "--field", field)
        assert code == 2
        assert not out and "finite" in err

    def test_non_monic(self, capsys):
        code, _, err = run(capsys, "compose", "2,1,0", "1,0")
        assert code == 2
        assert "monic" in err

    def test_non_original(self, capsys):
        code, _, _ = run(capsys, "compose", "1,1,5", "1,0")
        assert code == 2


class TestDecompose:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,4,5,2,0")
        assert code == 0
        assert json.loads(out) == [{"d": 2, "g": "1,1,0", "h": "1,2,0"}]

    def test_prime_degree(self, capsys):
        code, _, err = run(capsys, "decompose", "1,0,0,0,1,0")
        assert code == 3
        assert "prime" in err

    def test_prime_degree_with_divisor(self, capsys):
        code, out, err = run(capsys, "decompose", "1,0,0,0,1,0", "--d", "2")
        assert code == 3
        assert not out and "prime" in err

    def test_pure_power_two_entries(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,0,0,0,0,0,0")
        assert code == 0
        rows = json.loads(out)
        assert [r["d"] for r in rows] == [2, 3]
        assert rows[0] == {"d": 2, "g": "1,0,0", "h": "1,0,0,0"}

    def test_indecomposable_composite(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,0,0,1,0")
        assert code == 0
        assert json.loads(out) == []

    def test_explicit_divisor(self, capsys):
        code, out, _ = run(capsys, "decompose", "1,4,5,2,0", "--d", "2")
        assert code == 0
        assert json.loads(out) == [{"d": 2, "g": "1,1,0", "h": "1,2,0"}]

    def test_explicit_divisor_required_but_absent(self, capsys):
        code, out, err = run(capsys, "decompose", "1,0,0,1,0", "--d", "2")
        assert code == 3
        assert json.loads(out) == []
        assert err

    def test_bad_divisor(self, capsys):
        code, _, _ = run(capsys, "decompose", "1,4,5,2,0", "--d", "3")
        assert code == 2

    @pytest.mark.parametrize("d", ["4", "1", "0", "-2"])
    def test_non_proper_divisor_rejected(self, capsys, d):
        code, out, err = run(capsys, "decompose", "1,4,5,2,0", "--d", d)
        assert code == 2
        assert not out and "proper divisor" in err

    @pytest.mark.parametrize("f,extra", [("1,0,0,nan,0", []), ("1,0,nan,0,0", ["--d", "2"])])
    def test_non_finite_coefficient_rejected(self, capsys, f, extra):
        code, out, err = run(capsys, "decompose", f, "--field", "real64", *extra)
        assert code == 2
        assert not out and "finite" in err


class TestRoundtrip:
    def test_twenty_fixtures(self, capsys):
        rng = random.Random(999)
        for _ in range(20):
            n, d = rng.choice([(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 3)])
            e = n // d
            g = Polynomial([0] + [Fraction(rng.randint(-6, 6)) for _ in range(d - 1)] + [1])
            h = Polynomial([0] + [Fraction(rng.randint(-6, 6)) for _ in range(e - 1)] + [1])
            g_text, h_text = format_polynomial(g), format_polynomial(h)
            code, out, _ = run(capsys, "compose", g_text, h_text)
            assert code == 0
            code, out, _ = run(capsys, "decompose", out.strip(), "--d", str(d))
            assert code == 0
            rows = json.loads(out)
            assert rows == [{"d": d, "g": g_text, "h": h_text}]


class TestEstimate:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--n", "4", "--d", "2", "--eps", "0.1",
            "--samples", "20000", "--seed", "42", "--mode", "conditional",
        )
        assert code == 0
        row = json.loads(out)
        assert row["n"] == 4 and row["d"] == 2
        assert row["lower_bound"] == pytest.approx(0.081)
        assert row["upper_bound"] == pytest.approx(0.1)
        assert 0.081 - 3 * row["std_error"] - 1e-12 <= row["mean"] <= 0.1 + 3 * row["std_error"] + 1e-12

    def test_union(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--n", "6", "--union", "--eps", "0.1",
            "--samples", "50000", "--seed", "7",
        )
        assert code == 0
        row = json.loads(out)
        assert row["d"] == "union"
        assert row["lower_bound"] == pytest.approx(0.01458)
        assert row["upper_bound"] == pytest.approx(0.02)

    def test_deterministic_output(self, capsys):
        argv = ["estimate", "--n", "6", "--d", "2", "--eps", "0.15",
                "--samples", "30000", "--seed", "5", "--mode", "conditional"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_csv_sweep(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--n", "6", "--d", "2,3", "--eps", "0.05,0.1",
            "--samples", "5000", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert set(r["d"] for r in rows) == {"2", "3"}
        assert list(rows[0].keys()) == [
            "n", "d", "field", "epsilon", "B", "mode", "samples", "seed",
            "mean", "std_error", "lower_bound", "upper_bound", "cheng_bound",
        ]

    def test_eps_equal_B_rejected(self, capsys):
        code, _, err = run(
            capsys, "estimate", "--n", "4", "--d", "2", "--eps", "1", "--B", "1",
        )
        assert code == 2
        assert err

    def test_eps_above_B_names_epsilon(self, capsys):
        code, out, err = run(
            capsys, "estimate", "--n", "4", "--d", "2", "--eps", "2", "--B", "1",
        )
        assert code == 2
        assert not out and "epsilon=2.0" in err

    @pytest.mark.parametrize("B", ["inf", "1e308"])
    def test_unsampleable_box_rejected(self, capsys, B):
        code, out, err = run(
            capsys, "estimate", "--n", "6", "--d", "2", "--eps", "0.1", "--B", B,
        )
        assert code == 2
        assert not out and "B" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_section_rejected(self, capsys):
        # the mean used to print as NaN, which is not JSON, with exit 0
        code, out, err = run(
            capsys, "estimate", "--n", "12", "--d", "3", "--eps", "1e199", "--B", "1e200",
            "--field", "complex64", "--mode", "conditional",
        )
        assert code == 2
        assert not out and "B=1e+200" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(
            capsys, "estimate", "--n", "6", "--d", "2", "--eps", "0.1", "--seed", "-1",
        )
        assert code == 2
        assert not out and "seed" in err

    @pytest.mark.parametrize("target", [["--d", "2"], ["--union"]])
    def test_prime_degree_is_domain_error(self, capsys, target):
        code, out, err = run(capsys, "estimate", "--n", "7", *target, "--eps", "0.1")
        assert code == 3
        assert not out and "prime" in err

    @pytest.mark.parametrize("d", ["4", "0", "-2", "2,x"])
    def test_bad_divisor_rejected(self, capsys, d):
        code, out, err = run(capsys, "estimate", "--n", "6", "--d", d, "--eps", "0.1")
        assert code == 2
        assert not out and err

    def test_rational_field_rejected(self, capsys):
        code, out, err = run(
            capsys, "estimate", "--n", "4", "--d", "2", "--eps", "0.1",
            "--field", "rational",
        )
        assert code == 2
        assert not out and "invalid choice: 'rational'" in err

    def test_conditional_union_rejected(self, capsys):
        code, _, _ = run(
            capsys, "estimate", "--n", "6", "--union", "--eps", "0.1",
            "--mode", "conditional",
        )
        assert code == 2

    def test_complex_field(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--n", "4", "--d", "2", "--eps", "0.1",
            "--samples", "20000", "--field", "complex64", "--mode", "conditional",
        )
        assert code == 0
        row = json.loads(out)
        assert row["field"] == "complex"
        assert row["upper_bound"] == pytest.approx(0.01)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "estimate", "--n", "4", "--d", "2", "--eps", "0.1",
            "--samples", "1000", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 4

    def test_target_required(self, capsys):
        code, out, err = run(capsys, "estimate", "--n", "6", "--eps", "0.1")
        assert code == 2
        assert not out and "--d" in err and "--union" in err


class TestCollide:
    def test_trig_example(self, capsys):
        params = json.dumps(
            {"variant": "trig", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "0", "z": "1"}
        )
        code, out, _ = run(capsys, "collide", params)
        assert code == 0
        report = json.loads(out)
        assert report["f"] == "1,0,-6,0,9,0,0"
        assert report["decomposes_at_d"] and report["decomposes_at_e"]

    def test_exp_power_collapse(self, capsys):
        params = json.dumps(
            {"variant": "exp", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "0", "w": ["0"]}
        )
        code, out, _ = run(capsys, "collide", params)
        assert code == 0
        report = json.loads(out)
        assert parse_polynomial(report["f"]).degree == 6
        assert report["f"] == "1,0,0,0,0,0,0"
        assert report["decomposes_at_d"] and report["decomposes_at_e"]

    def test_exp_degenerate_rejected(self, capsys):
        params = json.dumps(
            {"variant": "exp", "n": 12, "d": 2, "u": "1,1,0", "v": "1,0,0",
             "a": "0", "w": ["1", "0", "0"]}
        )
        code, _, err = run(capsys, "collide", params)
        assert code == 2
        assert "degenerate" in err

    @pytest.mark.parametrize(
        "n,d,message",
        [(6.9, 2, "must be integers"), (6, 2.5, "must be integers"), (6, 0, "need e > d >= 2")],
        ids=["n=6.9", "d=2.5", "d=0"],
    )
    def test_non_integer_or_zero_degree_rejected(self, capsys, n, d, message):
        params = json.dumps(
            {"variant": "trig", "n": n, "d": d, "u": "1,0", "v": "1,0", "a": "0", "z": "1"}
        )
        code, out, err = run(capsys, "collide", params)
        assert code == 2
        assert not out and message in err

    def test_invalid_json(self, capsys):
        code, _, _ = run(capsys, "collide", "{not json")
        assert code == 2

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"variant": "trig", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "0", "z": "abc"},
             "cannot parse coefficient 'abc'"),
            ({"variant": "exp", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "0", "w": ["x"]},
             "cannot parse coefficient 'x'"),
            ([1, 2], "must be a JSON object"),
            ({"variant": "sin", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "0", "z": "1"},
             "unknown collision variant 'sin'"),
        ],
        ids=["bad-z", "bad-w", "not-an-object", "unknown-variant"],
    )
    def test_unparsable_payload_is_usage_error(self, capsys, payload, message):
        code, out, err = run(capsys, "collide", json.dumps(payload))
        assert code == 2
        assert not out and message in err

    def test_non_finite_coefficient_is_usage_error(self, capsys):
        params = json.dumps(
            {"variant": "trig", "n": 6, "d": 2, "u": "1,0", "v": "1,0", "a": "nan", "z": "1"}
        )
        code, out, err = run(capsys, "collide", params, "--field", "real64")
        assert code == 2
        assert not out and "finite" in err

    def test_overflowing_composition_is_usage_error(self, capsys):
        params = json.dumps({"variant": "trig", "n": 12, "d": 2, "u": "1,1e300,0",
                             "v": "1,1e10,0", "a": "0", "z": "0"})
        code, out, err = run(capsys, "collide", params, "--field", "real64")
        assert code == 2
        assert not out and "finite" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit")
    def test_result_past_the_digit_limit_is_usage_error(self, capsys):
        params = json.dumps({"variant": "exp", "n": 20, "d": 4, "u": "1,0", "v": "1,0",
                             "a": "1e400", "w": ["3"]})
        code, out, err = run(capsys, "collide", params)
        assert code == 2 and not out
        assert err.splitlines() == ["error: a coefficient of the result has more digits than can be printed"]

    def test_missing_payload(self, capsys):
        params = json.dumps({"variant": "exp", "n": 6, "d": 2, "u": "1,0", "v": "1,0"})
        code, _, _ = run(capsys, "collide", params)
        assert code == 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        path = tmp_path / "absent" / "x.txt" if where == "missing-dir" else tmp_path
        code, out, err = run(capsys, "compose", "1,1,0", "1,2,0", "--out", str(path))
        assert code == 2
        assert not out and "cannot write --out" in err


class TestProcess:
    """The contract of the installed command: exit code, stdout, stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "2,1,0", "1,0"],
            ["decompose", "1,0,0,0,0", "--d", "3"],
            ["estimate", "--n", "6", "--d", "2", "--eps", "0.1", "--seed", "-1"],
            ["collide", json.dumps({"variant": "trig", "n": 6, "d": 2, "u": "1,0",
                                    "v": "1,0", "a": "0", "z": "abc"})],
        ],
        ids=["compose", "decompose", "estimate", "collide"],
    )
    def test_bad_input_is_one_error_line(self, argv):
        src = str(Path(polydecomp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "polydecomp.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
