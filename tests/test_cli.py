import json
import math

import numpy as np
import pytest

from macalloc.cli import main

PINNED_PROBLEM = {
    "powers": [1.0, 1.0],
    "noise": 1.0,
    "utility": {"type": "linear", "weights": [2.0, 1.0]},
    "stepsize": {"rule": "constant", "alpha0": 2e-4},
    "max_iters": 3000,
    "tol": 1e-12,
}


@pytest.fixture
def problem_file(tmp_path):
    def write(payload, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


@pytest.fixture
def pinned(problem_file):
    return problem_file(PINNED_PROBLEM)


def _last_csv_row(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), lines[-1].split(",")


class TestSolveCommand:
    def test_trace_converges_and_summary(self, pinned, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", pinned, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("utility=")
        utility = float(out.split()[0].split("=")[1])
        assert utility == pytest.approx(0.8958797346, abs=1e-3)

        header, last = _last_csv_row(trace)
        assert header == [
            "iter", "R_1", "R_2", "utility", "stepsize", "grad_norm",
            "violations_pre_projection", "projections",
        ]
        assert float(last[header.index("utility")]) == pytest.approx(0.89588, abs=1e-3)

    def test_bits_flag_rescales_display(self, pinned, tmp_path, capsys):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", pinned, "--trace", str(t1)]) == 0
        nats = capsys.readouterr().out
        assert main(["solve", pinned, "--trace", str(t2), "--bits"]) == 0
        bits = capsys.readouterr().out
        r_nats = [float(x) for x in nats.split()[1].split("=")[1].split(",")]
        r_bits = [float(x) for x in bits.split()[1].split("=")[1].split(",")]
        np.testing.assert_allclose(r_bits, np.array(r_nats) / math.log(2.0), rtol=1e-9)
        assert "units=bits" in bits and "units=nats" in nats
        # trace storage stays in nats either way
        assert t1.read_bytes() == t2.read_bytes()

    def test_round_trip_final_row_is_feasible(self, pinned, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", pinned, "--trace", str(trace)]) == 0
        capsys.readouterr()
        header, last = _last_csv_row(trace)
        rates = [last[header.index("R_1")], last[header.index("R_2")]]
        code = main(["check", pinned, "--rate", rates[0], "--rate", rates[1]])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("FEASIBLE")

    def test_deterministic_traces(self, pinned, tmp_path, capsys):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", pinned, "--trace", str(t1)]) == 0
        out1 = capsys.readouterr().out
        assert main(["solve", pinned, "--trace", str(t2)]) == 0
        out2 = capsys.readouterr().out
        assert t1.read_bytes() == t2.read_bytes()
        assert out1 == out2

    def test_unwritable_trace_is_io_error(self, pinned, tmp_path, capsys):
        assert main(["solve", pinned, "--trace", str(tmp_path / "no" / "dir.csv")]) == 1


class TestCheckCommand:
    def test_violated_pair(self, pinned, capsys):
        assert main(["check", pinned, "--rate", "0.3", "--rate", "0.3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("VIOLATED {1,2} slack=")
        assert float(out.split("slack=")[1]) == pytest.approx(-0.0507, abs=1e-4)

    def test_origin_feasible(self, pinned, capsys):
        assert main(["check", pinned, "--rate", "0", "--rate", "0"]) == 0
        assert capsys.readouterr().out.startswith("FEASIBLE")

    def test_vertex_decoding_order(self, pinned, capsys):
        assert main(["check", pinned, "--rate", "0.34657", "--rate", "0.20273"]) == 0
        assert capsys.readouterr().out.strip() == "FEASIBLE order=1,2"

    def test_arity_mismatch(self, pinned, capsys):
        assert main(["check", pinned, "--rate", "0.1"]) == 2

    def test_negative_rate_rejected(self, pinned, capsys):
        assert main(["check", pinned, "--rate", "-0.1", "--rate", "0.1"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rate_rejected(self, pinned, capsys, bad):
        assert main(["check", pinned, f"--rate={bad}", "--rate", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


class TestRegionCommand:
    def test_two_user_rows(self, pinned, capsys):
        assert main(["region", pinned]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        assert rows[0].split() == ["1", "{1}", "0.34657359028"]
        assert rows[1].split() == ["2", "{2}", "0.34657359028"]
        assert rows[2].split() == ["3", "{1,2}", "0.549306144334"]

    def test_single_user(self, problem_file, capsys):
        path = problem_file({"powers": [1.0], "noise": 1.0})
        assert main(["region", path]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_enumeration_cap(self, problem_file, capsys):
        path = problem_file({"powers": [1.0] * 21, "noise": 1.0})
        assert main(["region", path]) == 2


class TestProblemFileValidation:
    def test_zero_max_iters(self, problem_file, capsys):
        path = problem_file({**PINNED_PROBLEM, "max_iters": 0})
        assert main(["region", path]) == 2
        assert "max_iters" in capsys.readouterr().err

    def test_unknown_utility_type(self, problem_file, capsys):
        path = problem_file({**PINNED_PROBLEM, "utility": {"type": "sigmoid", "weights": [1, 1]}})
        assert main(["region", path]) == 2

    def test_unknown_stepsize_rule(self, problem_file, capsys):
        path = problem_file({**PINNED_PROBLEM, "stepsize": {"rule": "polyak", "alpha0": 0.1}})
        assert main(["region", path]) == 2

    def test_nonpositive_power(self, problem_file, capsys):
        path = problem_file({"powers": [1.0, 0.0], "noise": 1.0})
        assert main(["region", path]) == 2
        assert "powers[1]" in capsys.readouterr().err

    def test_wrong_weight_arity(self, problem_file, capsys):
        path = problem_file({"powers": [1.0, 1.0], "noise": 1.0,
                             "utility": {"type": "linear", "weights": [1.0]}})
        assert main(["region", path]) == 2

    def test_unknown_top_level_key(self, problem_file, capsys):
        path = problem_file({**PINNED_PROBLEM, "fading": True})
        assert main(["region", path]) == 2

    def test_missing_noise(self, problem_file, capsys):
        path = problem_file({"powers": [1.0, 1.0]})
        assert main(["region", path]) == 2

    def test_malformed_json_anchors_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "powers": [1.0,\n}')
        assert main(["region", str(path)]) == 2
        assert f"{path}:3" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["region", str(tmp_path / "nope.json")]) == 1

    def test_no_trace_written_on_schema_failure(self, problem_file, tmp_path, capsys):
        path = problem_file({**PINNED_PROBLEM, "max_iters": 0})
        trace = tmp_path / "never.csv"
        assert main(["solve", path, "--trace", str(trace)]) == 2
        assert not trace.exists()

    def test_defaults_allow_minimal_file(self, problem_file, tmp_path, capsys):
        path = problem_file({"powers": [1.0, 1.0], "noise": 1.0, "max_iters": 50})
        trace = tmp_path / "t.csv"
        assert main(["solve", path, "--trace", str(trace)]) == 0
