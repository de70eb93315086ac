import io
import json
import math

import numpy as np
import pytest

from macalloc import ChannelConfig, constraint_table, subset_members
from macalloc.cli import main, write_trace_csv
from macalloc.optimizer import IterationTrace

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
            "iter", "R_1", "R_2", "utility", "stepsize", "grad_norm", "projections",
        ]
        assert float(last[header.index("utility")]) == pytest.approx(0.89588, abs=1e-3)

    def test_summary_says_why_and_when(self, pinned, tmp_path, capsys):
        """The summary's last fields are the stop reason and the iteration of
        the best point, as key=value tokens like the others."""
        assert main(["solve", pinned, "--trace", str(tmp_path / "trace.csv")]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert list(fields) == ["utility", "rates", "iterations", "units", "stop_reason", "best_iter"]
        assert fields["stop_reason"] == "stalled"
        assert fields["best_iter"] == "1014"
        assert int(fields["best_iter"]) < int(fields["iterations"])

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

    def test_large_noise_problem_solves(self, problem_file, tmp_path, capsys):
        """Powers and noise scaled by 1e6 together: the SNRs of a problem that
        solves at noise 1, which must not end in an error."""
        path = problem_file({
            "powers": [5e5, 7.5e5, 1e6, 1.25e6, 1.5e6, 1.75e6, 2e6],
            "noise": 1e6,
            "utility": {"type": "linear", "weights": [1.0] * 7},
            "stepsize": {"rule": "diminishing", "alpha0": 0.1},
            "max_iters": 200,
        })
        assert main(["solve", path, "--trace", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().out.startswith("utility=")

    def test_unwritable_trace_is_io_error(self, pinned, tmp_path, capsys):
        assert main(["solve", pinned, "--trace", str(tmp_path / "no" / "dir.csv")]) == 1


def _numpy_scalar_csv(trace) -> str:
    """The trace CSV with every value formatted as the numpy scalar it is in
    the trace's arrays, row by row."""
    m = trace.rates.shape[1]
    lines = [",".join(["iter", *(f"R_{i}" for i in range(1, m + 1)),
                       "utility", "stepsize", "grad_norm", "projections"])]
    for k in range(len(trace)):
        row = [str(k), *(f"{x:.12g}" for x in trace.rates[k])]
        row += [f"{trace.utilities[k]:.12g}", f"{trace.stepsizes[k]:.12g}", f"{trace.grad_norms[k]:.12g}"]
        lines.append(",".join([*row, str(int(trace.projections[k]))]))
    return "\n".join(lines) + "\n"


def test_trace_csv_formats_as_the_numpy_scalars():
    """write_trace_csv formats Python floats; at the extremes of a float64
    they print exactly as the numpy scalars do."""
    extremes = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1 + 0.2, 1.0 / 3.0,
                123456789012.5, 1e16 + 2.0, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    n = len(extremes)
    trace = IterationTrace(
        rates=np.array([extremes[k:] + extremes[:k] for k in range(n)]),
        utilities=np.array(extremes[::-1]),
        stepsizes=np.array(extremes[3:] + extremes[:3]),
        grad_norms=-np.array(extremes),
        projections=np.array([0, 1, 2**40] + [7] * (n - 3)),
        best_rates=np.zeros(n),
        best_utility=0.0,
        best_iter=0,
        stop_reason="max_iters",
    )
    out = io.StringIO()
    write_trace_csv(trace, out)
    assert out.getvalue() == _numpy_scalar_csv(trace)
    assert "\n0,0,-0,4.94065645841e-324,2.22507385851e-308," in out.getvalue()


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

    @pytest.mark.parametrize("bad", ["-inf", "-0.1", "nan"])
    def test_value_after_separate_flag_reaches_rate_check(self, pinned, capsys, bad):
        # argparse alone reads "-inf" as an option and exits with its usage error
        assert main(["check", pinned, "--rate", bad, "--rate", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rates must be finite and nonnegative\n"


class TestRegionCommand:
    def test_two_user_rows(self, pinned, capsys):
        assert main(["region", pinned]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        assert rows[0].split() == ["1", "{1}", "0.34657359028"]
        assert rows[1].split() == ["2", "{2}", "0.34657359028"]
        assert rows[2].split() == ["3", "{1,2}", "0.549306144334"]

    def test_rows_are_the_constraint_table(self, problem_file, capsys):
        config = ChannelConfig((0.3, 2.0, 7.5, 1.1, 40.0, 0.02), 0.7)
        path = problem_file({"powers": list(config.powers), "noise": config.noise})
        assert main(["region", path]) == 0
        rows = [row.split() for row in capsys.readouterr().out.strip().splitlines()]
        capacities = constraint_table(config)
        assert [int(mask) for mask, _, _ in rows] == list(range(1, 64))
        for mask, members, capacity in rows:
            assert members == "{" + ",".join(map(str, sorted(subset_members(int(mask))))) + "}"
            assert capacity == f"{capacities[int(mask)]:.12g}"

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

    @pytest.mark.parametrize("field, where", [
        ({"powers": [1.0, 10**400]}, "powers[1]"),
        ({"noise": -(10**400)}, "noise"),
        ({"tol": 10**400}, "tol"),
    ])
    def test_oversized_integer_is_not_finite(self, problem_file, capsys, field, where):
        """A 401-digit integer has no float; it is reported like an infinity."""
        path = problem_file({**PINNED_PROBLEM, **field})
        assert main(["check", path, "--rate", "0.1", "--rate", "0.1"]) == 2
        assert capsys.readouterr().err == f"{path}: {where}: must be finite\n"

    @pytest.mark.parametrize("powers, noise", [([1e300, 1e300], 1e-10), ([1.0, 1.0], 1e-320)])
    def test_infinite_total_snr(self, problem_file, capsys, powers, noise):
        path = problem_file({**PINNED_PROBLEM, "powers": powers, "noise": noise})
        assert main(["check", path, "--rate", "0.1", "--rate", "0.1"]) == 2
        assert capsys.readouterr().err == f"{path}: total SNR sum(powers) / noise must be finite, got inf\n"

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
