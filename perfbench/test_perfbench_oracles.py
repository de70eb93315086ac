"""Self-tests of the benchmark's oracles: each bad output must count as a failure."""

import json
import math

import pytest

import oracles
from macalloc import ChannelConfig, Violated, rate_split_analyze
from macalloc.cli import main as cli_main

POWERS = [0.7, 1.3, 2.0, 0.9]


def test_greedy_vertex_is_the_best_vertex():
    g = [0.3, 2.0, 1.1, 0.7]
    best = oracles.vertex_optimum(POWERS, 1.0, g)
    vertex = oracles.greedy_vertex(POWERS, 1.0, g)
    assert math.fsum(a * b for a, b in zip(g, vertex)) == pytest.approx(best, rel=1e-12)
    assert oracles.fw_gap(POWERS, 1.0, g, vertex) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("check", ["enumerated", "sampled"])
def test_infeasible_point_is_a_failure(check):
    vertex = oracles.greedy_vertex(POWERS, 1.0, [4.0, 3.0, 2.0, 1.0])
    beyond = [1.001 * r for r in vertex]
    negative = [-1e-6] + vertex[1:]
    if check == "enumerated":
        assert oracles.check_enumerated(POWERS, 1.0, vertex) is None
        assert oracles.check_enumerated(POWERS, 1.0, beyond) is not None
        assert oracles.check_enumerated(POWERS, 1.0, negative) is not None
    else:
        assert oracles.check_sampled(POWERS, 1.0, vertex, 0.0) is None
        assert oracles.check_sampled(POWERS, 1.0, beyond, 0.0) is not None
        assert oracles.check_sampled(POWERS, 1.0, negative, 0.0) is not None
        assert oracles.check_sampled(POWERS, 1.0, vertex, -1e-6) is not None


def test_enumeration_covers_every_subset():
    # The pair {2, 4} is over its bound while every singleton is within its own.
    r = [0.0, oracles.capacity(1.3, 1.0), 0.0, 0.0]
    r[3] = oracles.capacity(2.2, 1.0) - r[1] + 1e-6
    assert oracles.enumerated_min_slack(POWERS, 1.0, r) == pytest.approx(-1e-6, abs=1e-12)


def test_cascade_report_with_wrong_subset_is_a_failure():
    m, power = 50, 1.7
    rates = oracles.cascade_rates(m, power)
    report = rate_split_analyze(ChannelConfig((power,) * m, 1.0), rates)
    assert oracles.check_cascade(report, m, power, 1.0, rates) is None
    wrong_subset = Violated(frozenset(range(1, m)), report.slack)
    assert oracles.check_cascade(wrong_subset, m, power, 1.0, rates) is not None
    wrong_slack = Violated(report.subset, 2.0 * report.slack)
    assert oracles.check_cascade(wrong_slack, m, power, 1.0, rates) is not None


@pytest.fixture
def cli_run(tmp_path, capsys):
    problem = tmp_path / "pinned.json"
    problem.write_text(json.dumps(oracles.PINNED_PROBLEM))
    csv = tmp_path / "trace.csv"
    code = cli_main(["solve", str(problem), "--trace", str(csv)])
    return code, capsys.readouterr().out, csv.read_text()


def test_cli_run_passes(cli_run):
    failure, rates = oracles.check_cli_solve(*cli_run, oracles.PINNED_PROBLEM)
    assert failure is None
    assert len(rates) == 2


def test_nonzero_cli_exit_is_a_failure(cli_run):
    _, stdout, csv = cli_run
    assert oracles.check_cli_solve(2, stdout, csv, oracles.PINNED_PROBLEM)[0] is not None


@pytest.mark.parametrize("cut", ["mid_row", "whole_rows", "header_only"])
def test_truncated_csv_is_a_failure(cli_run, cut):
    code, stdout, csv = cli_run
    lines = csv.splitlines(keepends=True)
    truncated = {
        "mid_row": csv[: len(csv) - len(lines[-1]) // 2 - 1],
        "whole_rows": "".join(lines[:-3]),
        "header_only": lines[0],
    }[cut]
    assert oracles.check_cli_solve(code, stdout, truncated, oracles.PINNED_PROBLEM)[0] is not None


def test_unparsable_summary_is_a_failure(cli_run):
    code, _, csv = cli_run
    assert oracles.check_cli_solve(code, "Traceback ...\n", csv, oracles.PINNED_PROBLEM)[0] is not None


def test_fw_gap_on_pinned_printed_rates():
    rates = [0.346539867307, 0.202766277027]
    weights = oracles.PINNED_PROBLEM["utility"]["weights"]
    gap = oracles.fw_gap([1.0, 1.0], 1.0, weights, rates)
    assert gap == pytest.approx(3.4e-5, rel=0.02)
    optimum = oracles.vertex_optimum([1.0, 1.0], 1.0, weights)
    assert optimum == pytest.approx(0.8958797346, abs=1e-9)
