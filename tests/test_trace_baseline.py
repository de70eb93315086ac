"""Seeded solves checked against a committed baseline of their traces.

``data/trace_baseline.json`` holds the trace of every case in ``CASES``. It is
written by running this file as a script from the root of a checkout:

    PYTHONPATH=src python tests/test_trace_baseline.py

Before it overwrites the file, the script prints what the rewrite changes:
each case the test would reject, with its differences in the integer
columns, the stop reason and the best iteration; the count of cases that
changed within the tolerance; and the largest absolute change per float
column. A change that alters traces on purpose regenerates the file and
reports that output. Integer columns, the stop reason and the best iteration
must match exactly. Float columns must match to RTOL relative, or
to ATOL where a value is zero, so the test does not hinge on the last bit of
a libm routine; a flipped decision in the finder moves rates far more.

The ``violations_pre`` column is the number of constraints each step's
pre-projection point violated, which ``solve`` does not record: it is
rebuilt from the trace and checked by enumeration up to M = 20, and reads -1
above.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from macalloc import (
    ChannelConfig,
    ConstantStep,
    DiminishingStep,
    LinearUtility,
    SolveSettings,
    WeightedLogUtility,
    count_violations,
    solve,
)
import macalloc.projection as projection
from support import (
    capped_projection,
    in_place,
    plain_capped_projection,
    pre_projection_points,
    violation_count,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "trace_baseline.json"
RTOL = 1e-9
ATOL = 1e-15

SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60)
RULES = ("constant", "diminishing", "capped")
UTILITIES = ("linear", "log")
OTHER_NOISES = (0.5, 2.0, 3.0)

# Two cases per size; case i cycles through every rule and utility pair every
# six cases. Even cases run at noise 1, odd ones at another noise with the
# powers scaled along, so the SNRs stay in [0.5, 2]. Every fifth case stops
# early on a coarse stall test.
CASES = [
    {
        "seed": 1000 + i,
        "users": m,
        "noise": 1.0 if i % 2 == 0 else OTHER_NOISES[i // 2 % 3],
        "rule": RULES[i % 3],
        "utility": UTILITIES[i // 3 % 2],
        "max_iters": min(40, max(6, 120 // m)),
        "stall": i % 5 == 4,
    }
    for i, m in enumerate(m for m in SIZES for _ in range(2))
]

INT_FIELDS = ("projections", "best_iter", "stop_reason")
FLOAT_FIELDS = ("rates", "utilities", "stepsizes", "grad_norms", "best_rates", "best_utility")


def build_case(case):
    """The case's config, utility, stepsize rule and settings."""
    rng = np.random.default_rng(case["seed"])
    m, noise = case["users"], case["noise"]
    config = ChannelConfig(tuple(noise * rng.uniform(0.5, 2.0, m)), noise)
    weights = rng.uniform(0.5, 2.0, m)
    if case["utility"] == "linear":
        utility = LinearUtility(weights)
    else:
        utility = WeightedLogUtility(weights, epsilon=0.1)
    rule = {
        "constant": ConstantStep(0.02),
        "diminishing": DiminishingStep(0.1),
        "capped": DiminishingStep(0.1, capped=True),
    }[case["rule"]]
    iters = case["max_iters"]
    if case["stall"]:
        settings = SolveSettings(max_iters=iters, tol=1e-3, window=3)
    else:
        settings = SolveSettings(max_iters=iters, tol=1e-18, window=iters + 1)
    return config, utility, rule, settings


def run_case(case) -> dict:
    """Solve one case; returns its trace as JSON-ready lists."""
    _, trace = solve(*build_case(case))
    return {
        "rates": trace.rates.tolist(),
        "utilities": trace.utilities.tolist(),
        "stepsizes": trace.stepsizes.tolist(),
        "grad_norms": trace.grad_norms.tolist(),
        "projections": trace.projections.tolist(),
        "best_rates": trace.best_rates.tolist(),
        "best_utility": trace.best_utility,
        "best_iter": trace.best_iter,
        "stop_reason": trace.stop_reason,
    }


def rebuilt_violations(config, utility, rates, stepsizes) -> list[int]:
    """Pre-projection violation count of each row, 0 at the start and -1 past
    M = 20: support's enumeration up to M = 15, the package's above."""
    m = config.num_users
    if m > 20:
        return [0] + [-1] * (len(rates) - 1)
    count = violation_count if m <= 15 else count_violations
    return [0] + [count(config, y) for y in pre_projection_points(utility, rates, stepsizes)]


def _case_id(case) -> str:
    return f"m{case['users']}-{case['rule']}-{case['utility']}-noise{case['noise']:g}"


@pytest.fixture(scope="module")
def baseline():
    return json.loads(FIXTURE.read_text())


def test_baseline_covers_the_cases(baseline):
    assert [entry["case"] for entry in baseline] == CASES
    assert {c["stop_reason"] for c in (e["trace"] for e in baseline)} == {"max_iters", "stalled"}
    assert FIXTURE.stat().st_size < 200_000


def _assert_matches(got, expected):
    for field in INT_FIELDS:
        assert got[field] == expected[field], field
    for field in FLOAT_FIELDS:
        np.testing.assert_allclose(got[field], expected[field], rtol=RTOL, atol=ATOL, err_msg=field)


@pytest.mark.parametrize("index", range(len(CASES)), ids=[_case_id(c) for c in CASES])
def test_trace_matches_baseline(baseline, index):
    _assert_matches(run_case(CASES[index]), baseline[index]["trace"])


FORMS = {"gap": capped_projection, "plain": plain_capped_projection}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("index", range(len(CASES)), ids=[_case_id(c) for c in CASES])
def test_floored_projection_form_does_not_move_the_trace(baseline, index, form, monkeypatch):
    """The floored projection's two arithmetic forms, support's numpy
    versions put in the package's place, round differently; rate splitting
    orders users by tolerance band, so every trace still matches the
    baseline."""
    monkeypatch.setattr(projection, "_capped_projection", in_place(FORMS[form]))
    _assert_matches(run_case(CASES[index]), baseline[index]["trace"])


COUNTED = [i for i, c in enumerate(CASES) if c["users"] <= 20]


@pytest.mark.parametrize("index", COUNTED, ids=[_case_id(CASES[i]) for i in COUNTED])
def test_rebuilt_violation_counts_match_baseline(baseline, index):
    expected = baseline[index]["trace"]
    config, utility, _, _ = build_case(CASES[index])
    counts = rebuilt_violations(config, utility, expected["rates"], expected["stepsizes"])
    assert counts == expected["violations_pre"]


def _max_abs_change(old, new) -> float:
    """Largest absolute difference over the rows both columns have."""
    old, new = np.atleast_1d(np.asarray(old, dtype=float)), np.atleast_1d(np.asarray(new, dtype=float))
    n = min(len(old), len(new))
    return float(np.max(np.abs(new[:n] - old[:n]), initial=0.0))


def _within_tolerance(old, new) -> bool:
    """Whether test_trace_matches_baseline would accept ``new`` against ``old``."""
    if any(old[field] != new[field] for field in INT_FIELDS + ("violations_pre",)):
        return False
    try:
        for field in FLOAT_FIELDS:
            np.testing.assert_allclose(new[field], old[field], rtol=RTOL, atol=ATOL)
    except AssertionError:
        return False
    return True


def describe_changes(old_entries, new_entries) -> list[str]:
    """What replacing ``old_entries`` by ``new_entries`` changes, one line each:
    the cases the test would reject, with their integer, stop-reason and
    best-iteration differences; the count of cases that changed within the
    tolerance; then the largest absolute change per float column."""
    old_by_case = {json.dumps(e["case"], sort_keys=True): e["trace"] for e in old_entries}
    lines = []
    largest = dict.fromkeys(FLOAT_FIELDS, 0.0)
    before = after = tolerated = 0
    for entry in new_entries:
        new = entry["trace"]
        old = old_by_case.get(json.dumps(entry["case"], sort_keys=True))
        if old is None:
            lines.append(f"{_case_id(entry['case'])}: new case")
            continue
        before += sum(old["projections"])
        after += sum(new["projections"])
        if old == new:
            continue
        for field in FLOAT_FIELDS:
            largest[field] = max(largest[field], _max_abs_change(old[field], new[field]))
        if _within_tolerance(old, new):
            tolerated += 1
            continue
        notes = []
        for field in ("best_iter", "stop_reason"):
            if old[field] != new[field]:
                notes.append(f"{field} {old[field]} -> {new[field]}")
        for field in ("projections", "violations_pre"):
            if old[field] != new[field]:
                rows = sum(a != b for a, b in zip(old[field], new[field]))
                notes.append(f"{field} differ in {rows} rows, total {sum(old[field])} -> {sum(new[field])}")
        if len(old["rates"]) != len(new["rates"]):
            notes.append(f"rows {len(old['rates'])} -> {len(new['rates'])}")
        relative = (new["best_utility"] - old["best_utility"]) / abs(old["best_utility"])
        notes.append(f"best_utility {old['best_utility']:.12g} -> {new['best_utility']:.12g} ({relative:+.3%})")
        lines.append(f"{_case_id(entry['case'])}: " + "; ".join(notes))
    lines.append(f"{len(lines)} of {len(new_entries)} cases changed beyond RTOL/ATOL, {tolerated} more within")
    lines.append(f"hyperplanes over every case: {before} -> {after}")
    lines += [f"largest absolute change in {field}: {change:.3g}" for field, change in largest.items()]
    return lines


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    committed = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
    entries = []
    for case in CASES:
        trace = run_case(case)
        config, utility, _, _ = build_case(case)
        counts = rebuilt_violations(config, utility, trace["rates"], trace["stepsizes"])
        # the fixture's column order, violations_pre before projections
        trace = dict(list(trace.items())[:4] + [("violations_pre", counts)] + list(trace.items())[4:])
        entries.append({"case": case, "trace": trace})
    for line in describe_changes(committed, entries):
        print(line)
    FIXTURE.write_text(json.dumps(entries, separators=(",", ":")) + "\n")
    print(f"wrote {len(entries)} traces to {FIXTURE}", file=sys.stderr)
