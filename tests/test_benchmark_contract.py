"""The names and call shapes the benchmark in ``perfbench/`` reads from the package.

perfbench looks these names up at run time and swaps timing wrappers into
``macalloc.optimizer``. A cleanup that removes or renames one of them leaves
a benchmark run without a result line, so each is pinned here with the call
shape perfbench uses.
"""

import dataclasses
import inspect
import io
import json

import numpy as np

import macalloc
import macalloc.cli as cli
import macalloc.optimizer as optimizer
import macalloc.projection as projection
import macalloc.violations as violations

CONFIG = macalloc.ChannelConfig((0.5, 1.0, 2.0), 1.0)
PINNED_PROBLEM = {
    "powers": [1.0, 1.0],
    "noise": 1.0,
    "utility": {"type": "linear", "weights": [2.0, 1.0]},
    "stepsize": {"rule": "constant", "alpha0": 2e-4},
    "max_iters": 50,
    "tol": 1e-12,
}


def test_solver_workload_calls():
    utility = macalloc.WeightedLogUtility(np.ones(3), epsilon=1e-2)
    settings = macalloc.SolveSettings(max_iters=5, window=6)
    best, trace = macalloc.solve(
        CONFIG, utility, macalloc.DiminishingStep(0.1), settings, finder=projection.rate_split_finder
    )
    assert trace.iterations == 5
    assert int(np.sum(trace.projections)) >= 1
    assert trace.best_utility == utility.value(best)


def test_traced_finder_runs_the_untraced_path():
    """perfbench's traced solve passes ``finder=projection.rate_split_finder``
    wrapped in a function that forwards its arguments; that must be the path
    ``solve`` takes without it, carried state and all."""
    config = macalloc.ChannelConfig((0.6, 1.1, 1.7, 0.9, 2.0), 1.3)
    utility = macalloc.WeightedLogUtility(np.ones(5), epsilon=1e-2)
    settings = macalloc.SolveSettings(max_iters=12, window=13)
    finders = (projection.rate_split_finder, lambda c, pt: projection.rate_split_finder(c, pt))
    (best, trace), *runs = [
        macalloc.solve(config, utility, macalloc.DiminishingStep(0.3), settings, **kwargs)
        for kwargs in ({}, *({"finder": f} for f in finders))
    ]
    defaults = [inspect.signature(fn).parameters["finder"].default
                for fn in (macalloc.solve, macalloc.approximate_projection)]
    assert defaults == [projection.rate_split_finder] * 2
    assert int(np.sum(trace.projections)) >= 5
    for best_f, trace_f in runs:
        assert best.tobytes() == best_f.tobytes()
        for field in dataclasses.fields(trace):
            a, b = getattr(trace, field.name), getattr(trace_f, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


def test_solve_calls_the_layers_through_the_optimizer_module(monkeypatch):
    """solve reaches the projection through ``macalloc.optimizer``, where the
    wrappers go, and never builds or reads the 2**M constraint table."""
    calls = {"count_violations": 0, "approximate_projection": 0, "constraint_table": 0}
    for name in calls:
        original = getattr(optimizer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    macalloc.solve(
        CONFIG, macalloc.LinearUtility([1.0, 1.0, 1.0]), macalloc.DiminishingStep(0.1),
        macalloc.SolveSettings(max_iters=3, window=4),
    )
    assert calls == {"count_violations": 0, "approximate_projection": 3, "constraint_table": 0}


def test_solve_hints_each_projection_with_the_last_hyperplanes(monkeypatch):
    """perfbench's projection wrapper forwards keyword arguments, so ``hint=``
    must reach ``approximate_projection`` as one: once per step, holding the
    previous step's hyperplanes, empty on the first."""
    calls = []
    original = optimizer.approximate_projection

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(optimizer, "approximate_projection", recording)
    _, trace = macalloc.solve(
        CONFIG, macalloc.WeightedLogUtility(np.ones(3), epsilon=1e-2), macalloc.DiminishingStep(0.1),
        macalloc.SolveSettings(max_iters=6, window=7),
    )
    assert len(calls) == trace.iterations == 6
    previous = ()
    for args, kwargs, result in calls:
        assert len(args) == 2 and set(kwargs) == {"finder", "hint"}
        assert kwargs["hint"] == previous
        previous = result.hyperplanes_used
    assert sum(len(kwargs["hint"]) for _, kwargs, _ in calls) > 0


def test_constraint_table_is_cached_arrays():
    config = macalloc.ChannelConfig((0.7, 1.3), 1.1)
    optimizer.constraint_table(config)
    misses = optimizer.constraint_table.cache_info().misses
    table = optimizer.constraint_table(config)
    assert optimizer.constraint_table.cache_info().misses == misses
    # perfbench sizes the table by summing nbytes over what it iterates
    assert sum(getattr(a, "nbytes", 0) for a in table) == table.nbytes > 0


def test_check_workload_calls():
    m = 6
    config = macalloc.ChannelConfig((1.2,) * m, 1.0)
    full = 0.5 * np.log1p(1.2 * m)
    report = violations.rate_split_analyze(config, np.full(m, full / m * (1.0 + 1e-7)))
    assert macalloc.rate_split_analyze is violations.rate_split_analyze
    assert isinstance(report, macalloc.Violated)
    assert report.subset == frozenset(range(1, m + 1))
    assert macalloc.Violated(report.subset, report.slack) == report


def test_cli_calls(tmp_path):
    problem_path = tmp_path / "pinned.json"
    problem_path.write_text(json.dumps(PINNED_PROBLEM))
    problem = cli.load_problem(str(problem_path))
    best, trace = macalloc.solve(problem.config, problem.utility, problem.rule, problem.settings)
    out = io.StringIO()
    cli.write_trace_csv(trace, out)
    assert len(out.getvalue().splitlines()) == trace.iterations + 2
    assert trace.best_utility == problem.utility.value(best)
    assert cli.main(["solve", str(problem_path), "--trace", str(tmp_path / "t.csv")]) == 0
