"""End-to-end acceptance gates.

One test per criterion, each enforcing its stated tolerance and printing a
single pass/fail line (visible with ``pytest -s``, or in captured output on
failure). Oracles are independent of the code paths they check: brute-force
subset enumeration, vertex enumeration over all decoding orders, and a flat
2-D grid search.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import macalloc
from macalloc import (
    ChannelConfig,
    ConstantStep,
    DiminishingStep,
    LinearUtility,
    SolveSettings,
    TheoremCappedStep,
    Violated,
    WeightedLogUtility,
    approximate_projection,
    expansion_delta,
    greedy_vertex,
    rate_split_analyze,
    solve,
    subset_capacity,
)
from support import batch_feasible, min_slack, random_config, random_feasible, random_infeasible

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)
PINNED_UTILITY = LinearUtility([2.0, 1.0])


def _gate(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {n} {label}: {status}{suffix}")
    assert ok, f"criterion {n} {label}: {status}{suffix}"


def test_criterion_1_feasible_iterates():
    """Every post-projection iterate of randomized solve runs is feasible."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    runs = 1000
    iterates = 0
    all_ok = True
    for run in range(runs):
        m = int(rng.integers(2, 11))
        cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, m)), 1.0)
        if run % 2 == 0:
            u = LinearUtility(rng.uniform(0.5, 2.0, m))
        else:
            u = WeightedLogUtility(rng.uniform(0.5, 2.0, m), epsilon=1.0)
        _, trace = solve(
            cfg, u, DiminishingStep(0.1), SolveSettings(max_iters=40, tol=1e-18, window=41)
        )
        iterates += len(trace)
        all_ok = all_ok and bool(batch_feasible(cfg, trace.rates, tol=1e-9).all())
    elapsed = time.perf_counter() - start
    _gate(1, "feasibility of solve iterates", all_ok and elapsed < 60.0,
          f"{runs} runs, {iterates} iterates, {elapsed:.1f}s")


def test_criterion_2_pseudo_nonexpansive():
    """Projection never increases the distance to any feasible anchor."""
    rng = np.random.default_rng(1002)
    pairs = 1000
    ok = True
    for _ in range(pairs):
        cfg = random_config(rng, int(rng.integers(2, 11)))
        y = random_infeasible(rng, cfg)
        anchor = random_feasible(rng, cfg)
        projected = approximate_projection(cfg, y).point
        ok = ok and (
            np.linalg.norm(projected - anchor) <= np.linalg.norm(y - anchor) + 1e-9
        )
    _gate(2, "pseudo-nonexpansiveness", ok, f"{pairs} pairs")


def test_criterion_3_oracle_equivalence():
    """Rate splitting agrees with 2**M enumeration away from boundaries."""
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    checked = 0
    excluded = 0
    agree = True
    sound = True
    for m in range(2, 11):
        cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, m)), 1.0)
        hi = 1.2 * max(subset_capacity(cfg, {i}) for i in range(1, m + 1))
        points = rng.uniform(0.0, hi, size=(10_000, m))
        slacks = min_slack(cfg, points)
        for point, worst in zip(points, slacks):
            report = rate_split_analyze(cfg, point)
            if isinstance(report, Violated):
                sound = sound and report.slack < 0.0
            if abs(worst) < 1e-8:
                excluded += 1
                continue
            checked += 1
            agree = agree and (isinstance(report, Violated) == (worst < 0.0))
    elapsed = time.perf_counter() - start
    _gate(3, "rate-splitting vs enumeration", agree and sound and elapsed < 60.0,
          f"{checked} points agreed, {excluded} excluded, {elapsed:.1f}s")


def _vertex_optimum(cfg, u):
    return max(
        u.value(greedy_vertex(cfg, order))
        for order in itertools.permutations(range(1, cfg.num_users + 1))
    )


def test_criterion_4_linear_convergence():
    """Diminishing-step solve reaches the vertex-enumeration optimum."""
    rng = np.random.default_rng(2024)
    ok = True
    details = []
    for m in (2, 3, 4):
        cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, m)), 1.0)
        w = rng.uniform(0.5, 2.0, m)
        while len(set(w.tolist())) < m:
            w = rng.uniform(0.5, 2.0, m)
        u = LinearUtility(w)
        ustar = _vertex_optimum(cfg, u)
        start = time.perf_counter()
        _, trace = solve(
            cfg, u, DiminishingStep(0.03), SolveSettings(max_iters=10_000, tol=1e-18, window=10_001)
        )
        elapsed = time.perf_counter() - start
        rel = (ustar - trace.best_utility) / ustar
        details.append(f"M={m}: rel={rel:.1e}")
        ok = ok and rel <= 1e-3 and elapsed < 10.0

    ustar = _vertex_optimum(TWO_USER, PINNED_UTILITY)
    ok = ok and abs(ustar - 0.895880) < 1e-5
    _, trace = solve(
        TWO_USER, PINNED_UTILITY, DiminishingStep(0.02),
        SolveSettings(max_iters=10_000, tol=1e-18, window=10_001),
    )
    rel = (ustar - trace.best_utility) / ustar
    details.append(f"pinned: rel={rel:.1e}")
    ok = ok and rel <= 1e-3
    _gate(4, "linear-utility convergence", ok, "; ".join(details))


def _grid_search_log_utility(cfg, resolution=1e-4):
    """Flat 2-D scan of ln(1+R1) + ln(1+R2) over the feasible grid."""
    c1 = subset_capacity(cfg, {1})
    c2 = subset_capacity(cfg, {2})
    c12 = subset_capacity(cfg, {1, 2})
    axis = np.arange(0.0, c12 + resolution, resolution)
    best_val = -np.inf
    best_point = None
    chunk = 256
    for lo in range(0, len(axis), chunk):
        r1 = axis[lo : lo + chunk][:, None]
        r2 = axis[None, :]
        feasible = (r1 <= c1) & (r2 <= c2) & (r1 + r2 <= c12)
        values = np.where(feasible, np.log1p(r1) + np.log1p(r2), -np.inf)
        k = int(np.argmax(values))
        i, j = divmod(k, values.shape[1])
        if values[i, j] > best_val:
            best_val = float(values[i, j])
            best_point = (float(r1[i, 0]), float(axis[j]))
    return np.array(best_point), best_val


def test_criterion_5_concave_convergence():
    """Log utility lands on the dominant-face midpoint, vs a grid oracle."""
    start = time.perf_counter()
    half = subset_capacity(TWO_USER, {1, 2}) / 2.0
    target = np.array([half, half])

    grid_point, _ = _grid_search_log_utility(TWO_USER, resolution=1e-4)
    grid_ok = bool((np.abs(grid_point - target) <= 1.5e-4).all())

    best, _ = solve(
        TWO_USER, WeightedLogUtility([1.0, 1.0], epsilon=1.0), DiminishingStep(0.05),
        SolveSettings(max_iters=10_000, tol=1e-18, window=10_001),
    )
    solve_ok = bool((np.abs(best - target) <= 1e-3).all())
    cross_ok = bool((np.abs(best - grid_point) <= 1e-3).all())
    elapsed = time.perf_counter() - start
    _gate(5, "concave-utility convergence", grid_ok and solve_ok and cross_ok and elapsed < 10.0,
          f"best={best.round(6).tolist()}, grid={grid_point.round(6).tolist()}, {elapsed:.1f}s")


def test_criterion_6_violation_cap():
    """Capped stepsizes keep pre-projection violation counts at M or below."""
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    cap_ok = True
    for m in range(2, 11):
        cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, m)), 1.0)
        u = LinearUtility(rng.uniform(0.5, 2.0, m))
        _, trace = solve(
            cfg, u, TheoremCappedStep(0.1), SolveSettings(max_iters=300, tol=1e-18, window=301)
        )
        cap_ok = cap_ok and int(trace.violations_pre.max()) <= m

    hyp_ok = True
    for _ in range(10):
        m = int(rng.integers(2, 7))
        cfg = random_config(rng, m, lo=0.2, hi=4.0, noise=float(rng.uniform(0.3, 2.0)))
        delta = expansion_delta(cfg)
        subsets = [
            frozenset(c)
            for r in range(1, m + 1)
            for c in itertools.combinations(range(1, m + 1), r)
        ]
        caps = {s: subset_capacity(cfg, s) for s in subsets}
        caps[frozenset()] = 0.0
        for s, t in itertools.product(subsets, repeat=2):
            if s & t == s or s & t == t:
                continue
            hyp_ok = hyp_ok and delta <= 0.5 * (caps[s] + caps[t] - caps[s & t] - caps[s | t]) + 1e-12

    pinned_ok = abs(expansion_delta(TWO_USER) - 0.0719205) < 1e-7
    elapsed = time.perf_counter() - start
    _gate(6, "stepsize theorem violation cap", cap_ok and hyp_ok and pinned_ok and elapsed < 60.0,
          f"{elapsed:.1f}s")


def _cascade_input(m):
    """Equal powers and an equal split just past the sum-rate bound: all M - 1
    merges happen (strict subsets stay feasible by strict concavity) before the
    final hyper-user turns up negative, exercising the full recursion depth."""
    cfg = ChannelConfig((1.0,) * m, 1.0)
    full = subset_capacity(cfg, range(1, m + 1))
    return cfg, np.full(m, full / m * (1.0 + 1e-7))


def _best_time(fn, reps=3):
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_7_scaling():
    """Rate splitting is fast at M=1000 and grows like M^2 log M."""
    rng = np.random.default_rng(1007)
    cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, 1000)), 1.0)
    point = rng.uniform(0.0, 0.02, 1000)
    assert isinstance(rate_split_analyze(cfg, point), Violated)
    t_random = _best_time(lambda: rate_split_analyze(cfg, point))

    times = {}
    for m in (100, 300, 1000):
        c, r = _cascade_input(m)
        report = rate_split_analyze(c, r)
        assert isinstance(report, Violated) and len(report.subset) == m
        times[m] = _best_time(lambda: rate_split_analyze(c, r))

    model = lambda m: m * m * math.log(m)
    ratios_ok = True
    details = [f"random M=1000: {t_random * 1e3:.0f}ms"]
    for m in (300, 1000):
        measured = times[m] / times[100]
        predicted = model(m) / model(100)
        details.append(f"{m}/100: {measured:.1f}x vs {predicted:.1f}x")
        ratios_ok = ratios_ok and predicted / 3.0 <= measured <= predicted * 3.0
    _gate(7, "rate-splitting scaling", t_random < 1.0 and times[1000] < 1.0 and ratios_ok,
          "; ".join(details))


def test_criterion_8_descent_property():
    """Distance to the known optimum shrinks whenever the stepsize condition holds."""
    rstar = greedy_vertex(TWO_USER, (1, 2))
    ustar = PINNED_UTILITY.value(rstar)
    _, trace = solve(
        TWO_USER, PINNED_UTILITY, ConstantStep(5e-4),
        SolveSettings(max_iters=600, tol=1e-18, window=601),
    )
    triggered = 0
    descent_ok = True
    for k in range(trace.iterations):
        alpha = trace.stepsizes[k + 1]
        gnorm = trace.grad_norms[k + 1]
        gap = ustar - trace.utilities[k]
        if gap <= 1e-12 or not 0.0 < alpha < 2.0 * gap / gnorm**2:
            continue
        triggered += 1
        d_now = np.linalg.norm(trace.rates[k] - rstar)
        d_next = np.linalg.norm(trace.rates[k + 1] - rstar)
        descent_ok = descent_ok and d_next < d_now
    _gate(8, "descent under the stepsize condition", descent_ok and triggered >= 100,
          f"{triggered} triggering iterations")


def test_criterion_9_cli_regression(tmp_path):
    """The pinned solve/check/region commands are byte-identical across runs."""
    problem = tmp_path / "pinned.json"
    problem.write_text(json.dumps({
        "powers": [1.0, 1.0],
        "noise": 1.0,
        "utility": {"type": "linear", "weights": [2.0, 1.0]},
        "stepsize": {"rule": "constant", "alpha0": 2e-4},
        "max_iters": 3000,
        "tol": 1e-12,
    }))

    # the child imports the same macalloc as this process, installed or not
    package_root = str(Path(macalloc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "macalloc", *args],
            capture_output=True, check=True, env=env,
        ).stdout

    ok = True
    solve_outs = []
    trace_bytes = []
    for name in ("t1.csv", "t2.csv"):
        out = run(["solve", str(problem), "--trace", str(tmp_path / name)])
        solve_outs.append(out)
        trace_bytes.append((tmp_path / name).read_bytes())
    ok = ok and solve_outs[0] == solve_outs[1] and trace_bytes[0] == trace_bytes[1]

    check_outs = [
        run(["check", str(problem), "--rate", "0.3", "--rate", "0.3"]) for _ in range(2)
    ]
    ok = ok and check_outs[0] == check_outs[1] and check_outs[0].startswith(b"VIOLATED {1,2}")

    region_outs = [run(["region", str(problem)]) for _ in range(2)]
    ok = ok and region_outs[0] == region_outs[1] and len(region_outs[0].splitlines()) == 3

    _gate(9, "CLI byte-identical regression", ok)
