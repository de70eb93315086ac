"""One benchmark workload in one fresh, single-threaded process.

Started by run.py, never by hand: it expects the thread and PYTHONPATH
settings run.py puts in its environment. It builds the workload's inputs from
the seed, prints ``ready``, then calls into macalloc in a closed loop with one
caller until the time is up, checks every output with the oracles, and prints
one JSON line with the samples. ``--mode setup`` stops after ``ready``;
``--mode traced`` makes every call twice, once untraced and once with spans
recorded around it (see tracing.py), so the tracing overhead is measured in
one process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

import macalloc
import macalloc.cli as cli
import oracles
import tracing
from oracles import PINNED_PROBLEM
from run import MIN_SAMPLES

# enum-m20: M at the enumeration cap. Every distinct config keeps a cached
# 2**M x M float table of about 176 MB, so the pool stays at four (about 0.7 GB).
ENUM_USERS, ENUM_POOL, ENUM_ITERS = 20, 4, 8
# split-m100: one iteration already makes about 800 finder calls (~0.8 s).
SPLIT_USERS, SPLIT_POOL, SPLIT_ITERS = 100, 12, 1
CHECK_USERS = 1000

def stratified_powers(rng, users: int) -> tuple[float, ...]:
    """Powers from U(0.5, 2), one in each of ``users`` equal slices, in seeded order.

    Each power is still uniform on [0.5, 2], but every config spreads over
    the whole range, so configs differ from seed to seed much less than
    independent draws would: with four configs per run, independent draws
    moved the median fw_gap of enum-m20 by 11% across seeds.
    """
    return tuple(0.5 + 1.5 * (rng.permutation(users) + rng.uniform(size=users)) / users)


class SolverWorkload:
    """solve() with the log utility and a diminishing step, stall test off."""

    def __init__(self, seed: int, users: int, pool: int, iters: int):
        rng = np.random.default_rng(seed)
        self.configs = [macalloc.ChannelConfig(stratified_powers(rng, users), 1.0)
                        for _ in range(pool)]
        self.pool = pool
        self.utility = macalloc.WeightedLogUtility(np.ones(users), epsilon=oracles.LOG_EPSILON)
        self.rule = macalloc.DiminishingStep(0.1)
        self.settings = macalloc.SolveSettings(max_iters=iters, window=iters + 1)
        self.enumerable = users <= ENUM_USERS

    def unit(self, i: int, tracer=None, finder=None) -> dict:
        cfg = self.configs[i % self.pool]
        if tracer is None:
            t0 = perf_counter()
            best, trace = macalloc.solve(cfg, self.utility, self.rule, self.settings)
            seconds = perf_counter() - t0
        else:
            kwargs = {} if finder is None else {"finder": finder}
            (best, trace), seconds = tracer.call(
                "optimizer.solve", macalloc.solve, cfg,
                tracing.TracedUtility(self.utility, tracer), self.rule, self.settings, **kwargs)
        gap = oracles.fw_gap(cfg.powers, cfg.noise, oracles.log_gradient(best), best)
        if self.enumerable:
            failure = oracles.check_enumerated(cfg.powers, cfg.noise, best)
        else:
            failure = oracles.check_sampled(cfg.powers, cfg.noise, best, gap)
        return {"seconds": seconds, "iterations": int(trace.iterations),
                "hyperplanes": int(np.sum(trace.projections)), "gap": gap, "failure": failure}


class CheckWorkload:
    """One rate_split_analyze call on the cascade input: M - 1 merges deep."""

    pool = 1

    def __init__(self, seed: int):
        self.power = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        self.config = macalloc.ChannelConfig((self.power,) * CHECK_USERS, 1.0)
        self.rate_list = oracles.cascade_rates(CHECK_USERS, self.power)
        self.rates = np.array(self.rate_list)
        # No solver output exists here: the gap is that of the checked point,
        # which lies past the region's supporting face along the gradient.
        self.gap = abs(oracles.fw_gap(self.config.powers, 1.0,
                                      oracles.log_gradient(self.rate_list), self.rate_list))

    def unit(self, i: int, tracer=None, analyze=None) -> dict:
        analyze = analyze or macalloc.rate_split_analyze
        t0 = perf_counter()
        report = analyze(self.config, self.rates)
        seconds = perf_counter() - t0
        failure = oracles.check_cascade(report, CHECK_USERS, self.power, 1.0, self.rate_list)
        return {"seconds": seconds, "iterations": 0, "hyperplanes": 0, "gap": self.gap,
                "failure": failure}


class CliPassWorkload:
    """The CLI's solve path in process: load_problem -> solve -> write_trace_csv."""

    pool = 1

    def __init__(self, workdir: str):
        self.problem = os.path.join(workdir, "pinned.json")
        self.csv = os.path.join(workdir, "pass.csv")
        with open(self.problem, "w", encoding="utf-8") as fh:
            json.dump(PINNED_PROBLEM, fh)
        self.load = getattr(cli, "load_problem", None)
        self.write = getattr(cli, "write_trace_csv", None)
        self.missing = [f"macalloc.cli.{n}" for n in ("load_problem", "write_trace_csv")
                        if getattr(cli, n, None) is None]

    def unit(self, i: int, tracer=None, finder=None) -> dict:
        t0 = perf_counter()
        if tracer is None:
            problem = self.load(self.problem)
            best, trace = macalloc.solve(problem.config, problem.utility, problem.rule,
                                         problem.settings)
            with open(self.csv, "w", encoding="utf-8", newline="") as fh:
                self.write(trace, fh)
        else:
            kwargs = {} if finder is None else {"finder": finder}
            problem, _ = tracer.call("cli.load_problem", self.load, self.problem)
            solve = tracer.wrap("optimizer.solve", macalloc.solve)
            (best, trace), _ = tracer.call(
                "cli.solve", solve, problem.config, tracing.TracedUtility(problem.utility, tracer),
                problem.rule, problem.settings, **kwargs)
            with open(self.csv, "w", encoding="utf-8", newline="") as fh:
                tracer.call("cli.write_trace_csv", self.write, trace, fh)
        seconds = perf_counter() - t0
        summary = (f"utility={trace.best_utility!r} "
                   f"rates={','.join(repr(float(x)) for x in best)} iterations={trace.iterations}")
        with open(self.csv, encoding="utf-8") as fh:
            failure, _ = oracles.check_cli_solve(0, summary, fh.read(), PINNED_PROBLEM)
        return {"seconds": seconds, "iterations": int(trace.iterations),
                "hyperplanes": int(np.sum(trace.projections)),
                "trace_bytes": os.path.getsize(self.csv), "gap": 0.0, "failure": failure}


def build(workload: str, seed: int, workdir: str):
    if workload == "enum-m20":
        return SolverWorkload(seed, ENUM_USERS, ENUM_POOL, ENUM_ITERS)
    if workload == "split-m100":
        return SolverWorkload(seed, SPLIT_USERS, SPLIT_POOL, SPLIT_ITERS)
    if workload == "check-m1000":
        return CheckWorkload(seed)
    if workload == "cli-pinned":
        return CliPassWorkload(workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_loop(step, pool: int, seconds: float):
    """Closed loop, one caller: the next call starts when the previous ends.

    ``step(i)`` gives the (kind, call) pairs of step i, all on distinct input
    i % pool. The loop makes at least MIN_SAMPLES steps and then goes on, in
    whole passes over the distinct inputs, until ``seconds`` have passed, so
    every input is called equally often. Returns (results by kind, calls
    attempted, failure reasons).
    """
    units: defaultdict[str, list[dict]] = defaultdict(list)
    failures = []
    attempted = i = 0
    deadline = perf_counter() + seconds
    while i < MIN_SAMPLES or i % pool or perf_counter() < deadline:
        for kind, call in step(i):
            attempted += 1
            try:
                unit = call()
            except Exception as exc:  # a raising call is a failed call; keep measuring
                traceback.print_exc(file=sys.stderr)
                failures.append(f"call raised {exc!r}")
                continue
            units[kind].append(unit)
            if unit["failure"]:
                failures.append(unit["failure"])
        i += 1
    return units, attempted, failures


def traced_steps(work, tracer: tracing.Tracer, swap, hook):
    """Step i: one untraced and one traced call on the same input.

    The traced call goes first on the first pass, so it sees the package's
    first-call costs (table builds); after that the order alternates.
    """

    def traced(i):
        tracer.first_pass = i < work.pool
        with swap:
            return work.unit(i, tracer, hook)

    def step(i):
        pair = [("traced", lambda: traced(i)), ("plain", lambda: work.unit(i))]
        return pair if i < work.pool or i % 2 else pair[::-1]

    return step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    work = build(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    absent: list[str] = []
    if args.mode == "plain":
        units, attempted, failures = run_loop(
            lambda i: [("plain", lambda: work.unit(i))], work.pool, args.seconds)
    elif getattr(work, "missing", None):
        # The in-process CLI pass cannot run: all of its layer metrics are absent.
        units, attempted, failures, absent = {}, 0, [], list(work.missing)
    else:
        tracer = tracing.Tracer()
        if args.workload == "check-m1000":
            swap = contextlib.nullcontext()
            hook, absent = tracing.traced_analyze(tracer)
        else:
            swap = tracing.Wrappers(tracer)
            hook, absent = swap.finder, list(swap.absent)
        units, attempted, failures = run_loop(
            traced_steps(work, tracer, swap, hook), work.pool, args.seconds)

    plain = units.get("plain", [])
    result = {
        "samples": [u["seconds"] for u in plain],
        "iterations": [u["iterations"] for u in plain],
        "gaps": [u["gap"] for u in plain[:work.pool]],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / tracing.MB,
    }
    if args.workload == "check-m1000":
        result["merges"] = CHECK_USERS - 1
    if args.mode == "traced":
        layers = {}
        if units:
            traced = units["traced"]
            result["traced_samples"] = [u["seconds"] for u in traced]
            layers = tracing.layer_metrics(tracer, traced, work.pool)
            for name in tracing.absent_metrics(list(layers), absent):
                del layers[name]
        result["layers"] = layers
        result["absent"] = absent
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
