"""Batch command-line front end.

Subcommands: ``solve`` runs the gradient projection solver and writes a CSV
iteration trace, ``check`` classifies a rate point as feasible or violated,
``region`` dumps every sum-rate constraint. Problem instances are JSON files;
all stored values are in nats (``solve --bits`` converts displayed rates
only). Exit codes: 0 success, 1 I/O failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import BRUTE_FORCE_MAX_USERS, ChannelConfig, subset_capacity, subset_members
from .optimizer import (
    ConstantStep,
    DiminishingStep,
    IterationTrace,
    SolveSettings,
    StepsizeRule,
    TheoremCappedStep,
    solve,
)
from .utility import LinearUtility, Utility, WeightedLogUtility
from .violations import Violated, rate_split_analyze

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2

_NATS_PER_BIT = math.log(2.0)


class ProblemFileError(Exception):
    """Schema violation in a problem file; message is anchored to the file."""


@dataclass(frozen=True)
class Problem:
    config: ChannelConfig
    utility: Utility
    rule: StepsizeRule
    settings: SolveSettings


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _expect_number(raw, where: str, positive: bool = False, nonneg: bool = False) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ProblemFileError(f"{where}: expected a number, got {raw!r}")
    x = float(raw)
    if not math.isfinite(x):
        raise ProblemFileError(f"{where}: must be finite")
    if positive and not x > 0:
        raise ProblemFileError(f"{where}: must be > 0, got {x}")
    if nonneg and x < 0:
        raise ProblemFileError(f"{where}: must be >= 0, got {x}")
    return x


def _expect_weights(raw, where: str, m: int) -> list[float]:
    if not isinstance(raw, list) or len(raw) != m:
        raise ProblemFileError(f"{where}: expected a list of {m} numbers")
    return [_expect_number(v, f"{where}[{i}]", nonneg=True) for i, v in enumerate(raw)]


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemFileError(f"{where}: unknown field(s) {sorted(unknown)}")


def parse_problem(data, path: str) -> Problem:
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    _reject_unknown(data, {"powers", "noise", "utility", "stepsize", "max_iters", "tol"}, path)

    raw_powers = data.get("powers")
    if not isinstance(raw_powers, list) or not raw_powers:
        raise ProblemFileError(f"{path}: powers: expected a nonempty list")
    powers = [_expect_number(v, f"{path}: powers[{i}]", positive=True) for i, v in enumerate(raw_powers)]
    if "noise" not in data:
        raise ProblemFileError(f"{path}: noise: missing")
    noise = _expect_number(data["noise"], f"{path}: noise", positive=True)
    config = ChannelConfig(tuple(powers), noise)
    m = config.num_users

    uspec = data.get("utility", {"type": "linear", "weights": [1.0] * m})
    if not isinstance(uspec, dict):
        raise ProblemFileError(f"{path}: utility: expected an object")
    utype = uspec.get("type")
    if utype == "linear":
        _reject_unknown(uspec, {"type", "weights"}, f"{path}: utility")
        utility: Utility = LinearUtility(_expect_weights(uspec.get("weights"), f"{path}: utility.weights", m))
    elif utype == "weighted_log":
        _reject_unknown(uspec, {"type", "weights", "epsilon"}, f"{path}: utility")
        eps = _expect_number(uspec.get("epsilon", 1e-2), f"{path}: utility.epsilon", positive=True)
        utility = WeightedLogUtility(_expect_weights(uspec.get("weights"), f"{path}: utility.weights", m), eps)
    else:
        raise ProblemFileError(f"{path}: utility.type: unknown type {utype!r}")

    sspec = data.get("stepsize", {"rule": "diminishing", "alpha0": 0.1})
    if not isinstance(sspec, dict):
        raise ProblemFileError(f"{path}: stepsize: expected an object")
    _reject_unknown(sspec, {"rule", "alpha0"}, f"{path}: stepsize")
    alpha0 = _expect_number(sspec.get("alpha0", 0.1), f"{path}: stepsize.alpha0", positive=True)
    srule = sspec.get("rule")
    if srule == "constant":
        rule: StepsizeRule = ConstantStep(alpha0)
    elif srule == "diminishing":
        rule = DiminishingStep(alpha0)
    elif srule == "theorem_capped":
        rule = TheoremCappedStep(alpha0)
    else:
        raise ProblemFileError(f"{path}: stepsize.rule: unknown rule {srule!r}")

    max_iters = data.get("max_iters", 100_000)
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise ProblemFileError(f"{path}: max_iters: expected an integer >= 1, got {max_iters!r}")
    tol = _expect_number(data.get("tol", 1e-12), f"{path}: tol", positive=True)

    return Problem(config, utility, rule, SolveSettings(max_iters=max_iters, tol=tol))


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return parse_problem(data, path)


def write_trace_csv(trace: IterationTrace, fh) -> None:
    m = trace.rates.shape[1]
    header = ["iter"] + [f"R_{i}" for i in range(1, m + 1)]
    header += ["utility", "stepsize", "grad_norm", "violations_pre_projection", "projections"]
    fh.write(",".join(header) + "\n")
    for k in range(len(trace)):
        row = [str(k)]
        row += [_fmt(x) for x in trace.rates[k]]
        row += [_fmt(trace.utilities[k]), _fmt(trace.stepsizes[k]), _fmt(trace.grad_norms[k])]
        row += [str(int(trace.violations_pre[k])), str(int(trace.projections[k]))]
        fh.write(",".join(row) + "\n")


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    best, trace = solve(problem.config, problem.utility, problem.rule, problem.settings)
    with open(args.trace, "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(trace, fh)
    shown = best / _NATS_PER_BIT if args.bits else best
    units = "bits" if args.bits else "nats"
    print(
        f"utility={_fmt(trace.best_utility)} "
        f"rates={','.join(_fmt(x) for x in shown)} "
        f"iterations={trace.iterations} units={units}"
    )
    return EXIT_OK


def _fmt_members(members: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    m = problem.config.num_users
    rates = args.rate or []
    if len(rates) != m:
        print(f"expected {m} --rate values, got {len(rates)}", file=sys.stderr)
        return EXIT_INVALID
    if not all(0.0 <= r < math.inf for r in rates):
        print("rates must be finite and nonnegative", file=sys.stderr)
        return EXIT_INVALID
    report = rate_split_analyze(problem.config, np.asarray(rates))
    if isinstance(report, Violated):
        print(f"VIOLATED {_fmt_members(report.subset)} slack={_fmt(report.slack)}")
    else:
        order = ",".join("+".join(str(i) for i in sorted(u.members)) for u in report.decoding_order)
        print(f"FEASIBLE order={order}")
    return EXIT_OK


def cmd_region(args) -> int:
    problem = load_problem(args.problem)
    m = problem.config.num_users
    if m > BRUTE_FORCE_MAX_USERS:
        print(f"region listing capped at {BRUTE_FORCE_MAX_USERS} users, got {m}", file=sys.stderr)
        return EXIT_INVALID
    for mask in range(1, 2**m):
        members = subset_members(mask)
        cap = subset_capacity(problem.config, members)
        print(f"{mask} {_fmt_members(members)} {_fmt(cap)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macalloc",
        description="Rate allocation over the Gaussian multiple-access capacity region.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver and write a CSV trace")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument("--trace", required=True, help="output CSV path")
    p_solve.add_argument("--bits", action="store_true", help="display rates in bits")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="classify a rate point")
    p_check.add_argument("problem", help="problem JSON file")
    p_check.add_argument("--rate", action="append", type=float, help="one rate per user, in nats")
    p_check.set_defaults(func=cmd_check)

    p_region = sub.add_parser("region", help="list all sum-rate constraints")
    p_region.add_argument("problem", help="problem JSON file")
    p_region.set_defaults(func=cmd_region)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
