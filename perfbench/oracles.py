"""Output checks and the certified gap, independent of the macalloc package.

Every oracle here recomputes capacities from 0.5 * log1p(P(S) / N0) with its
own code, so a defect in the package cannot hide itself by also breaking the
check. A check returns None when the output is correct and a one-line reason
otherwise; the benchmark counts every reason as one failed call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Slack tolerance, in nats, for a returned point to count as feasible.
FEASIBILITY_TOL = 1e-9

# Largest tolerated difference, in nats, between the slack a violation report
# carries and the benchmark's own value. The cascade slack is about -1e-7
# times the sum-rate capacity, so this is about 0.1% of it.
SLACK_TOL = 1e-9

# Largest relative distance of the CLI's best utility from the vertex optimum.
CLI_UTILITY_REL_TOL = 1e-3

# The pinned CLI problem: two equal users, linear utility 2 R_1 + R_2.
PINNED_PROBLEM = {
    "powers": [1.0, 1.0],
    "noise": 1.0,
    "utility": {"type": "linear", "weights": [2.0, 1.0]},
    "stepsize": {"rule": "constant", "alpha0": 2e-4},
    "max_iters": 3000,
    "tol": 1e-12,
}

# Offset of the log utility whose subgradient the solver workloads use.
LOG_EPSILON = 1e-2


def capacity(power_sum: float, noise: float) -> float:
    return 0.5 * math.log1p(power_sum / noise)


def log_gradient(rates, epsilon: float = LOG_EPSILON) -> list[float]:
    """Subgradient of sum_i ln(epsilon + R_i)."""
    return [1.0 / (epsilon + float(r)) for r in rates]


def greedy_vertex(powers, noise: float, gradient) -> list[float]:
    """The vertex that maximizes gradient . R over the capacity region.

    Users are served in order of decreasing gradient (ties by index); each
    gets the capacity increase its power adds to those served before it.
    """
    order = sorted(range(len(gradient)), key=lambda i: (-gradient[i], i))
    vertex = [0.0] * len(order)
    power_sum = prev = 0.0
    for i in order:
        power_sum += powers[i]
        cap = capacity(power_sum, noise)
        vertex[i] = cap - prev
        prev = cap
    return vertex


def fw_gap(powers, noise: float, gradient, rates) -> float:
    """Frank-Wolfe duality gap g . (v - R), an upper bound on U* - U(R)
    for a concave utility with subgradient g at a feasible R."""
    vertex = greedy_vertex(powers, noise, gradient)
    return math.fsum(g * (v - float(r)) for g, v, r in zip(gradient, vertex, rates))


def _subset_sums(values) -> np.ndarray:
    """Entry k is the sum of values[i] over the bits i set in k."""
    sums = np.zeros(1)
    for x in values:
        sums = np.concatenate([sums, sums + x])
    return sums


def enumerated_min_slack(powers, noise: float, rates) -> float:
    """Smallest slack over all 2**M - 1 sum-rate constraints."""
    caps = 0.5 * np.log1p(_subset_sums(powers)[1:] / noise)
    loads = _subset_sums(np.asarray(rates, dtype=float))[1:]
    return float((caps - loads).min())


def _negative(rates) -> str | None:
    low = min(float(r) for r in rates)
    return f"negative rate {low:.3g}" if low < 0.0 else None


def check_enumerated(powers, noise: float, rates) -> str | None:
    """Feasibility by enumerating every constraint (small M)."""
    if reason := _negative(rates):
        return reason
    worst = enumerated_min_slack(powers, noise, rates)
    return f"constraint violated by {-worst:.3g} nats" if worst < -FEASIBILITY_TOL else None


def check_sampled(powers, noise: float, rates, gap: float) -> str | None:
    """Feasibility on the constraints most likely to break, at any M.

    Checks nonnegativity, every singleton, the full set, and the prefixes of
    users sorted by R_i and by R_i / P_i in both directions; a feasible point
    also has a nonnegative certified gap.
    """
    if reason := _negative(rates):
        return reason
    r = [float(x) for x in rates]
    m = len(r)
    for i in range(m):
        if r[i] > capacity(powers[i], noise) + FEASIBILITY_TOL:
            return f"singleton {{{i + 1}}} violated"
    for key in (lambda i: r[i], lambda i: r[i] / powers[i]):
        for reverse in (False, True):
            order = sorted(range(m), key=key, reverse=reverse)
            load = power_sum = 0.0
            for size, i in enumerate(order, start=1):
                load += r[i]
                power_sum += powers[i]
                if load > capacity(power_sum, noise) + FEASIBILITY_TOL:
                    return f"prefix of {size} users violated"
    if gap < -FEASIBILITY_TOL:
        return f"negative certified gap {gap:.3g}"
    return None


def cascade_rates(m: int, power: float, noise: float = 1.0) -> list[float]:
    """Equal rates just past the sum-rate bound of m users of equal power."""
    return [capacity(m * power, noise) / m * (1.0 + 1e-7)] * m


def check_cascade(report, m: int, power: float, noise: float, rates) -> str | None:
    """The report names the full user set with the benchmark's own slack."""
    if type(report).__name__ != "Violated":
        return f"expected a Violated report, got {type(report).__name__}"
    if frozenset(report.subset) != frozenset(range(1, m + 1)):
        return f"expected all {m} users in the violated subset, got {len(report.subset)}"
    own = capacity(m * power, noise) - math.fsum(float(r) for r in rates)
    if abs(report.slack - own) > SLACK_TOL:
        return f"slack {report.slack:.6g} differs from {own:.6g}"
    return None


def vertex_optimum(powers, noise: float, weights) -> float:
    """Best linear utility over all M! decoding-order vertices (small M)."""
    best = -math.inf
    for order in itertools.permutations(range(len(powers))):
        power_sum = prev = value = 0.0
        for i in order:
            power_sum += powers[i]
            cap = capacity(power_sum, noise)
            value += weights[i] * (cap - prev)
            prev = cap
        best = max(best, value)
    return best


def parse_summary(stdout: str) -> dict[str, str]:
    """key=value fields of the last line `macalloc solve` prints."""
    lines = stdout.strip().splitlines()
    return dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok) if lines else {}


def check_cli_solve(returncode: int, stdout: str, csv_text: str, problem: dict):
    """Check one `macalloc solve` run on a linear-utility problem.

    Returns (reason or None, printed best rates or None). Only the exit code,
    the summary's utility, rates and iteration count, and the CSV's iter and
    R_* columns are read: the other columns may change meaning.
    """
    if returncode != 0:
        return f"exit code {returncode}", None
    fields = parse_summary(stdout)
    try:
        utility = float(fields["utility"])
        rates = [float(x) for x in fields["rates"].split(",")]
        iterations = int(fields["iterations"])
    except (KeyError, ValueError):
        return f"unparsable summary line {stdout.strip()[-200:]!r}", None
    m = len(problem["powers"])
    if len(rates) != m:
        return f"summary has {len(rates)} rates, expected {m}", None

    lines = csv_text.splitlines()
    if not lines:
        return "empty trace CSV", rates
    header = lines[0].split(",")
    try:
        cols = [header.index("iter")] + [header.index(f"R_{i}") for i in range(1, m + 1)]
    except ValueError:
        return f"trace CSV header lacks iter or R_* columns: {lines[0]!r}", rates
    rows = lines[1:]
    if len(rows) != iterations + 1:
        return f"trace CSV has {len(rows)} rows, expected {iterations + 1}", rates
    found = False
    for k, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != len(header):
            return f"trace CSV row {k} has {len(cells)} cells, expected {len(header)}", rates
        try:
            row = [float(cells[c]) for c in cols]
        except ValueError:
            return f"trace CSV row {k} is not numeric", rates
        if row[0] != k:
            return f"trace CSV row {k} has iter {cells[cols[0]]}", rates
        found = found or all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                             for a, b in zip(row[1:], rates))
    if not found:
        return "summary rates appear in no trace CSV row", rates

    optimum = vertex_optimum(problem["powers"], problem["noise"], problem["utility"]["weights"])
    if not abs(optimum - utility) <= CLI_UTILITY_REL_TOL * abs(optimum):
        return f"best utility {utility:.9g} is not within {CLI_UTILITY_REL_TOL:g} of {optimum:.9g}", rates
    return None, rates
