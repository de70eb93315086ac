"""Spans recorded around calls into macalloc, from outside the package.

The traced calls run with public names in the ``macalloc.optimizer`` namespace
(``count_violations``, ``approximate_projection``, ``constraint_table``)
replaced by timing wrappers, a timing ``finder=`` passed to ``solve`` and the
utility object wrapped. The wrappers are swapped in for a traced call and out
again after it, so untraced calls in the same process run the package as is.
Nothing under ``src/`` changes. A name that no longer exists is reported as
absent, and the metrics it feeds are left out.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

MB = 1e6


class Tracer:
    """Sums over the spans of a run, by key.

    Each span adds its time to ``<name>.s``, one to ``<name>.calls``, and its
    time to ``<parent>.child_s`` of the span open when it started; wrappers
    add keys of their own. ``totals`` sums over the whole run. ``first`` sums
    over the first pass over the workload's distinct inputs (while
    ``first_pass`` is true), which are the same on every run of a seed, so
    counts taken from it repeat exactly.
    """

    def __init__(self):
        self.first_pass = True
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.first: defaultdict[str, float] = defaultdict(float)
        self._open: list[str] = []

    @property
    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self._open[-1] if self._open else None

    def add(self, key: str, value: float = 1.0) -> None:
        self.totals[key] += value
        if self.first_pass:
            self.first[key] += value

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, seconds)."""
        self._open.append(name)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - t0
            self._open.pop()
            self.add(f"{name}.s", seconds)
            self.add(f"{name}.calls")
            if self._open:
                self.add(f"{self._open[-1]}.child_s", seconds)
        return out, seconds

    def wrap(self, name, fn, attrs=None):
        """fn with each call recorded as a span; attrs(result) gives keys to add."""

        def traced(*args, **kwargs):
            out, _ = self.call(name, fn, *args, **kwargs)
            if attrs is not None:
                for key, value in attrs(out).items():
                    self.add(key, value)
            return out

        return traced


class TracedUtility:
    """Forwards to a utility, recording value and subgradient calls."""

    def __init__(self, inner, tracer: Tracer):
        self.value = tracer.wrap("utility", inner.value)
        self.subgradient = tracer.wrap("utility", inner.subgradient)
        self.bound = inner.bound


def _finder_attrs(subset) -> dict[str, float]:
    """Hit and subset size of one finder call."""
    if subset is None:
        return {}
    return {"violations.hits": 1.0, "violations.subset_size": float(len(subset))}


class Wrappers:
    """Timing wrappers for the solver's layers; ``with`` swaps them in.

    ``finder`` is the timing finder to pass to ``solve`` (None if absent) and
    ``absent`` lists the public names that no longer exist.
    """

    def __init__(self, tracer: Tracer):
        import macalloc.optimizer as optimizer
        import macalloc.projection as projection

        self.module = optimizer
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self.traced: dict[str, object] = {}
        for name, label in (("count_violations", "optimizer.count_violations"),
                            ("approximate_projection", "projection.approximate_projection")):
            fn = getattr(optimizer, name, None)
            if fn is None:
                self.absent.append(f"macalloc.optimizer.{name}")
            else:
                self.originals[name], self.traced[name] = fn, tracer.wrap(label, fn)

        table = getattr(optimizer, "constraint_table", None)
        if table is None:
            self.absent.append("macalloc.optimizer.constraint_table")
        else:
            info = getattr(table, "cache_info", None)

            def traced_table(config):
                before = info().misses if info else None
                out, seconds = tracer.call("channel.constraint_table", table, config)
                mb = sum(getattr(a, "nbytes", 0) for a in out) / MB
                if info is None or info().misses > before:
                    tracer.add("channel.builds")
                    tracer.add("channel.build_s", seconds)
                    tracer.add("channel.build_mb", mb)
                if tracer.parent == "optimizer.count_violations":
                    tracer.add("optimizer.count_violations.read_mb", mb)
                return out

            self.originals["constraint_table"], self.traced["constraint_table"] = table, traced_table

        self.finder = getattr(projection, "rate_split_finder", None)
        if self.finder is None:
            self.absent.append("macalloc.projection.rate_split_finder")
        else:
            self.finder = tracer.wrap("violations.finder", self.finder, _finder_attrs)

    def __enter__(self):
        for name, fn in self.traced.items():
            setattr(self.module, name, fn)
        return self

    def __exit__(self, *exc):
        for name, fn in self.originals.items():
            setattr(self.module, name, fn)
        return False


def traced_analyze(tracer: Tracer):
    """(rate_split_analyze recorded as one finder call or None, absent names)."""
    import macalloc.violations as violations

    fn = getattr(violations, "rate_split_analyze", None)
    if fn is None:
        return None, ["macalloc.violations.rate_split_analyze"]
    return tracer.wrap("violations.finder", fn,
                       lambda report: _finder_attrs(getattr(report, "subset", None))), []


# Public names each group of layer metrics is measured through.
SOURCES = {
    "channel.": {"macalloc.optimizer.constraint_table"},
    "optimizer.count_violations_": {"macalloc.optimizer.count_violations"},
    "projection.ms_per_iter": {"macalloc.optimizer.approximate_projection"},
    "projection.self_ms_per_iter": {"macalloc.optimizer.approximate_projection"},
    "violations.": {"macalloc.projection.rate_split_finder", "macalloc.violations.rate_split_analyze"},
    "cli.": {"macalloc.cli.load_problem", "macalloc.cli.write_trace_csv"},
}


def absent_metrics(names, absent: list[str]) -> list[str]:
    """Layer metrics measured through a public name that no longer exists."""
    return [n for n in names
            if any(n.startswith(prefix) and srcs.intersection(absent)
                   for prefix, srcs in SOURCES.items())]


def layer_metrics(tracer: Tracer, units: list[dict], first_pass: int) -> dict[str, float]:
    """Per-layer figures from the traced calls of a run.

    ``units`` holds one dict per traced call, in order, with its solver
    ``iterations`` and ``hyperplanes``; a call without solver iterations
    counts as one. Counts come from the first ``first_pass`` calls, times
    from every call.
    """
    total, first = tracer.totals, tracer.first

    def ms(name, self_only=False):
        return 1e3 * (total[f"{name}.s"] - (total[f"{name}.child_s"] if self_only else 0.0))

    def per(x, count):
        return x / count if count else 0.0

    head = units[:first_pass]
    iters = sum(max(u["iterations"], 1) for u in units)
    first_iters = sum(max(u["iterations"], 1) for u in head)
    builds = total["channel.builds"]
    first_finds = first["violations.finder.calls"]
    return {
        "channel.constraint_table_builds": builds,
        "channel.constraint_table_ms_per_build": per(1e3 * total["channel.build_s"], builds),
        "channel.constraint_table_mb": total["channel.build_mb"],
        "optimizer.count_violations_ms_per_iter": ms("optimizer.count_violations", True) / iters,
        "optimizer.count_violations_mb_per_iter": first["optimizer.count_violations.read_mb"] / first_iters,
        "violations.finder_calls_per_iter": first_finds / first_iters,
        "violations.finder_ms_per_call": per(ms("violations.finder"), total["violations.finder.calls"]),
        "violations.finder_ms_per_iter": ms("violations.finder") / iters,
        "violations.hit_ratio": per(first["violations.hits"], first_finds),
        "violations.subset_size_mean": per(first["violations.subset_size"], first["violations.hits"]),
        "projection.ms_per_iter": ms("projection.approximate_projection") / iters,
        "projection.self_ms_per_iter": ms("projection.approximate_projection", True) / iters,
        "projection.hyperplanes_per_iter": sum(u["hyperplanes"] for u in head) / first_iters,
        "utility.ms_per_iter": ms("utility") / iters,
        "optimizer.self_ms_per_iter": ms("optimizer.solve", True) / iters,
        "optimizer.iterations": sum(u["iterations"] for u in head) / len(head),
        "cli.parse_ms": ms("cli.load_problem") / len(units),
        "cli.solve_ms": ms("cli.solve") / len(units),
        "cli.write_trace_ms": ms("cli.write_trace_csv") / len(units),
        "cli.trace_bytes": sum(u.get("trace_bytes", 0) for u in head) / len(head),
    }
