"""Outside-in benchmark of macalloc: one workload per run.

    python3 perfbench/run.py --workload enum-m20 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``, nothing is installed. Every workload runs in fresh single-threaded
processes, started one at a time, so this process and at most one child are
alive. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes each
call of the workload twice in one process, untraced and traced, and prints the
per-layer metrics, with the ratio of the two as the tracing overhead. The
last line of output is one JSON object; the lines before it record the
environment and the sample counts. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Single-threaded numeric libraries here and in every child process. Set
# before oracles imports numpy, whose BLAS reads them when it loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import oracles  # noqa: E402
from oracles import PINNED_PROBLEM  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("enum-m20", "split-m100", "check-m1000", "cli-pinned")
SETUP_PROBES = 7
TAIL_BEYOND = 10
MIN_SAMPLES = 2 * TAIL_BEYOND     # wall_s_tail needs 10 samples beyond its percentile
KILL_AFTER_S = 170.0      # the whole run stops short of 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s_p50": "s", "wall_s_tail": "s", "iter_ms": "ms",
    "fw_gap": "nats", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "channel.constraint_table_builds": "count",
    "channel.constraint_table_ms_per_build": "ms",
    "channel.constraint_table_mb": "MB",
    "optimizer.count_violations_ms_per_iter": "ms",
    "optimizer.count_violations_mb_per_iter": "MB",
    "violations.finder_calls_per_iter": "count",
    "violations.finder_ms_per_call": "ms",
    "violations.finder_ms_per_iter": "ms",
    "violations.hit_ratio": "ratio",
    "violations.subset_size_mean": "count",
    "projection.ms_per_iter": "ms",
    "projection.self_ms_per_iter": "ms",
    "projection.hyperplanes_per_iter": "count",
    "utility.ms_per_iter": "ms",
    "optimizer.self_ms_per_iter": "ms",
    "optimizer.iterations": "count",
    "cli.parse_ms": "ms",
    "cli.solve_ms": "ms",
    "cli.write_trace_ms": "ms",
    "cli.trace_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result; no JSON line is printed."""


class Children:
    """The one child process alive at a time, killed if the run is cut short."""

    def __init__(self):
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.current: subprocess.Popen | None = None

    def start(self, args: list[str]) -> subprocess.Popen:
        self.current = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=None, text=True)
        return self.current

    def reap(self) -> tuple[int, float]:
        """Wait for the current child; returns (exit code, its peak RSS in MB)."""
        _, status, usage = os.wait4(self.current.pid, 0)
        self.current.returncode = code = os.waitstatus_to_exitcode(status)
        self.current.stdout.close()
        self.current = None
        return code, usage.ru_maxrss * 1024 / 1e6

    def kill(self) -> None:
        if self.current is not None:
            self.current.kill()
            self.current.wait()
            self.current = None


def worker_args(workload: str, seed: int, mode: str, seconds: float = 0.0) -> list[str]:
    return [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", repr(seconds), "--workdir", str(WORKDIR)]


def run_worker(children: Children, workload: str, seed: int, mode: str, seconds: float = 0.0):
    """Start a worker; returns (seconds until it was ready, its result or None)."""
    t0 = perf_counter()
    proc = children.start(worker_args(workload, seed, mode, seconds))
    ready = proc.stdout.readline()
    setup = perf_counter() - t0
    lines = proc.stdout.read().splitlines()
    code, _ = children.reap()
    if ready.strip() != "ready" or code != 0 or (mode != "setup" and not lines):
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    return setup, json.loads(lines[-1]) if mode != "setup" else None


def run_cli(children: Children, seconds: float) -> dict:
    """`python -m macalloc solve` on the pinned problem, one process at a time."""
    problem = WORKDIR / "pinned.json"
    problem.write_text(json.dumps(PINNED_PROBLEM), encoding="utf-8")
    csv = WORKDIR / "cli.csv"
    samples, iterations, gaps, failures = [], [], [], []
    rss = 0.0
    attempted = 0
    deadline = perf_counter() + seconds
    while attempted < MIN_SAMPLES or perf_counter() < deadline:
        csv.unlink(missing_ok=True)
        attempted += 1
        t0 = perf_counter()
        proc = children.start(["-m", "macalloc", "solve", str(problem), "--trace", str(csv)])
        stdout = proc.stdout.read()
        code, child_rss = children.reap()
        samples.append(perf_counter() - t0)
        rss = max(rss, child_rss)
        text = csv.read_text(encoding="utf-8") if csv.exists() else ""
        failure, rates = oracles.check_cli_solve(code, stdout, text, PINNED_PROBLEM)
        if failure:
            failures.append(failure)
        if rates is not None:
            weights = PINNED_PROBLEM["utility"]["weights"]
            gaps.append(oracles.fw_gap(PINNED_PROBLEM["powers"], PINNED_PROBLEM["noise"], weights, rates))
            iterations.append(int(oracles.parse_summary(stdout)["iterations"]))
    return {"samples": samples, "iterations": iterations, "gaps": gaps, "attempted": attempted,
            "failed": len(failures), "failures": failures[:5], "rss_mb": rss}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(workload: str, setups: list[float], res: dict) -> dict[str, float]:
    samples = res["samples"]
    if len(samples) < MIN_SAMPLES or not res["gaps"]:
        raise BenchError(f"{workload}: {len(samples)} samples, {len(res['gaps'])} checked outputs")
    tail_value, pct = tail(samples)
    if workload == "check-m1000":
        work_units = res["merges"] * len(samples)      # ms per merge round of the recursion
    else:
        work_units = sum(res["iterations"])            # ms per solver iteration
    print(f"# {workload}: n={len(samples)} wall_s_tail=p{pct:.1f} "
          f"error_rate={res['failed']}/{res['attempted']} failures={res['failures']}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s_p50": statistics.median(samples),
        "wall_s_tail": tail_value,
        "iter_ms": 1e3 * sum(samples) / work_units,
        "fw_gap": statistics.median(res["gaps"]),
        "peak_rss_mb": res["rss_mb"],
    }


def environment() -> dict:
    import numpy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "commit": git_commit()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        env["blas"] = "unknown"
    env["cpu"] = _proc_field("/proc/cpuinfo", "model name")
    env["mem_total"] = _proc_field("/proc/meminfo", "MemTotal")
    return env


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def measure(args, children: Children) -> dict:
    if not (ROOT / "src" / "macalloc" / "__init__.py").is_file():
        raise BenchError(f"no macalloc sources under {ROOT / 'src'}")
    WORKDIR.mkdir(exist_ok=True)
    print(f"# env: {json.dumps(environment())}")

    if not args.trace:
        setups = [run_worker(children, args.workload, args.seed, "setup")[0]
                  for _ in range(SETUP_PROBES)]
        if args.workload == "cli-pinned":
            res = run_cli(children, args.seconds)
        else:
            _, res = run_worker(children, args.workload, args.seed, "plain", args.seconds)
        metrics, units = end_to_end(args.workload, setups, res), END_TO_END_UNITS
        attempted, failed = res["attempted"], res["failed"]
    else:
        _, res = run_worker(children, args.workload, args.seed, "traced", args.seconds)
        metrics, units = dict(res["layers"]), LAYER_UNITS
        if res["samples"]:
            # Untraced and traced calls alternate in one process, on the same inputs.
            metrics["trace.overhead_ratio"] = (statistics.median(res["traced_samples"])
                                               / statistics.median(res["samples"]))
        if res["absent"]:
            print(f"# absent public names: {res['absent']}; their layer metrics are omitted")
        print(f"# {args.workload}: n={len(res['samples'])} untraced + "
              f"{len(res.get('traced_samples', []))} traced "
              f"error_rate={res['failed']}/{res['attempted']} failures={res['failures']}")
        attempted, failed = res["attempted"], res["failed"]

    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {KILL_AFTER_S:.0f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    children = Children()
    signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, KILL_AFTER_S)
    try:
        result = measure(args, children)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        children.kill()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
