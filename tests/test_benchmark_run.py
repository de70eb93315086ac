"""One traced benchmark run, end to end, must report every layer metric.

``perfbench/run.py --trace 1`` exits 0 even when a public name it wraps is
gone: it leaves the layer metrics measured through that name out of its
result line. So a cleanup next to those names can pass every other test and
still leave the benchmark without its figures. The run here takes a few
seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_traced_enum_run_reports_every_layer_metric():
    command = [sys.executable, str(PERFBENCH / "run.py"),
               "--workload", "enum-m20", "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == expected
    assert "# absent public names" not in run.stdout


def test_tracing_finds_every_public_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    assert tracing.Wrappers(tracer).absent == []
    assert tracing.traced_analyze(tracer)[1] == []
