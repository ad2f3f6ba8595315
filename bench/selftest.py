#!/usr/bin/env python3
"""Self-test of the benchmark: each workload on a tiny input.

    python3 bench/selftest.py

Checks, for every workload, that run.py exits 0 with a correct result;
that the result line has exactly the keys correct, attempted, failed and
metrics; that every metric name matches [A-Za-z0-9_.-]+ and carries a unit;
that the metric names are exactly those BENCHMARK.json lists; that every
traced span is reported; and that a second invocation prints identical
counts.  Finally, run.py must fail without a result in a directory that
holds only BENCHMARK.json and the benchmark.  Exits 1 on the first failure.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, TIMED_SPANS, TRACE_DIR

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 0


def expect(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, expected_names: set) -> tuple[dict, dict]:
    expect(proc.returncode == 0, proc.stderr)
    *_, counts_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] is True and result["failed"] == 0, proc.stderr)
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted < 1")
    for name, metric in result["metrics"].items():
        expect(NAME.fullmatch(name), name)
        expect(set(metric) == {"value", "unit"}, (name, metric))
        expect(isinstance(metric["unit"], str) and NAME.fullmatch(metric["unit"]), (name, metric))
        expect(isinstance(metric["value"], (int, float)), (name, metric))
    expect(set(result["metrics"]) == expected_names, set(result["metrics"]) ^ expected_names)
    return json.loads(counts_line), result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first, _ = result_of(run(workload, 0), end_to_end)
        second, _ = result_of(run(workload, 0), end_to_end)
        expect(first == second, f"{workload}: counts differ between invocations")
        traced, metrics = result_of(run(workload, 1), per_layer)
        expect(traced == first, f"{workload}: traced run counts differ")
        for name, value in traced["counts"].items():
            expect(metrics[name]["value"] == value, (workload, name))
        trace = json.loads((TRACE_DIR / f"trace-{workload}-tiny-seed{SEED}.json").read_text())
        unreported = {span[0] for span in trace["spans"]} - set(TIMED_SPANS)
        expect(not unreported, f"{workload}: spans without a metric: {unreported}")
        print(f"selftest: {workload} ok", file=sys.stderr)

    bare = TRACE_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout, "run.py must fail without the package")
    print("selftest: all ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
