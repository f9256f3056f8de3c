"""Reduced-size self-test of the benchmark (perfbench/run.py).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``perfbench/run.py --small``
untraced and traced.  It checks that the last output line is the result
object with exactly the keys correct, attempted, failed and metrics; that
every op passed its oracle; that every end-to-end (untraced) or per-layer
(traced) metric is emitted with its unit and nothing else; and that the
traced self times account for the traced op time.  Last, it checks that
run.py fails without printing a result in a directory that holds only
BENCHMARK.json and the benchmark.
Exits 0 when everything holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 300


def _run(cwd, workload, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _check_result(proc, expected, label):
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: {result['failed']} of "
                        f"{result['attempted']} ops failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {got} != expected {expected}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)) \
                or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} = {entry['value']!r}")
    ratio = result["metrics"].get("trace.accounted_ratio", {}).get("value")
    if ratio is not None and abs(ratio - 1.0) > 0.02:
        problems.append(f"{label}: self times account for {ratio:.1%} "
                        "of the traced op time")
    return problems


def _check_without_sources(root):
    """run.py must refuse a directory with only the benchmark in it."""
    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "stiff_arms", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: run.py did not fail without sources"]
    return []


def main():
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for wl in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            label = f"{wl['name']} trace {trace}"
            found = _check_result(_run(root, wl["name"], trace), expected,
                                  label)
            print(f"{label}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    found = _check_without_sources(root)
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
