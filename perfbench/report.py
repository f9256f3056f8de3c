"""Run every workload over several seeds and print each metric's spread.

Run from the root of a source checkout:

    python3 perfbench/report.py --seeds 1 2 3 --trace 0

Each (workload, seed) is one ``perfbench/run.py`` process with the
``run_seconds`` of BENCHMARK.json.  The table gives, per workload and metric,
the median, the quartile spread (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives the quartiles, and the metric's
bound.  A run that fails or reports ``correct: false`` makes the exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="+", default=None)
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    status = 0
    for workload in names:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            print(f"{workload} seed {seed}: {result['failed']}/"
                  f"{result['attempted']} ops failed", flush=True)
            for name, entry in result["metrics"].items():
                values.setdefault((name, entry["unit"]), []).append(
                    entry["value"])
        for (name, unit), vals in values.items():
            med = statistics.median(vals)
            line = f"  {workload:14s} {name:32s} {med:12.6g} {unit:6s}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f" spread {(q3 - q1) / abs(med):.3f}"
            if bounds.get(name) is not None:
                line += f" bound {bounds[name]}"
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
