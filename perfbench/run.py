"""aqecsim benchmark: one workload, one process, one caller.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stiff_arms --seed 1 --seconds 15 --trace 0

The workload's ops run one after another (a closed loop with a single
caller), in whole passes over the op list, until the next pass would end past
``--seconds`` of op time; at least one pass always runs.  Each op is timed
from outside and its output is checked against an oracle after the timer
stops.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's public functions and prints the per-layer metrics instead.  The last
line of standard output is the JSON result; the full record, with machine
facts, per-op latencies, oracle findings and (traced) the spans, goes to
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()  # set-up is measured from here, before any import

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes, for perfbench/selftest.py")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "aqecsim" / "__init__.py").is_file():
        print(f"perfbench: no aqecsim sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import measure

    if Path(measure.analysis.__file__).parent.resolve() \
            != (src / "aqecsim").resolve():
        print(f"perfbench: imported aqecsim from {measure.analysis.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.workload not in measure.workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(measure.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.run(args, root, T0)


if __name__ == "__main__":
    sys.exit(main())
