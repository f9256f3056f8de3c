"""Measurement loop behind ``perfbench/run.py``.

Imported only after ``run.py`` has put the checkout's ``src`` first on the
path and pinned the BLAS thread count, so numpy and aqecsim load under those
settings.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from aqecsim import analysis, cli, config, model, operators, solver, tomography

import spans
import workloads

SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
CHILD_TIMEOUT_S = 120
MODULES = {"analysis": analysis, "cli": cli, "config": config, "model": model,
           "operators": operators, "solver": solver, "tomography": tomography}
LAYER_TIMES = ("config.load", "model.hamiltonian", "model.collapse",
               "solver.evolve", "solver.observable", "solver.sweep",
               "solver.fringe", "operators.partial_trace",
               "operators.validate", "analysis.metrics", "analysis.fit",
               "tomography.sample", "tomography.mle", "tomography.fidelity")
LAYER_CALLS = ("config.load", "model.hamiltonian", "solver.evolve",
               "operators.partial_trace", "operators.validate",
               "analysis.metrics", "tomography.mle")


def machine_facts(root):
    """nproc, CPU, BLAS, versions and commit, for every result record."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
    }


def _git_commit(root):
    """HEAD commit read from .git, or None when the checkout has no .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_setup_times(args, root, n):
    """Set-up time of ``n`` fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    if args.small:
        cmd.append("--small")
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def _run_pass(ops, pass_no, tracer, log):
    """One pass over the op list; returns per-op latencies and failures."""
    latencies, failed = [], 0
    for op in ops:
        op_id = f"{pass_no}:{op.name}"
        t = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op(op_id):
                    output = op.run()
            else:
                output = op.run()
            error = None
        except Exception:  # an op that raises counts as failed, run goes on
            error = traceback.format_exc()
        dt = time.perf_counter() - t
        latencies.append(dt)
        entry = {"op": op_id, "latency_s": dt, "traced": tracer is not None}
        if error is None:
            try:
                findings = op.check(output)
                if findings:
                    entry["findings"] = findings
            except Exception:  # oracle miss or a check that cannot run
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            entry["error"] = error
            print(f"perfbench: op {op_id} failed:\n{error}", file=sys.stderr)
        log.append(entry)
    return latencies, failed


def _layer_metrics(tracer, traced_latencies, n_passes):
    """Per-pass layer metrics from the spans; see README for definitions."""
    own = tracer.self_times()
    calls = tracer.call_counts()
    self_by = {}
    for span, t_self in zip(tracer.spans, own):
        self_by[span[0]] = self_by.get(span[0], 0.0) + t_self
    wall = sum(traced_latencies)
    per = 1.0 / n_passes
    m = {}
    for group in LAYER_TIMES:
        m[f"{group}_s"] = (self_by.get(group, 0.0) * per, "s")
    for group in LAYER_CALLS:
        m[f"{group}_calls"] = (calls.get(group, 0) * per, "count")
    c = tracer.counters
    m["solver.rhs_evals"] = (c.get("rhs_evals", 0) * per, "count")
    m["solver.snapshots"] = (c.get("snapshots", 0) * per, "count")
    m["tomography.mle_iters"] = (c.get("mle_iters", 0) * per, "count")
    n_mle = calls.get("tomography.mle", 0)
    m["tomography.mle_converged_ratio"] = (
        c.get("mle_converged", 0) / n_mle if n_mle else 0.0, "1")
    m["cli.self_s"] = (self_by.get(spans.OP, 0.0) * per, "s")
    m["trace.wall_s"] = (wall * per, "s")
    m["trace.accounted_ratio"] = (sum(own) / wall, "1")
    return m


def run(args, root, t0):
    """Set up, measure, check, report.  Returns the process exit code."""
    base = root / ".perfbench"
    workdir = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure(args, root, base, workdir, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, root, base, workdir, t0):
    rng = np.random.default_rng(args.seed)
    ops = workloads.WORKLOADS[args.workload](workdir, rng, small=args.small)
    workloads.warm_up(workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += _child_setup_times(args, root, SETUP_SAMPLES - 1)

    # Timed phase.  A traced run alternates untraced and traced passes, so
    # the tracing overhead is measured in the same process.
    tracer = spans.Tracer(MODULES) if args.trace else None
    log, latencies, failed = [], [], 0
    pass_times = {False: [], True: []}
    pass_no, spent = 0, 0.0
    while True:
        traced = bool(args.trace) and pass_no % 2 == 1
        if traced:
            tracer.install()
        try:
            lat, n_failed = _run_pass(ops, pass_no, tracer if traced else None,
                                      log)
        finally:
            if traced:
                tracer.uninstall()
        latencies += lat
        failed += n_failed
        pass_times[traced].append(sum(lat))
        spent += sum(lat)
        pass_no += 1
        enough = not args.trace or pass_times[True]
        typical = statistics.median(pass_times[False] + pass_times[True])
        if enough and spent + typical > args.seconds:
            break

    attempted = len(latencies)
    if args.trace:
        traced_latencies = [e["latency_s"] for e in log if e["traced"]]
        metrics = _layer_metrics(tracer, traced_latencies,
                                 len(pass_times[True]))
        metrics["trace.overhead_s"] = (
            statistics.median(pass_times[True])
            - statistics.median(pass_times[False]), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(pass_times[False]), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    facts = machine_facts(root)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "small": args.small, "machine": facts,
        "passes": pass_no, "setup_samples_s": setup_samples,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "metrics": metrics, "ops": log,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(results / f"{stem}_spans.jsonl")

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in "
          f"{pass_no} passes, failed_ratio {failed}/{attempted}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    findings = [e["findings"] for e in log if "findings" in e]
    if findings:
        print(f"findings: {json.dumps(findings[-1])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
