#!/usr/bin/env python3
"""Benchmark command for mffftnet.

Usage (from the repository root):
    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

Workloads: ``desk-train``, ``paper-step`` and ``probe-eval`` (see
``perfbench/workloads.py``).  ``BENCHMARK.json`` lists the first and the
last; one ``paper-step`` run takes about a minute whatever ``--seconds``
says, so it is run by hand.  The workload seed generates the corpus CSV,
which is the only input the program gets.

``--trace 0`` measures with no instrumentation and reports the end-to-end
metrics.  ``--trace 1`` is a separate run of the same work with every layer
wrapped (see ``tracing.py``); it reports the per-layer metrics and writes
its spans to ``.perfbench-out/traces/``.  Its ``trace.wall_s`` minus the
untraced run's ``wall_s`` for the same seed is the tracing overhead, and
both runs print the same fingerprint (first-step loss, probe MSE) when
tracing leaves the arithmetic alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run's metadata, fingerprint, checks and every end-to-end metric
that applies to the workload (``train_windows_per_s``, ``step_p90_s``,
``probe_windows_per_s``, ``probe_mse``, ``fail_ratio`` and the rest).
The command exits non-zero without a result when ``src/mffftnet`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = min(2, os.cpu_count() or 1)
WORKLOAD_NAMES = ("desk-train", "paper-step", "probe-eval")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": BLAS_THREADS},
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _report(res, peak_rss_mb) -> dict:
    """Every end-to-end metric that applies to this workload."""
    median = statistics.median
    rep = {"setup_s": _metric(median(res.setup_s), "s"),
           "wall_s": _metric(res.wall_s, "s"),
           "peak_rss_mb": _metric(peak_rss_mb, "MB"),
           "fail_ratio": _metric(res.failed / res.attempted, "1")}
    rep["step_p50_s"] = dict(_metric(median(res.step_s), "s"), samples=len(res.step_s))
    if len(res.step_s) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(res.step_s, n=10)[-1]
        rep["step_p90_s"] = dict(_metric(p90, "s"), samples=len(res.step_s))
    if res.losses:
        rep["train_windows_per_s"] = _metric(res.train_windows / res.loop_s, "1/s")
    if res.probe_s:
        rep["probe_windows_per_s"] = _metric(res.probe_windows / sum(res.probe_s), "1/s")
        rep["probe_mse"] = _metric(res.probe_mse, "1")
    return rep


def _end_to_end(rep) -> dict:
    """The metrics BENCHMARK.json bounds: the same four on every workload.

    Throughput and wall time are totals over the whole measured loop; on a
    host whose speed drifts between phases they vary less from run to run
    than a median step, which stays in the report line.
    """
    return {
        "setup_s": rep["setup_s"],
        "wall_s": rep["wall_s"],
        "windows_per_s": rep.get("train_windows_per_s", rep.get("probe_windows_per_s")),
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "mffftnet").is_dir():
        print(f"error: {ROOT / 'src' / 'mffftnet'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import tracing as tr
    from workloads import WORKLOADS

    run_workload, write_corpus = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tracer = tr.Tracer() if args.trace else tr.NullTracer()
    try:
        csv_path = workdir / "corpus.csv"
        write_corpus(csv_path, args.seed)
        with tr.WarningCounter() as warn:
            if args.trace:
                tracer.install()
            try:
                res = run_workload(csv_path, workdir, args.seconds, tracer)
            finally:
                if args.trace:
                    tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not res.step_s:
        print("error: no step of the workload completed, nothing to measure", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    info = {"meta": _metadata(args), "fingerprint": res.fingerprint(),
            "report": _report(res, peak_rss_mb), "runtime_warnings": warn.count,
            "checks": res.checks}
    if args.trace:
        metrics = tr.per_layer(tracer, n_setups=len(res.setup_s), n_loop=res.n_loop,
                               runtime_warnings=warn.count, wall_s=res.wall_s)
        metrics = {k: _metric(v, unit) for k, (v, unit) in metrics.items()}
        info["module_self_sum_per_step_s"] = tr.loop_module_self_sum(tracer, res.n_loop)
        (OUT_DIR / "traces").mkdir(exist_ok=True)
        trace_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = _end_to_end(info["report"])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": all(res.checks.values()),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
