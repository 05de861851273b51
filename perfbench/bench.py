"""One benchmark run: set up, measure, check, report.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced
runs (``--trace 1``) wrap the layer entry points before set-up, run one
traced timed phase, reduce it to the per-layer metrics, then unwrap and
run the same phase untraced for the tracing slowdown and the open-loop
generator's figures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.harness.reporting import peak_rss_mb

from . import layers
from .hostclock import Stopwatch
from .tracer import Tracer
from .workloads import ENGINE, FULL, WORKLOADS, Sizes

__all__ = ["END_TO_END", "run_one", "main"]

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: every end-to-end metric: name -> (unit, better)
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "capacity_rps": ("1/s", "higher"),
    "trees_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def _end_to_end(phase, setup_s: float) -> dict:
    latencies = phase.latencies_ms
    return {
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p95_ms": float(np.percentile(latencies, 95)),
        "capacity_rps": phase.requests_per_s,
        "trees_per_s": phase.trees_per_s,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               workers: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "engine": ENGINE, "num_workers": workers,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": np.__version__}


def _set_up(name: str, seed: int, sizes: Sizes, workers: int, reps: int,
            tracer=None):
    """Set the workload up ``reps`` times; keep the last; return it with
    the steal-adjusted time of each set-up."""
    times = []
    workload = None
    for _ in range(reps):
        workload = None
        gc.collect()
        if tracer is not None:
            tracer.reset()
        clock = Stopwatch()
        workload = WORKLOADS[name](seed, sizes, workers)
        workload.setup()
        times.append(clock.seconds())
    gc.collect()
    return workload, times


def run_one(name: str, seed: int, seconds: float, trace: bool,
            started: Stopwatch, sizes: Sizes = FULL,
            trace_path=None) -> tuple[dict, dict]:
    """Run one workload; return ``(result, provenance)``.

    ``started`` was started at process start (set-up time counts from
    it).  Raises when the workload cannot run at all.
    """
    imported = started.seconds()
    workers = len(os.sched_getaffinity(0))
    prov = provenance(name, seed, seconds, trace, workers)
    if trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            workload, _ = _set_up(name, seed, sizes, workers, 1, tracer)
            traced = workload.measure(seconds)
            metrics = layers.per_layer_metrics(tracer, workload, traced)
        finally:
            tracer.uninstall()
        untraced = workload.measure(seconds)
        metrics.update(layers.untraced_metrics(traced, untraced,
                                               workload.headline))
        phases = [traced, untraced]
        if trace_path is not None:
            tracer.write_chrome(str(trace_path))
        units = {k: v[0] for k, v in layers.PER_LAYER.items()}
    else:
        workload, setups = _set_up(name, seed, sizes, workers,
                                   sizes.setup_reps)
        prov["setup_parts_s"] = {"import": imported, "set_ups": setups}
        phase = workload.measure(seconds)
        metrics = _end_to_end(phase, imported + statistics.median(setups))
        phases = [phase]
        units = {k: v[0] for k, v in END_TO_END.items()}
    mismatches = workload.check()
    result = {
        "correct": mismatches == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    prov["mismatches"] = mismatches
    prov["timed_wall_s"] = [p.wall_s for p in phases]
    prov["timed_steal_share"] = [p.steal_share for p in phases]
    return result, prov


def _run_all(args) -> int:
    """Each workload in a fresh process; metrics keyed ``workload/metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv, started: Stopwatch) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    trace_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    result, prov = run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace), started, trace_path=trace_path)
    print(json.dumps({"provenance": prov}))
    for metric, entry in result["metrics"].items():
        print(f"{metric:28s} {entry['value']:>14.6g} {entry['unit']}")
    if trace_path is not None:
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
