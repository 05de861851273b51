"""Per-layer attribution: which entry points the traced run wraps, and
how its spans, RunStats and tickets reduce to the per-layer metrics.

Span names are ``<layer>.<entry point>``.  Times are inclusive unless
the metric says self time; self time excludes nested spans on the same
thread (kernels inside a sweep, scalar kernels inside a member-loop
batched kernel).
"""

from __future__ import annotations

import numpy as np

from repro.data import batching as tree_batching
from repro.graph.registry import all_op_types, op_def
from repro.models.common import BuiltModel
from repro.nn.trainer import Trainer
from repro.runtime import level_plan, plan
from repro.runtime.batching import Coalescer
from repro.runtime.scheduler import SchedulerCore
from repro.runtime.server import RecursiveServer
from repro.runtime.session import Session

__all__ = ["PER_LAYER", "install", "per_layer_metrics", "untraced_metrics"]

#: every per-layer metric: name -> (unit, better)
PER_LAYER = {
    "server.submit_ms": ("ms", "lower"),
    "server.queue_wait_ms_p50": ("ms", "lower"),
    "server.engine_ms_p50": ("ms", "lower"),
    "server.rejected": ("count", "lower"),
    "loadgen.late_ms_max": ("ms", "lower"),
    "loadgen.latency_p50_ms": ("ms", "lower"),
    "loadgen.latency_p90_ms": ("ms", "lower"),
    "level_plan.probe_ms": ("ms", "lower"),
    "level_plan.probe_calls": ("count", "lower"),
    "level_plan.compile_ms": ("ms", "lower"),
    "level_plan.cache_hit_rate": ("ratio", "higher"),
    "level_plan.sweep_ms": ("ms", "lower"),
    "level_plan.sweeps": ("count", "lower"),
    "level_plan.runs_per_sweep": ("runs", "higher"),
    "scheduler.frames": ("count", "lower"),
    "scheduler.instances": ("count", "lower"),
    "scheduler.spawn_ms": ("ms", "lower"),
    "batching.offers": ("count", "lower"),
    "batching.offer_ms": ("ms", "lower"),
    "batching.flushes": ("count", "lower"),
    "batching.mean_width": ("ops", "higher"),
    "ops.kernel_calls": ("count", "lower"),
    "ops.kernel_ms": ("ms", "lower"),
    "ops.kernel_us_per_call": ("us", "lower"),
    "workerpool.run_self_ms": ("ms", "lower"),
    "workerpool.pool_busy_frac": ("ratio", "higher"),
    "trainer.fwd_bwd_ms": ("ms", "lower"),
    "optimizers.apply_ms": ("ms", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.stores": ("count", "lower"),
    "plan.plan_for_ms": ("ms", "lower"),
    "data.batch_ms": ("ms", "lower"),
    "trace.slowdown": ("x", "lower"),
}


def install(tracer) -> None:
    """Wrap each layer's entry points; ``tracer.uninstall()`` undoes it.

    Op kernels are wrapped on their registry ``OpDef`` entries, which
    every executor and compiled plan reads at call time.
    """
    tracer.patch_method(RecursiveServer, "submit", "server.submit")
    tracer.patch_function(level_plan.level_plan_for, "level_plan.probe")
    tracer.patch_function(level_plan.execute_level_plan, "level_plan.sweep",
                          count=lambda args: len(args[2]))
    tracer.patch_method(SchedulerCore, "spawn_frame", "scheduler.spawn")
    tracer.patch_method(Coalescer, "offer", "batching.offer")
    tracer.patch_method(Session, "run", "workerpool.run")
    tracer.patch_method(Trainer, "step", "trainer.step")
    tracer.patch_method(Trainer, "compute_gradients", "trainer.fwd_bwd")
    tracer.patch_function(plan.plan_for, "plan.plan_for")
    tracer.patch_function(plan.plan_for_fetches, "plan.plan_for")
    tracer.patch_function(tree_batching.batch_trees, "data.batch")
    tracer.patch_method(BuiltModel, "feed_dict", "data.batch")
    for op_type in all_op_types():
        definition = op_def(op_type)
        tracer.patch_attr(definition, "kernel", "ops.kernel")
        tracer.patch_attr(definition, "batched_kernel", "ops.kernel")


def _pct(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def per_layer_metrics(tracer, workload, phase) -> dict:
    """Reduce the traced window to the per-layer metrics.

    The window is the workload's set-up plus one traced timed ``phase``
    (the tracer was reset when that set-up began); the metrics of
    :func:`untraced_metrics` come from the untraced phase that follows.
    """
    by_name: dict = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)

    def total_ms(name, field=3):
        return sum(s[field] for s in by_name.get(name, ())) * 1e3

    def calls(name):
        return len(by_name.get(name, ()))

    stats = workload.stats
    hits = sum(s.level_plan_cache_hits for s in stats)
    misses = sum(s.level_plan_cache_misses for s in stats)
    flushes = sum(s.batches for s in stats)
    sweeps = by_name.get("level_plan.sweep", ())
    kernels = by_name.get("ops.kernel", ())
    pool_tids = {tid for tid, name in tracer.thread_names.items()
                 if "_kernel_worker" in name}
    pool_kernel_s = sum(s[4] for s in kernels if s[1] in pool_tids)
    engine_wall_s = (total_ms("workerpool.run") / 1e3
                     + sum(end - start
                           for start, end in workload.serve_windows))
    kernel_ms = total_ms("ops.kernel", field=4)
    cache = workload.runtime.cache
    return {
        "server.submit_ms": total_ms("server.submit"),
        "server.queue_wait_ms_p50": _pct(phase.queue_ms, 50),
        "server.engine_ms_p50": _pct(phase.engine_ms, 50),
        "server.rejected": phase.rejected,
        "level_plan.probe_ms": total_ms("level_plan.probe"),
        "level_plan.probe_calls": calls("level_plan.probe"),
        "level_plan.compile_ms": sum(s.level_plan_compile_ms for s in stats),
        "level_plan.cache_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "level_plan.sweep_ms": total_ms("level_plan.sweep", field=4),
        "level_plan.sweeps": len(sweeps),
        "level_plan.runs_per_sweep": (sum(s[5] for s in sweeps) / len(sweeps)
                                      if sweeps else 0.0),
        "scheduler.frames": sum(s.frames_created for s in stats),
        "scheduler.instances": sum(s.ops_executed for s in stats),
        "scheduler.spawn_ms": total_ms("scheduler.spawn"),
        "batching.offers": calls("batching.offer"),
        "batching.offer_ms": total_ms("batching.offer"),
        "batching.flushes": flushes,
        "batching.mean_width": (sum(s.batched_ops for s in stats) / flushes
                                if flushes else 0.0),
        "ops.kernel_calls": len(kernels),
        "ops.kernel_ms": kernel_ms,
        "ops.kernel_us_per_call": (kernel_ms * 1e3 / len(kernels)
                                   if kernels else 0.0),
        "workerpool.run_self_ms": total_ms("workerpool.run", field=4),
        "workerpool.pool_busy_frac": (
            pool_kernel_s / (engine_wall_s * workload.workers)
            if engine_wall_s else 0.0),
        "trainer.fwd_bwd_ms": total_ms("trainer.fwd_bwd"),
        "optimizers.apply_ms": (total_ms("trainer.step")
                                - total_ms("trainer.fwd_bwd")),
        "cache.lookups": cache.lookups,
        "cache.stores": cache.stores,
        "plan.plan_for_ms": total_ms("plan.plan_for", field=4),
        "data.batch_ms": total_ms("data.batch"),
    }


def untraced_metrics(traced, untraced, headline: str) -> dict:
    """The metrics read from the untraced phase of a traced run: the
    open-loop generator's own figures, and the tracing slowdown (the
    untraced ``headline`` rate over the traced one)."""
    return {
        "loadgen.late_ms_max": untraced.late_ms_max,
        "loadgen.latency_p50_ms": _pct(untraced.open_latencies_ms, 50),
        "loadgen.latency_p90_ms": _pct(untraced.open_latencies_ms, 90),
        "trace.slowdown": getattr(untraced, headline) / getattr(traced,
                                                                headline),
    }
