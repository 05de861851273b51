"""The benchmark's own tests: tiny runs of every workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, layers
from perfbench.hostclock import Stopwatch
from perfbench.workloads import FULL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = replace(FULL, serve_pool=3, serve_rate=20.0,
               train_pool=4, train_batch=2, gen_batch=4, gen_vocab=8,
               setup_reps=1)
SECONDS = 0.5

#: traced-run routing each workload was chosen for: metric -> nonzero?
ROUTES = {
    "serve-treelstm": {"level_plan.sweeps": True, "server.submit_ms": True,
                       "trainer.fwd_bwd_ms": False},
    "train-treelstm": {"level_plan.sweeps": False, "trainer.fwd_bwd_ms": True,
                       "cache.stores": True, "data.batch_ms": True},
    "generate-tdtreelstm": {"level_plan.sweeps": False,
                            "trainer.fwd_bwd_ms": False,
                            "scheduler.frames": True,
                            "batching.offers": True},
}


def _declared(section: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in CONTRACT[section]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == layers.PER_LAYER
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    trace_path = tmp_path / "trace.json"
    result, prov = bench.run_one(name, 3, SECONDS, trace,
                                 Stopwatch(), sizes=TINY,
                                 trace_path=trace_path if trace else None)
    assert result["correct"], prov
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {k: unit for k, (unit, _) in _declared(section).items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values()), values
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    for metric, nonzero in ROUTES[name].items():
        assert (values[metric] > 0) == nonzero, (metric, values[metric])
    events = json.loads(trace_path.read_text())["traceEvents"]
    threads = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert any("_kernel_worker" in t for t in threads), threads
    assert any(e["ph"] == "X" and e["name"] == "ops.kernel" for e in events)


def _corrupt_serve(workload):
    _, ticket = workload.served[-1]
    ticket.value = ticket.value.copy()
    ticket.value.flat[0] = np.nextafter(ticket.value.flat[0], np.inf)


def _corrupt_train(workload):
    indices, loss = workload.steps[-1]
    workload.steps[-1] = (indices, float(np.nextafter(loss, np.inf)))


def _corrupt_generate(workload):
    words, counts = workload.steps[-1]
    workload.steps[-1] = (words, counts + np.int32(1))


CORRUPT = {"serve-treelstm": _corrupt_serve,
           "train-treelstm": _corrupt_train,
           "generate-tdtreelstm": _corrupt_generate}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_fails_the_run(name, monkeypatch):
    cls = WORKLOADS[name]
    measure = cls.measure

    def corrupted(self, seconds):
        phase = measure(self, seconds)
        CORRUPT[name](self)
        return phase

    monkeypatch.setattr(cls, "measure", corrupted)
    result, prov = bench.run_one(name, 4, SECONDS, False, Stopwatch(),
                                 sizes=TINY)
    assert result["correct"] is False
    assert prov["mismatches"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-treelstm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
