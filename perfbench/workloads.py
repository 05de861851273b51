"""The benchmark's three workloads, all on the ``workerpool`` engine.

Each workload object goes through the same life cycle:

* ``setup()`` builds the inputs, the model graph and the session and
  runs one warm pass, so lazy compilation is done before timing;
* ``measure(seconds)`` runs one timed phase and returns a :class:`Phase`;
* ``check()`` recomputes every output the workload produced on the
  deterministic ``event`` engine and returns how many differ bitwise.

Tree pools are fixed (the treebank's own seed), so every ``--seed``
serves the same size distribution; the seed drives what varies between
runs: request order, arrival times, epoch shuffles and generation seeds.
Every pool is walked in seeded permutations, so each pass does the same
total work whatever the seed.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import repro
# batch_trees is called through its module so that the traced run's
# wrapper (installed on the module attribute) sees the calls
import repro.data.batching as tree_batching
from repro.data.treebank import make_treebank
from repro.models import (ModelConfig, TDTreeLSTM, TreeLSTMSentiment,
                          tree_lstm_config)
from repro.nn.optimizers import Adagrad
from repro.nn.trainer import Trainer

from .hostclock import StealSampler, Stopwatch

__all__ = ["Sizes", "FULL", "Phase", "WORKLOADS"]

ENGINE = "workerpool"


@dataclass(frozen=True)
class Sizes:
    """Workload dimensions; :data:`FULL` is what the benchmark runs."""

    serve_pool: int = 50
    serve_rate: float = 4.0           # phase A offered load, requests/s
    serve_in_flight: int = 16
    serve_pass_every_s: float = 16.0  # one phase A pass per 16 s
    serve_burst_every_s: float = 4.0  # one phase B burst per 4 s
    train_pool: int = 60
    train_batch: int = 10
    gen_batch: int = 16
    gen_vocab: int = 200
    gen_hidden: int = 32
    gen_max_depth: int = 7
    setup_reps: int = 3


FULL = Sizes()


@dataclass
class Phase:
    """What one timed phase measured.

    A request is one served tree (serve) or one step over a batch of
    trees (train, generate); ``latencies_ms`` holds one sample per
    completed request (serve: burst requests; ``open_latencies_ms``
    holds the open loop's).  Times and rates are in guest time (see
    :mod:`perfbench.hostclock`); ``wall_s`` and ``steal_share``
    describe the phase as a whole.
    """

    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    requests_per_s: float = 0.0
    trees_per_s: float = 0.0
    late_ms_max: float = 0.0
    open_latencies_ms: list = field(default_factory=list)
    queue_ms: list = field(default_factory=list)
    engine_ms: list = field(default_factory=list)
    rejected: int = 0
    wall_s: float = 0.0
    steal_share: float = 0.0


def _permutations(rng: np.random.Generator, n: int):
    """Endless indices into a pool of ``n``: one seeded permutation per pass."""
    while True:
        yield from rng.permutation(n).tolist()


def _chunks(indices, size: int):
    while True:
        yield tuple(next(indices) for _ in range(size))


def _same(a, b) -> bool:
    """Bitwise equality of two values (dtype, shape and bytes)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _report_failure(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """Shared state: seed, sizes, worker count and the stats log."""

    name = ""
    #: the :class:`Phase` rate the traced run compares against the
    #: untraced one to report tracing overhead
    headline = ""

    def __init__(self, seed: int, sizes: Sizes, workers: int):
        self.seed = seed
        self.sizes = sizes
        self.workers = workers
        #: every RunStats the engine reported, in order
        self.stats: list = []
        #: (start, end) of every serving session, for pool-busy fractions
        self.serve_windows: list = []
        self.runtime = None

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Phase:
        raise NotImplementedError

    def check(self) -> int:
        raise NotImplementedError


class ServeTreeLSTM(Workload):
    """TreeLSTM requests through ``session.serve`` on the compiled tier.

    Phase A is an open loop: one thread submits whole passes over the
    pool as a seeded Poisson stream at a fixed rate.  Phase B serves
    bursts, each one pass over the pool due at once; capacity is the
    median burst's completions per second of makespan.  Every latency
    runs from the request's due time to its completion.  Whole passes
    keep the tree mix the same for every seed.
    """

    name = "serve-treelstm"
    headline = "requests_per_s"

    def setup(self) -> None:
        trees = make_treebank().train[:self.sizes.serve_pool]
        self.runtime = repro.Runtime()
        model = TreeLSTMSentiment(tree_lstm_config(), runtime=self.runtime)
        self.built = model.build_recursive(1)
        #: (feed_dict, shape_profile) per pool tree
        self.requests = []
        for tree in trees:
            batch = tree_batching.batch_trees([tree])
            self.requests.append((self.built.feed_dict(batch),
                                  self.built.shape_profiles(batch)))
        self.session = repro.Session(self.built.graph, self.runtime,
                                     num_workers=self.workers, engine=ENGINE,
                                     batching=True)
        #: (pool index, ticket) of every request served
        self.served = []
        self._phases = 0
        # warm pass: compiles every pool tree's level plan
        pool = range(len(self.requests))
        self._serve([0.0] * len(pool), list(pool))

    def _serve(self, offsets, indices):
        """Submit ``indices`` at ``offsets`` guest seconds from now; drain.

        Returns ``[(due, index, ticket)]`` with ``due`` in guest seconds,
        how late the generator ran at worst (guest seconds), and the
        window's guest clock.
        """
        out = []
        late = 0.0
        clock = StealSampler()
        start = time.perf_counter()
        try:
            with clock, self.session.serve(
                    max_in_flight=self.sizes.serve_in_flight) as server:
                start = time.perf_counter()
                origin = clock.guest(start)
                for offset, index in zip(offsets, indices):
                    due = origin + offset
                    clock.sleep_until(due)
                    late = max(late, clock.guest(time.perf_counter()) - due)
                    feed, profile = self.requests[index]
                    out.append((due, index, server.submit(
                        self.built.root_logits, feed,
                        shape_profile=profile)))
            self.stats.append(server.stats)
        except Exception:  # noqa: BLE001 - unfinished tickets count as failed
            _report_failure(f"{self.name} serving")
        self.serve_windows.append((start, time.perf_counter()))
        self.served.extend((index, ticket) for _, index, ticket in out)
        return out, late, clock

    def measure(self, seconds: float) -> Phase:
        sizes = self.sizes
        rng = np.random.default_rng([self.seed, self._phases])
        self._phases += 1
        pool = len(self.requests)
        order = _permutations(rng, pool)
        passes = max(1, int(seconds // sizes.serve_pass_every_s))
        gaps = rng.exponential(1.0 / sizes.serve_rate, passes * pool - 1)
        offsets = [0.0, *np.cumsum(gaps).tolist()]
        windows = [self._serve(offsets, [next(order) for _ in offsets])]
        bursts = max(1, int(seconds // sizes.serve_burst_every_s))
        for _ in range(bursts):
            windows.append(self._serve([0.0] * pool,
                                       [next(order) for _ in range(pool)]))

        phase = Phase(attempted=len(offsets) + bursts * pool,
                      late_ms_max=windows[0][1] * 1e3)
        capacities = []
        for k, (served, _, clock) in enumerate(windows):
            start, end = self.serve_windows[k - len(windows)]
            phase.wall_s += end - start
            phase.steal_share += clock.share(start, end) * (end - start)
            done = [(due, t) for due, _, t in served if t.status == "done"]
            phase.failed += len(served) - len(done)
            for due, t in done:
                phase.queue_ms.append(
                    clock.seconds(t.arrival_time, t.admit_time) * 1e3)
                phase.engine_ms.append(
                    clock.seconds(t.admit_time, t.complete_time) * 1e3)
                latency = (clock.guest(t.complete_time) - due) * 1e3
                (phase.latencies_ms if k else
                 phase.open_latencies_ms).append(latency)
            phase.rejected += sum(t.rejected for _, _, t in served)
            if k > 0 and done:
                last = max(clock.guest(t.complete_time) for _, t in done)
                capacities.append(len(done) / (last - done[0][0]))
        phase.failed += phase.attempted - sum(len(w[0]) for w in windows)
        phase.steal_share /= phase.wall_s
        if capacities:
            phase.requests_per_s = phase.trees_per_s = float(
                np.median(capacities))
        return phase

    def check(self) -> int:
        reference = repro.Session(self.built.graph, self.runtime,
                                  engine="event")
        expected = {}
        mismatches = 0
        for index, ticket in self.served:
            if ticket.status != "done":
                continue
            if index not in expected:
                expected[index] = reference.run(self.built.root_logits,
                                                self.requests[index][0])
            mismatches += not _same(ticket.value, expected[index])
        return mismatches


def _param_digest(runtime) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(runtime.variables.snapshot().items()):
        value = np.ascontiguousarray(value)
        digest.update(f"{name}|{value.dtype}|{value.shape}|".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


class _ClosedLoop(Workload):
    """Steps run back to back over seeded passes of a pool of items.

    A *round* is the fewest steps that cover whole passes of the pool,
    so every measured phase does the same work whatever the seed.  The
    warm-up step takes the pool's first items, outside the stream, so
    set-up is the same work for every seed and rounds stay aligned.
    """

    headline = "trees_per_s"

    def _start_stream(self, pool_size: int, batch: int) -> None:
        self.batch = batch
        self._round = math.lcm(pool_size, batch) // batch
        self._order = _chunks(
            _permutations(np.random.default_rng(self.seed), pool_size), batch)
        #: (inputs, output) of every step, warm-up included
        self.steps = []
        self._step(tuple(range(batch)))

    def _step(self, indices) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Phase:
        """Whole rounds until ``seconds`` have passed; a step that
        raises ends the phase."""
        phase = Phase()
        clock = Stopwatch()
        while time.perf_counter() - clock.start < seconds:
            for _ in range(self._round):
                phase.attempted += 1
                step = Stopwatch()
                try:
                    self._step(next(self._order))
                except Exception:  # noqa: BLE001 - counted as failed
                    _report_failure(f"{self.name} step")
                    phase.failed += 1
                    return self._rates(phase, clock)
                phase.latencies_ms.append(step.seconds() * 1e3)
        return self._rates(phase, clock)

    def _rates(self, phase: Phase, clock: Stopwatch) -> Phase:
        phase.wall_s, phase.steal_share = clock.read()
        completed = len(phase.latencies_ms)
        if completed:
            elapsed = sum(phase.latencies_ms) / 1e3
            phase.requests_per_s = completed / elapsed
            phase.trees_per_s = completed * self.batch / elapsed
        return phase


class TrainTreeLSTM(_ClosedLoop):
    """Two-phase TreeLSTM training with adaptive batching; a round is
    one epoch over the pool."""

    name = "train-treelstm"

    def _trainer(self, runtime, engine: str, batching, workers: int):
        model = TreeLSTMSentiment(tree_lstm_config(), runtime=runtime)
        built = model.build_recursive(self.sizes.train_batch)
        trainer = Trainer(built.graph, built.loss,
                          Adagrad(model.config.learning_rate), runtime,
                          batching=batching,
                          session_kwargs={"engine": engine,
                                          "num_workers": workers})
        return built, trainer

    def setup(self) -> None:
        self.pool = make_treebank().train[:self.sizes.train_pool]
        self.runtime = repro.Runtime()
        self.built, self.trainer = self._trainer(self.runtime, ENGINE,
                                                 "adaptive", self.workers)
        self._start_stream(len(self.pool), self.sizes.train_batch)

    def _feed(self, built, indices):
        batch = tree_batching.batch_trees([self.pool[i] for i in indices])
        return built.feed_dict(batch)

    def _step(self, indices) -> None:
        loss = self.trainer.step(self._feed(self.built, indices))
        self.stats.append(self.trainer.last_step_stats)
        self.steps.append((indices, loss))

    def check(self) -> int:
        runtime = repro.Runtime()
        built, trainer = self._trainer(runtime, "event", False, 1)
        mismatches = 0
        for indices, loss in self.steps:
            mismatches += not _same(trainer.step(self._feed(built, indices)),
                                    loss)
        mismatches += _param_digest(runtime) != _param_digest(self.runtime)
        return mismatches


class GenerateTDTreeLSTM(_ClosedLoop):
    """TD-TreeLSTM generation, whose recursion depends on computed
    values; the pool is the vocabulary of seed words."""

    name = "generate-tdtreelstm"

    def setup(self) -> None:
        sizes = self.sizes
        self.runtime = repro.Runtime()
        config = ModelConfig(hidden=sizes.gen_hidden,
                             vocab_size=sizes.gen_vocab)
        model = TDTreeLSTM(config, runtime=self.runtime,
                           max_depth=sizes.gen_max_depth)
        self.built = model.build_recursive(sizes.gen_batch)
        self.session = repro.Session(self.built.graph, self.runtime,
                                     num_workers=self.workers, engine=ENGINE,
                                     batching=True)
        self._start_stream(config.vocab_size, sizes.gen_batch)

    def _step(self, indices) -> None:
        words = np.array(indices, dtype=np.int32)
        counts = self.session.run(self.built.node_counts,
                                  self.built.feed_dict(words))
        self.stats.append(self.session.last_stats)
        self.steps.append((words, counts))

    def check(self) -> int:
        """Each root's node count depends only on its seed word, so the
        reference is one event-engine count per distinct word."""
        reference = repro.Session(self.built.graph, self.runtime,
                                  engine="event")
        words = sorted({int(w) for seeds, _ in self.steps for w in seeds})
        batch = self.sizes.gen_batch
        table = {}
        for i in range(0, len(words), batch):
            chunk = words[i:i + batch]
            padded = chunk + [chunk[-1]] * (batch - len(chunk))
            counts = reference.run(self.built.node_counts,
                                   self.built.feed_dict(padded))
            table.update(zip(chunk, counts))
        return sum(not _same(counts, np.array([table[int(w)] for w in seeds]))
                   for seeds, counts in self.steps)


WORKLOADS = {cls.name: cls for cls in (ServeTreeLSTM, TrainTreeLSTM,
                                       GenerateTDTreeLSTM)}
