"""Span recorder that wraps the runtime's layer entry points from outside.

Nothing under ``src/`` knows about it: the ``patch_*`` methods swap
timing wrappers in for functions, methods and op kernels, and
:meth:`Tracer.uninstall` puts the originals back.  Each wrapper keeps a
per-thread stack so a span's *self* time excludes the time of spans it
nests (a member-loop batched kernel calling scalar kernels, a sweep
calling kernels).  Spans stay in memory; :meth:`Tracer.write_chrome`
exports them as Chrome trace-event JSON, one track per thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Optional

__all__ = ["Tracer"]


class Tracer:
    """Records spans around wrapped callables, per thread.

    A span is the tuple ``(name, tid, start, duration, self_time,
    count)`` with times in ``perf_counter`` seconds.
    """

    def __init__(self):
        self.spans: list = []
        #: tid -> thread name; tids are assigned per thread object, so a
        #: reused OS thread ident never merges two threads' tracks
        self.thread_names: dict[int, str] = {}
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._tids = itertools.count(1)
        self._patches: list = []

    # -- recording -------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.tid
        except AttributeError:
            local.stack = []
            local.tid = next(self._tids)
            self.thread_names[local.tid] = threading.current_thread().name
            return local.stack, local.tid

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``count(args)`` gives the span's work count (default 1), e.g.
        the number of runs a merged sweep executes.
        """
        clock = time.perf_counter
        state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, tid = state()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.spans.append((name, tid, t0, dur, dur - child,
                                   count(args) if count else 1))
        return traced

    def reset(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        self.spans = []

    # -- installation ------------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str,
                     count: Optional[Callable] = None) -> None:
        """Wrap ``attr`` on the class in ``cls``'s MRO that defines it."""
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, count))
        self._patches.append((owner, attr, original))

    def patch_function(self, fn: Callable, name: str,
                       count: Optional[Callable] = None) -> None:
        """Wrap a module-level function under every ``repro`` module
        name bound to it (``from .plan import plan_for`` copies the
        binding, so patching the defining module alone would miss
        callers)."""
        wrapped = self.wrap(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))

    def patch_attr(self, obj, attr: str, name: str) -> None:
        """Wrap a callable instance attribute (e.g. ``OpDef.kernel``)."""
        original = getattr(obj, attr)
        if original is None:
            return
        setattr(obj, attr, self.wrap(name, original))
        self._patches.append((obj, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------------

    def write_chrome(self, path: str, limit: int = 300_000) -> None:
        """Write the last ``limit`` spans (by start time) as Chrome
        trace-event JSON, which Perfetto loads; a full traced run records
        over a million spans."""
        spans = sorted(self.spans, key=lambda s: s[2])
        dropped = max(0, len(spans) - limit)
        events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                   "args": {"name": tname}}
                  for tid, tname in sorted(self.thread_names.items())]
        origin = self.origin
        events.extend({"name": s[0], "ph": "X", "pid": 1, "tid": s[1],
                       "ts": round((s[2] - origin) * 1e6, 3),
                       "dur": round(s[3] * 1e6, 3)}
                      for s in spans[dropped:])
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": dropped}}, fh,
                      separators=(",", ":"))
