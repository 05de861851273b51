"""Wall-clock intervals with the host's CPU steal taken out.

On a shared virtual machine the hypervisor deschedules this guest's
vCPUs whenever other tenants want the host; Linux counts that time as
``steal`` in ``/proc/stat``.  The runtime is bound to about one CPU by
the interpreter lock, so a stolen millisecond is a millisecond the
program could not run, and raw wall times of identical work vary by 2x
with the neighbours' load.  Every interval this benchmark reports is
therefore *guest time*: its wall time times ``1 - s``, where ``s`` is the
share of the CPU time this guest wanted over the interval (busy +
stolen) that the host stole.  :class:`Stopwatch` measures one interval
that way; :class:`StealSampler` keeps a guest clock for many overlapping
ones.  With no steal (bare metal, or no ``/proc/stat``) ``s`` is 0 and
guest time is wall time.
"""

from __future__ import annotations

import bisect
import threading
import time

__all__ = ["Stopwatch", "StealSampler"]


def _ticks():
    """(busy, stolen) jiffies summed over all CPUs, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        int(v) for v in fields[1:9])
    return user + nice + system + irq + softirq, steal


class Stopwatch:
    """Started on construction; :meth:`read` may be called repeatedly."""

    __slots__ = ("start", "_ticks")

    def __init__(self):
        self._ticks = _ticks()
        self.start = time.perf_counter()

    def read(self) -> tuple[float, float]:
        """``(wall seconds, steal share)`` since the start."""
        wall = time.perf_counter() - self.start
        now = _ticks()
        if self._ticks is None or now is None:
            return wall, 0.0
        busy = now[0] - self._ticks[0]
        stolen = now[1] - self._ticks[1]
        return wall, stolen / (busy + stolen) if busy + stolen > 0 else 0.0

    def seconds(self) -> float:
        """Wall seconds since the start, minus the stolen share."""
        wall, steal = self.read()
        return wall * (1.0 - steal)


class StealSampler:
    """A guest clock: wall time with stolen time taken out, sampled on a
    thread so overlapping intervals (requests in flight together) and
    schedules (an open-loop generator) can all read it.

    :meth:`guest` maps a ``perf_counter`` time to guest seconds since
    the sampler started.  Each sample interval advances guest time by
    its wall length times ``1 - s`` over that interval; the counters
    tick every 10 ms, so one interval's share is coarse but the sum is
    not.  Use as a context manager; the sampling thread stops on exit.
    """

    def __init__(self, interval: float = 0.02):
        self._interval = interval
        self._times: list = []
        self._guest: list = []
        self._last = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="steal-sampler")

    def __enter__(self) -> "StealSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        now = time.perf_counter()
        ticks = _ticks()
        if not self._times:
            guest = 0.0
        else:
            keep = 1.0
            if ticks is not None and self._last is not None:
                busy = ticks[0] - self._last[0]
                stolen = ticks[1] - self._last[1]
                if busy + stolen > 0:
                    keep = 1.0 - stolen / (busy + stolen)
            guest = self._guest[-1] + (now - self._times[-1]) * keep
        self._last = ticks
        self._guest.append(guest)
        self._times.append(now)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def guest(self, t: float) -> float:
        """Guest seconds from the first sample to ``perf_counter`` time
        ``t``, interpolated between samples; past the last sample it
        runs at the last interval's rate, or at wall rate."""
        times, guest = self._times, self._guest
        i = bisect.bisect_left(times, t)
        if i == 0:
            return guest[0] - (times[0] - t)
        if i == len(times):
            i -= 1
            if i == 0:
                return guest[0] + (t - times[0])
        t0, t1 = times[i - 1], times[i]
        rate = (guest[i] - guest[i - 1]) / (t1 - t0) if t1 > t0 else 1.0
        return guest[i - 1] + (t - t0) * rate

    def seconds(self, start: float, end: float) -> float:
        """Guest seconds between two ``perf_counter`` times."""
        return self.guest(end) - self.guest(start)

    def share(self, start: float, end: float) -> float:
        """Stolen share of the wall time between two ``perf_counter``
        times."""
        wall = end - start
        return 1.0 - self.seconds(start, end) / wall if wall > 0 else 0.0

    def sleep_until(self, guest_s: float) -> None:
        """Sleep until the guest clock reads ``guest_s``."""
        while True:
            now = time.perf_counter()
            left = guest_s - self.guest(now)
            if left <= 0:
                return
            time.sleep(min(left, self._interval))
