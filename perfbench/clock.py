"""Host-speed normalisation and summary statistics.

A shared 2-CPU host was measured changing speed by up to 1.7x from one
minute to the next (other tenants share its CPUs), so a raw
wall-clock figure does not repeat.  Every timed phase therefore also
runs a fixed pure-Python reference computation at short intervals, and
each timing is reported twice: raw, and multiplied by
``NOMINAL_REFERENCE_MS / reference_ms`` -- milliseconds on a nominal host
on which the reference takes exactly ``NOMINAL_REFERENCE_MS``.  The
reference does the kind of work the engine does (tuple hashing, set
membership, dict probes), so host slowdowns scale both alike.

Short reference runs miss one kind of slowdown: *steal*, time in which
the hypervisor runs another tenant instead of this machine's busy CPU.
It comes in bursts of milliseconds, so the median of a few 0.5 ms
references skips it, while a 10-50 ms operation absorbs it in proportion
to the steal rate (measured on a shared 2-CPU host: a run at 37% steal
read 30% slower raw than one at 20% while the reference moved 4%).
Each operation's time is therefore also multiplied by the share of busy
CPU time that was *not* stolen in a window of ``STEAL_WINDOW_S`` seconds
either side of it, from the machine's ``/proc/stat`` counters.

Set-up times are normalised the same way by a second reference, a fresh
interpreter doing a fixed start-up (``spawn_reference``), spawned
between set-ups: ``NOMINAL_SPAWN_S / spawn_reference_s``.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time
from collections import deque

NOMINAL_REFERENCE_MS = 0.5
NOMINAL_SPAWN_S = 0.1
REFERENCE_INTERVAL_S = 0.02
REFERENCE_WINDOW = 5
STEAL_WINDOW_S = 1.0

_CHAIN = 44
_EXPECTED_CLOSURE = _CHAIN * (_CHAIN + 1) // 2


def reference_work() -> int:
    """Semi-naive transitive closure of a fixed chain; always the same work."""
    succ = {i: (i + 1,) for i in range(_CHAIN)}
    closure = {(i, i + 1) for i in range(_CHAIN)}
    delta = set(closure)
    while delta:
        new = set()
        for a, b in delta:
            for c in succ.get(b, ()):
                if (a, c) not in closure:
                    new.add((a, c))
        closure |= new
        delta = new
    if len(closure) != _EXPECTED_CLOSURE:
        raise RuntimeError("reference computation returned a wrong closure")
    return len(closure)


# A fresh interpreter that imports a fixed set of standard modules and
# builds and indexes a fixed table: the kind of work a set-up does
# (process start, module loading, allocation).  The in-process reference
# above does not track it: measured on a shared 2-CPU host, normalising
# set-ups by it widened their run-to-run spread (0.21 raw to 0.27),
# while normalising by these spawns narrowed it to 0.03-0.06.
_SPAWN_SOURCE = """
import argparse, collections, dataclasses, functools, json, random, re, statistics, subprocess
rows = {(i, i * 7 % 1000, str(i)): i for i in range(60000)}
index = {}
for key in rows:
    index.setdefault(key[1], []).append(key)
print("READY", len(index), flush=True)
"""


def spawn_reference() -> float:
    """Seconds from spawning the fixed reference interpreter to its READY."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", _SPAWN_SOURCE], stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.read()
    if child.wait() != 0 or line.split() != ["READY", "1000"]:
        raise RuntimeError("spawn reference returned a wrong result")
    return elapsed


def cpu_ticks() -> "tuple[int, int] | None":
    """Busy and stolen CPU ticks of the whole machine so far, from
    ``/proc/stat`` (None where it cannot be read)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        user, nice, system, _idle, _iowait, irq, softirq, steal = (int(v) for v in fields[1:9])
    except (OSError, ValueError):
        return None
    return user + nice + system + irq + softirq, steal


class Clock:
    """Times operations and normalises them by the adjacent reference runs
    and by the steal around them."""

    def __init__(self) -> None:
        self._recent: deque[float] = deque(maxlen=REFERENCE_WINDOW)
        self.reference_ms: list[float] = []
        self._last = -math.inf
        # Times and (busy, stolen) ticks, one sample per reference interval.
        self._tick_times: list[float] = []
        self._ticks: list[tuple[int, int]] = []
        for _ in range(REFERENCE_WINDOW):
            self.sample()

    def begin_phase(self) -> None:
        """Start the tick samples afresh, so that no steal window reaches
        back before the timed phase (into the set-ups)."""
        self._tick_times.clear()
        self._ticks.clear()
        self.sample_ticks()

    def sample_ticks(self) -> None:
        ticks = cpu_ticks()
        if ticks is not None:
            self._tick_times.append(time.perf_counter())
            self._ticks.append(ticks)

    def sample(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = (time.perf_counter() - start) * 1000.0
        self._recent.append(elapsed)
        self.reference_ms.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def tick(self) -> None:
        """Run the reference if the last run is older than the interval."""
        if time.perf_counter() - self._last >= REFERENCE_INTERVAL_S:
            self.sample()
            self.sample_ticks()

    def factor(self) -> float:
        """Raw-to-nominal multiplier from the most recent reference runs."""
        return NOMINAL_REFERENCE_MS / statistics.median(self._recent)

    def steal_share(self, start: float, end: float) -> float:
        """Share of busy CPU time stolen between the tick samples that
        enclose ``start..end`` (0 with no samples or no busy time)."""
        times = self._tick_times
        if len(times) < 2:
            return 0.0
        lo = min(len(times) - 2, max(0, bisect.bisect_right(times, start) - 1))
        hi = min(len(times) - 1, max(lo + 1, bisect.bisect_left(times, end)))
        busy = self._ticks[hi][0] - self._ticks[lo][0]
        stolen = self._ticks[hi][1] - self._ticks[lo][1]
        return stolen / (busy + stolen) if busy + stolen else 0.0

    def unstolen(self, moment: float) -> float:
        """Multiplier that removes the steal of the window around *moment*."""
        return 1.0 - self.steal_share(moment - STEAL_WINDOW_S, moment + STEAL_WINDOW_S)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]

