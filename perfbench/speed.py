"""Host speed probe: report times at one fixed reference speed of the host.

On a shared host the cores themselves run slower at times, by up to half for
seconds on end, while the process never waits for a core.  A best or median
time over a run then moves with the share of the run the host spent slow.

The probe is a fixed piece of code that belongs to the benchmark, not to the
program: a backtracking chromatic number of the Groetzsch graph over Python
sets and dicts, the kind of work the program does.  A SIGALRM handler runs it
every PROBE_INTERVAL_S seconds while a timed region runs.  Each timed
interval [start, end) is then turned into the time it would take on a host
where the probe takes REFERENCE_S:

* the probes that ran inside the interval are subtracted, giving its own time;
* that time is scaled by REFERENCE_S / local, where local is the mean time
  of the probes within one probe interval of it, or of the NEAR_PROBES
  probes nearest to it when there are fewer.

Since the probe never changes, a change to the program moves the reported
times exactly as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_INTERVAL_S = 0.05
# A short interval's host speed is taken from at least this many probes,
# about 0.4 s of the run around it.
NEAR_PROBES = 8
# A round figure near the probe's faster times within a run on the 2-core
# host the benchmark was built on.  It only sets the scale of every time.
REFERENCE_S = 0.0005

# The Groetzsch graph: the 5-cycle 0-4, its shadows 5-9 and the apex 10.
_EDGES = (
    *((i, (i + 1) % 5) for i in range(5)),
    *((5 + i, (i + 1) % 5) for i in range(5)),
    *((5 + i, (i - 1) % 5) for i in range(5)),
    *((10, 5 + i) for i in range(5)),
)


def _colorable(adj, order, k, colors, i) -> bool:
    if i == len(order):
        return True
    v = order[i]
    used = {colors[u] for u in adj[v] if u in colors}
    for c in range(k):
        if c not in used:
            colors[v] = c
            if _colorable(adj, order, k, colors, i + 1):
                return True
            del colors[v]
    return False


def probe_op() -> int:
    """The chromatic number of the Groetzsch graph, which is 4."""
    adj = {v: set() for v in range(11)}
    for u, v in _EDGES:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(adj, key=lambda v: -len(adj[v]))
    k = 1
    while not _colorable(adj, order, k, {}, 0):
        k += 1
    return k


class SpeedProbe:
    """Samples the host's speed while active; use as a context manager
    around each timed region."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        # An alarm that arrives while a probe runs is dropped, so probes
        # never nest and their start times stay in order.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            probe_op()
            self.starts.append(t0)
            self.seconds.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def own_seconds(self, start: float, end: float) -> float:
        """The interval's length minus the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.seconds[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S / local for the interval."""
        starts = self.starts
        lo = bisect.bisect_left(starts, start - PROBE_INTERVAL_S)
        hi = bisect.bisect_right(starts, end + PROBE_INTERVAL_S)
        while hi - lo < NEAR_PROBES and (lo > 0 or hi < len(starts)):
            if hi == len(starts) or (lo > 0 and start - starts[lo - 1] < starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S * (hi - lo) / sum(self.seconds[lo:hi])

    def normalised(self, start: float, end: float) -> float:
        """The interval's own seconds at the reference speed."""
        return self.own_seconds(start, end) * self.factor(start, end)
