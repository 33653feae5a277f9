"""Host speed, read from fixed pure-Python reference tasks.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets drifts: the same pure-Python loop runs up to 1.8x slower, for
stretches from a tenth of a second to tens of seconds, in wall time and in
process CPU time alike, and now and then the process does not run at all
for a while.  Medians within one run cannot remove a drift that lasts
longer than the run.  So the benchmark times ops by CPU time, which leaves
out the stretches in which the process does not run, reads the CPU time of
a fixed reference task on a timer, also in the middle of an op, and
reports each op time as the time the op would take on a host on which the
reference takes its nominal time.  Ops and reference move together under
the drift, so the scaled times follow the program, not the host.  The raw
times are kept in the details line.

Not all code slows alike: tight integer loops slow down more than code
that allocates and chases pointers.  So there are two references, each
like one kind of workload, and each workload names the one it uses.  Under
a 1.8x drift, closure-heavy ops (enumeration, validity) held within 5 % of
the "closures" reference, and small-mix ops within 11 % of the
"containers" reference (17 % of "closures").  The references import
nothing from lekit, so no change to lekit changes them.
"""

from __future__ import annotations

import json
import signal
from bisect import bisect_left
from time import perf_counter, thread_time

REPEATS = 2  # a reading is the fastest of this many runs of the reference
PERIOD = 0.05  # seconds of wall time between two readings

_N = 11
_ROWS = [sum(1 << u for u in range(_N) if (w * 7 + u * 3) % 5 != 0) for w in range(_N)]
_COLS = [sum(1 << w for w in range(_N) if _ROWS[w] >> u & 1) for u in range(_N)]
_RECORDS = [
    {"name": f"w{i}", "pairs": [[i, j] for j in range(6)], "tag": "x" * (i % 5)} for i in range(30)
]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _meet(masks, full, index):
    out = full
    for i in _bits(index):
        out &= masks[i]
    return out


def closures():
    """Closed sets of a fixed 11x11 context over bit-packed rows, a dict and frozensets."""
    full_w, full_u = (1 << _N) - 1, (1 << _N) - 1
    seen = {}
    for x in range(1 << _N >> 3):
        ext = _meet(_COLS, full_w, _meet(_ROWS, full_u, x))
        seen[ext] = seen.get(ext, 0) + 1
    pairs = frozenset((e, tuple(_bits(e))) for e in seen)
    return len(pairs) + sum(seen.values())


def containers():
    """JSON round trips of fixed records, sorting, dicts and frozensets of tuples."""
    total = 0
    for _ in range(3):
        records = json.loads(json.dumps(_RECORDS))
        names = sorted((r["name"] for r in records), reverse=True)
        index = {n: i for i, n in enumerate(names)}
        pairs = frozenset(tuple(p) for r in records for p in r["pairs"])
        total += len(index) + len(pairs) + sum(len(r["tag"]) for r in records)
    return total


# name: (task, nominal seconds: its time on an uncontended run of a 2-CPU
# x86-64 VM with Python 3.11)
REFERENCES = {"closures": (closures, 0.0004), "containers": (containers, 0.0005)}


def reading(task):
    """CPU seconds the task takes now: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        c0 = thread_time()
        task()
        best = min(best, thread_time() - c0)
    return best


def now():
    """A stamp for Clock.times: (wall seconds, this thread's CPU seconds)."""
    return perf_counter(), thread_time()


class Clock:
    """Turns intervals between two now() stamps into reference seconds.

    Inside `with Clock(name) as clock:`, SIGALRM fires every PERIOD seconds
    and its handler reads the time of the named reference, also in the
    middle of an op.  An interval's CPU and wall times leave out the
    readings taken inside it.  Its scaled time is the CPU time times the
    nominal time over the harmonic mean of the readings from the last one
    before the interval to the first one after it, that is, the work done
    counted in reference seconds.  CPU time leaves out the stretches in
    which the host runs something else instead of this process; the
    readings correct for the speed it runs at when it does run.
    """

    def __init__(self, name):
        self.task, self.nominal = REFERENCES[name]
        self.starts = []  # wall stamp at the start of each reading
        self.ends = []
        self.cpu = []  # CPU seconds each reading used
        self.values = []  # CPU seconds the reference took
        self._reading = False

    def _read(self):
        if self._reading:
            return
        self._reading = True
        try:
            t0, c0 = now()
            value = reading(self.task)
            t1, c1 = now()
            self.values.append(value)
            self.cpu.append(c1 - c0)
            self.ends.append(t1)
            self.starts.append(t0)
        finally:
            self._reading = False

    def _on_alarm(self, signum, frame):
        self._read()

    def read_now(self):
        """Take a reading now, so that every interval before has one after it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._read()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self.read_now()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def times(self, start, end):
        """(scaled, CPU, wall) seconds between two stamps, or None until a reading follows."""
        (t0, c0), (t1, c1) = start, end
        after = bisect_left(self.starts, t1)
        if after == len(self.starts):
            return None
        first = bisect_left(self.starts, t0)
        inside = range(first, after)
        cpu = (c1 - c0) - sum(self.cpu[i] for i in inside)
        wall = (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in inside)
        used = self.values[max(first - 1, 0) : after + 1]
        return cpu * self.nominal * sum(1.0 / v for v in used) / len(used), cpu, wall
