"""Timing against reference computations, so that machine slow phases cancel.

On a shared machine the same code runs up to 2x slower for tens of seconds
or minutes at a time, and the fastest sample of a run cannot remove a slow
phase that lasts the whole run. So the benchmark measures the machine's
speed while it times bbauth, with a fixed reference computation of the
same kind as the timed work:

- `python`: a dict-and-string loop and small numpy calls, like the
  matchers' scoring, the generator and the grading;
- `blas`: a dense matrix product of the siamese network's size, like
  siamese training, which slow phases affect much less than they slow
  the `python` reference (up to 2x).

A `Stopwatch` of a kind runs its reference three times on either side of
the timed work. While the `Ticker` is on, a timer signal runs it once
more every `TICK_S` seconds, also in the middle of the work, so that a
long step is measured against the machine's speed over the whole step.
The ticks' own time is not counted in the step. The step's time in
reference units is

    seconds = wall seconds / mean(reference runs within the step) * nominal

where `nominal` is the reference's duration on this machine when it is
not slowed. A change to bbauth changes the wall time and not the
reference, so it moves the figure by the same share.

The CLI's stages, whose cost is mostly decoding a 12 MB JSON document,
are timed against `blas` (see passes.CLI_KIND).
"""

from __future__ import annotations

import signal
import time

import numpy as np

TICK_S = 0.1     # the ticker's period
EDGE_RUNS = 3    # reference runs on either side of a stopwatch

_SMALL = np.random.default_rng(0).random((32, 32))
_BATCH = np.random.default_rng(1).random((32, 1024))
_WEIGHTS = np.random.default_rng(2).random((1024, 400))


def python_work() -> float:
    counts: dict[int, float] = {}
    total = 0.0
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
        total += len(str(i))
    for _ in range(4):
        total += float(np.tanh(_SMALL @ _SMALL).sum())
    return total


def blas_work() -> float:
    return float(np.maximum(_BATCH @ _WEIGHTS, 0.0).sum())


#: kind -> (reference computation, its nominal duration in seconds)
REFERENCES = {"python": (python_work, 0.00055), "blas": (blas_work, 0.00080)}


class Ticker:
    """Runs the open stopwatch's reference every `TICK_S` seconds, and logs every run."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {kind: [] for kind in REFERENCES}
        self.spent = 0.0              # time the ticks took, in total
        self.kind: str | None = None  # the kind of the open stopwatch

    def _tick(self, signum, frame) -> None:
        if self.kind is not None:
            self.spent += self.run(self.kind)

    def run(self, kind: str) -> float:
        """Run the reference of `kind` once, log it, and return its duration."""
        work, _ = REFERENCES[kind]
        t0 = time.perf_counter()
        work()
        duration = time.perf_counter() - t0
        self.durations[kind].append(duration)
        return duration

    def __enter__(self) -> "Ticker":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def edge(self, kind: str) -> None:
        for _ in range(EDGE_RUNS):
            self.run(kind)


#: The ticker that stopwatches log to; it ticks only inside `with TICKER:`.
TICKER = Ticker()


class Stopwatch:
    """Times the work in its `with` block against the reference runs around and in it.

    `wall` (without the ticks) and `seconds` (reference units) are set
    when the block ends, also when it raises; the exception is not caught.
    """

    wall: float = 0.0
    seconds: float = 0.0

    def __init__(self, kind: str = "python"):
        self.kind = kind

    def __enter__(self) -> "Stopwatch":
        ticker = TICKER
        self._first = len(ticker.durations[self.kind])
        ticker.edge(self.kind)
        ticker.kind = self.kind
        self._spent = ticker.spent
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        ticker = TICKER
        self.wall = time.perf_counter() - self._t0 - (ticker.spent - self._spent)
        ticker.kind = None
        ticker.edge(self.kind)
        runs = ticker.durations[self.kind][self._first:]
        self.seconds = self.wall / (sum(runs) / len(runs)) * REFERENCES[self.kind][1]


def warm_up(runs: int = 50) -> None:
    """Run every reference a few times, so that their first runs are not cold."""
    for work, _ in REFERENCES.values():
        for _ in range(runs):
            work()
