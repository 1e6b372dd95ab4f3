"""Windowed metric series sampled in virtual time.

Three series types back the observability plane: :class:`Counter` (monotone
event counts), :class:`Gauge` (last-value-wins levels) and
:class:`WindowedHistogram` (latency-style value distributions).  All three
bucket their samples into fixed-width windows of **virtual** time -- the
timestamps come from the simulator clock, never the wall clock -- so a
metric trace is as deterministic as the run that produced it.

Memory is bounded two ways:

* every series keeps at most :data:`DEFAULT_MAX_WINDOWS` closed windows;
  when the cap is hit, adjacent windows are merged pairwise and the window
  width doubles (deterministic coarsening, oldest data gets blurrier);
* histograms keep bounded reservoirs -- one per open window and one for the
  whole run -- filled with Vitter's algorithm R driven by a private
  :class:`random.Random` seeded from the series name, so reservoir contents
  are a pure function of the observation sequence.

Nothing in this module schedules simulator events or touches any of the
run's seeded RNG streams; recording a sample cannot perturb a simulation.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

__all__ = [
    "DEFAULT_MAX_WINDOWS",
    "DEFAULT_RESERVOIR",
    "DEFAULT_WINDOW",
    "Counter",
    "Gauge",
    "WindowedHistogram",
    "nearest_rank",
]

#: Default window width, in virtual seconds.  Scenario runs span hundreds
#: to thousands of virtual seconds, so 20s windows still give 25-500 points
#: per series while keeping window rolls (the priciest part of recording a
#: sample) off the common path.
DEFAULT_WINDOW = 20.0

#: Closed windows retained per series before pairwise coarsening kicks in.
DEFAULT_MAX_WINDOWS = 64

#: Capacity of a histogram's whole-run value reservoir.
DEFAULT_RESERVOIR = 512

#: Capacity of the per-open-window sample buffer used for window quantiles.
_WINDOW_RESERVOIR = 128


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sequence.

    The sweep layer's ``latency_summary`` uses it too: the q-th quantile is
    the value at rank ``ceil(q * n)`` (1-based).  Edge cases are
    explicit: an empty sequence yields ``0.0``, a single sample yields that
    sample, and an all-equal sequence yields the common value for every q.
    """
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


class _Windowed:
    """Shared machinery: fixed-width windows with pairwise coarsening.

    Subclasses store one list per closed window (first element: the window
    start time) plus a live window; :meth:`_merge_pair` defines how two
    adjacent windows fold together when the retention cap forces the width
    to double.
    """

    __slots__ = ("name", "width", "max_windows", "_done", "_live")

    def __init__(self, name: str, width: float, max_windows: int) -> None:
        self.name = name
        self.width = float(width)
        self.max_windows = int(max_windows)
        self._done: List[List[float]] = []
        self._live: Optional[List[float]] = None

    def _window_start(self, now: float) -> float:
        """Start time of the window containing virtual time ``now``."""
        return (now // self.width) * self.width

    def _merge_pair(self, into: List[float], other: List[float]) -> None:
        """Fold window ``other`` into ``into`` (same coarsened start)."""
        raise NotImplementedError

    def _roll(self, now: float) -> List[float]:
        """Return the live window for ``now``, closing stale ones."""
        width = self.width
        start = (now // width) * width
        live = self._live
        if live is not None:
            if start <= live[0]:
                return live
            self._close(live)
            done = self._done
            done.append(live)
            if len(done) > self.max_windows:
                self._coarsen()
                # Coarsening doubled the width; recompute the start.
                width = self.width
                start = (now // width) * width
        self._live = live = self._open(start)
        return live

    def _open(self, start: float) -> List[float]:
        """Create an empty live window starting at ``start``."""
        raise NotImplementedError

    def _close(self, live: List[float]) -> None:
        """Finalize a live window before it is archived (default: no-op)."""

    def _coarsen(self) -> None:
        """Halve the closed-window count by doubling the window width."""
        if len(self._done) <= self.max_windows:
            return
        self.width *= 2.0
        merged: List[List[float]] = []
        for window in self._done:
            start = self._window_start(window[0])
            if merged and merged[-1][0] == start:
                self._merge_pair(merged[-1], window)
            else:
                window[0] = start
                merged.append(window)
        self._done = merged

    def windows(self) -> List[List[float]]:
        """All windows in time order, the still-open one included."""
        out = [list(w) for w in self._done]
        if self._live is not None:
            live = list(self._live)
            self._close(live)
            out.append(live)
        return out


class Counter(_Windowed):
    """A monotone event counter with a per-window rate series.

    Each closed window is ``[start, count]``; :attr:`total` is the
    whole-run sum.  Counters answer "how many NACKs after the heal?" by
    summing the windows at or after a mark.
    """

    __slots__ = ("total",)

    def __init__(self, name: str, width: float = DEFAULT_WINDOW,
                 max_windows: int = DEFAULT_MAX_WINDOWS) -> None:
        super().__init__(name, width, max_windows)
        self.total = 0

    def _open(self, start: float) -> List[float]:
        """Open an empty ``[start, count]`` window."""
        return [start, 0]

    def _merge_pair(self, into: List[float], other: List[float]) -> None:
        """Coarsen by summing the two windows' counts."""
        into[1] += other[1]

    def inc(self, now: float, amount: int = 1) -> None:
        """Count ``amount`` events at virtual time ``now``."""
        self.total += amount
        # Fast path: virtual time is monotone, so "still inside the live
        # window" is a single comparison; rolling/coarsening stays out of
        # line for the once-per-window slow case.
        live = self._live
        if live is not None and now - live[0] < self.width:
            live[1] += amount
        else:
            self._roll(now)[1] += amount

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary: total, window width and window series."""
        return {"total": self.total, "width": self.width,
                "windows": [[w[0], int(w[1])] for w in self.windows()]}


class Gauge(_Windowed):
    """A last-value-wins level with per-window last/peak tracking.

    Each closed window is ``[start, last, peak]``.  Gauges carry levels
    such as the open streaming-window size or per-shard stored bytes.
    """

    __slots__ = ("last", "peak")

    def __init__(self, name: str, width: float = DEFAULT_WINDOW,
                 max_windows: int = DEFAULT_MAX_WINDOWS) -> None:
        super().__init__(name, width, max_windows)
        self.last = 0.0
        self.peak = 0.0

    def _open(self, start: float) -> List[float]:
        """Open a window seeded with the current level."""
        return [start, self.last, self.last]

    def _merge_pair(self, into: List[float], other: List[float]) -> None:
        """Coarsen: keep the later last-value, the larger peak."""
        into[1] = other[1]
        into[2] = max(into[2], other[2])

    def set(self, now: float, value: float) -> None:
        """Record level ``value`` at virtual time ``now``."""
        self.last = value
        self.peak = max(self.peak, value)
        live = self._live
        if live is None or now - live[0] >= self.width:
            live = self._roll(now)
        live[1] = value
        live[2] = max(live[2], value)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary: last, peak, window width and series."""
        return {"last": self.last, "peak": self.peak, "width": self.width,
                "windows": self.windows()}


class WindowedHistogram(_Windowed):
    """A value distribution with per-window quantiles and a run reservoir.

    While a window is open its samples collect into a bounded buffer
    (reservoir-sampled past :data:`_WINDOW_RESERVOIR` entries); on close the
    window is finalized to ``[start, count, mean, max, p99]`` and the raw
    samples are dropped, so memory stays O(window) regardless of run
    length.  A second bounded reservoir spans the whole run and feeds the
    overall p50/p95/p99 summary.  Both reservoirs use Vitter's algorithm R
    with a private RNG seeded from the series name -- fully deterministic
    for a given observation sequence.

    Coarsening merges finalized windows with count-weighted means, max of
    maxima, and max of p99s (a conservative upper bound on the merged p99).
    """

    __slots__ = ("count", "total", "max", "_reservoir", "_capacity",
                 "_seen", "_rng", "_live_samples")

    def __init__(self, name: str, width: float = DEFAULT_WINDOW,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 reservoir: int = DEFAULT_RESERVOIR) -> None:
        super().__init__(name, width, max_windows)
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._reservoir: List[float] = []
        self._capacity = int(reservoir)
        self._seen = 0
        self._rng = random.Random(f"obs:{name}")
        self._live_samples: List[float] = []

    def _open(self, start: float) -> List[float]:
        """Open an empty ``[start, count, total, max]`` live window."""
        # Reuse the sample buffer: closed windows keep only their finalized
        # stats, never a reference to it, and clearing beats reallocating.
        self._live_samples.clear()
        return [start, 0, 0.0, 0.0]

    def _close(self, live: List[float]) -> None:
        """Finalize a live window to ``[start, count, mean, max, p99]``."""
        count = int(live[1])
        mean = (live[2] / count) if count else 0.0
        # Nearest-rank p99 is the maximum whenever fewer than 100 samples
        # are in hand (ceil(0.99 * n) == n for n < 100), which is the
        # common case for a single window -- and the window max is already
        # tracked in live[3] (0.0 when empty), so no scan or sort at all.
        if count < 100:
            p99 = live[3]
        else:
            p99 = nearest_rank(sorted(self._live_samples), 0.99)
        live[1] = count
        live[2] = mean
        # live[3] (max) stays; append the window p99.
        if len(live) == 4:
            live.append(p99)
        else:  # re-finalizing a copy from windows(): already 5-wide
            live[4] = p99

    def _merge_pair(self, into: List[float], other: List[float]) -> None:
        """Coarsen two finalized windows (weighted mean, max-of-p99s)."""
        count = into[1] + other[1]
        if count:
            into[2] = (into[2] * into[1] + other[2] * other[1]) / count
        into[1] = count
        into[3] = max(into[3], other[3])
        into[4] = max(into[4], other[4])

    def observe(self, now: float, value: float) -> None:
        """Record sample ``value`` at virtual time ``now``."""
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        # Whole-run reservoir (algorithm R).  ``seen <= capacity`` is
        # equivalent to ``len(reservoir) < capacity`` because the reservoir
        # only ever grows while below capacity.
        seen = self._seen = self._seen + 1
        if seen <= self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(seen)
            if slot < self._capacity:
                self._reservoir[slot] = value
        # Live window aggregates + bounded sample buffer.  Virtual time is
        # monotone, so "still inside the live window" is one comparison.
        live = self._live
        if live is None or now - live[0] >= self.width:
            live = self._roll(now)
        count = live[1] = live[1] + 1
        live[2] += value
        if value > live[3]:
            live[3] = value
        # Same equivalence for the per-window buffer: it is cleared on open
        # and only appended to while ``count`` stays within capacity.
        if count <= _WINDOW_RESERVOIR:
            self._live_samples.append(value)
        else:
            slot = self._rng.randrange(count)
            if slot < _WINDOW_RESERVOIR:
                self._live_samples[slot] = value
        return None

    def quantile(self, q: float) -> float:
        """Whole-run nearest-rank quantile from the bounded reservoir."""
        return nearest_rank(sorted(self._reservoir), q)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary: run aggregates, quantiles, window series."""
        mean = (self.total / self.count) if self.count else 0.0
        ordered = sorted(self._reservoir)
        return {
            "count": self.count,
            "mean": mean,
            "max": self.max,
            "p50": nearest_rank(ordered, 0.50),
            "p95": nearest_rank(ordered, 0.95),
            "p99": nearest_rank(ordered, 0.99),
            "width": self.width,
            "windows": self.windows(),
        }
