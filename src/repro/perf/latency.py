"""Latency percentile bookkeeping for the service layer.

The service front end (:mod:`repro.service`) completes every request at
a *modeled* time derived from the overlap timing model
(:class:`~repro.perf.timing.EngineTimingModel`); this module turns those
per-request latencies into the percentile figures a serving system is
judged by (p50/p95 of the modeled end-to-end latency).

Percentiles use linear interpolation between closest ranks -- the same
convention as ``numpy.percentile``'s default -- but stay dependency-free
so the tracker can live in hot submit/drain paths without an array
conversion per sample.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples``, interpolated.

    Raises :class:`ValueError` on an empty sample set: a percentile of
    nothing is a bug in the caller's accounting, not a zero.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class LatencyTracker:
    """Accumulates latency samples and answers percentile queries."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total_seconds(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        """Mean latency; 0.0 with no samples (means are summable)."""
        if not self._samples:
            return 0.0
        return self.total_seconds / len(self._samples)

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Percentile ``q`` (0..100); ``None`` with no samples recorded.

        A percentile of an empty sample set is *undefined*, not zero: a
        drain that completed nothing must report "no latency figure",
        never a fake 0.0 that would read as an impossibly fast service.
        """
        if not self._samples:
            return None
        return percentile(self._samples, q)

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(50.0)

    @property
    def p95(self) -> Optional[float]:
        return self.quantile(95.0)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(99.0)

    def to_dict(self) -> dict:
        """The percentile book every latency-reporting layer nests:
        count/mean/p50/p95/p99/max, percentiles ``None`` when empty."""
        return {
            "count": self.count,
            "mean_seconds": self.mean,
            "p50_seconds": self.p50,
            "p95_seconds": self.p95,
            "p99_seconds": self.p99,
            "max_seconds": self.max,
        }
