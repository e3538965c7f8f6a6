"""Workload trace container and analysis helpers.

A :class:`Trace` is a regularly-sampled time series of *normalised demand*:
1.0 equals the peak computing capacity the data center can deliver without
sprinting (the paper's convention in Fig. 7 — "the workload demand
normalized to the normal peak demand").  Values above 1.0 are the bursts
sprinting exists to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from repro.errors import ConfigurationError
from repro.units import require_non_negative, require_positive


@dataclass(frozen=True, slots=True)
class SpanStats:
    """Run-length statistics of a trace: how many maximal runs of
    bit-wise identical demand (spans) it holds, and how long they are.

    A fully jittered trace (every sample its own span) has
    ``n_spans == n_samples`` and a constant trace one span.  The
    simulation steps every sample either way; the statistics describe
    the trace's shape only.
    """

    n_samples: int
    n_spans: int
    mean_length: float
    p95_length: float
    max_length: int


@dataclass(frozen=True)
class Trace:
    """A regularly-sampled normalised-demand time series.

    Parameters
    ----------
    samples:
        Demand values (>= 0), one per ``dt_s`` interval.
    dt_s:
        Sampling period in seconds.
    name:
        Human-readable trace identifier.
    """

    samples: np.ndarray
    dt_s: float = 1.0
    name: str = "trace"

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError(
                "samples must be a non-empty 1-D sequence"
            )
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("samples must be finite")
        if np.any(arr < 0.0):
            raise ConfigurationError("samples must be non-negative")
        require_positive(self.dt_s, "dt_s")
        object.__setattr__(self, "samples", arr)

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.samples.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self.samples.tolist())

    @property
    def duration_s(self) -> float:
        """Total trace duration in seconds."""
        return self.samples.size * self.dt_s

    def at(self, time_s: float) -> float:
        """Demand at a time (zero-order hold; clamped to the trace ends)."""
        require_non_negative(time_s, "time_s")
        idx = int(time_s / self.dt_s)
        idx = min(idx, self.samples.size - 1)
        return float(self.samples[idx])

    def times_s(self) -> np.ndarray:
        """Sample timestamps (start of each interval)."""
        return np.arange(self.samples.size) * self.dt_s

    # ------------------------------------------------------------------
    # Run-length statistics
    # ------------------------------------------------------------------
    def span_stats(self) -> SpanStats:
        """Summarise the trace's runs of identical demand (see :class:`SpanStats`)."""
        samples = self.samples
        starts = np.flatnonzero(samples[1:] != samples[:-1]) + 1
        bounds = np.concatenate(([0], starts, [samples.size]))
        lengths = np.diff(bounds)
        return SpanStats(
            n_samples=int(samples.size),
            n_spans=int(lengths.size),
            mean_length=float(lengths.mean()),
            p95_length=float(np.percentile(lengths, 95.0)),
            max_length=int(lengths.max()),
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def peak(self) -> float:
        """Maximum demand in the trace."""
        return float(self.samples.max())

    @property
    def mean(self) -> float:
        """Mean demand over the whole trace."""
        return float(self.samples.mean())

    def over_capacity_time_s(self, capacity: float = 1.0) -> float:
        """Aggregated time the demand exceeds ``capacity``.

        This is the paper's definition of the *real burst duration*: "the
        aggregated time when the normally active cores are inadequate to
        handle all the workloads" (Section VII-B) — 16.2 minutes for its
        MS trace.
        """
        require_non_negative(capacity, "capacity")
        return float(np.count_nonzero(self.samples > capacity) * self.dt_s)

    def excess_demand_integral(self, capacity: float = 1.0) -> float:
        """Integral of demand above ``capacity`` (demand-seconds)."""
        require_non_negative(capacity, "capacity")
        excess = np.clip(self.samples - capacity, 0.0, None)
        return float(excess.sum() * self.dt_s)

    def mean_over_capacity(self, capacity: float = 1.0) -> float:
        """Mean demand restricted to over-capacity samples (0 if none)."""
        mask = self.samples > capacity
        if not mask.any():
            return 0.0
        return float(self.samples[mask].mean())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "Trace":
        """Return a copy with every sample multiplied by ``factor``."""
        require_positive(factor, "factor")
        return Trace(self.samples * factor, self.dt_s, f"{self.name}*{factor:g}")

    def normalized_to_peak(self, target_peak: float = 1.0) -> "Trace":
        """Return a copy rescaled so its maximum equals ``target_peak``."""
        require_positive(target_peak, "target_peak")
        if self.peak == 0.0:
            raise ConfigurationError("cannot normalise an all-zero trace")
        return Trace(
            self.samples * (target_peak / self.peak),
            self.dt_s,
            f"{self.name}|peak={target_peak:g}",
        )

    def window(self, start_s: float, end_s: float) -> "Trace":
        """Return the sub-trace covering ``[start_s, end_s)``."""
        require_non_negative(start_s, "start_s")
        if end_s <= start_s:
            raise ConfigurationError(
                f"end_s must exceed start_s ({end_s!r} <= {start_s!r})"
            )
        i0 = int(start_s / self.dt_s)
        i1 = int(end_s / self.dt_s)
        if i0 >= self.samples.size:
            raise ConfigurationError("window starts beyond the trace end")
        i1 = min(i1, self.samples.size)
        return Trace(
            self.samples[i0:i1].copy(),
            self.dt_s,
            f"{self.name}[{start_s:g}s:{end_s:g}s]",
        )

    def resampled(self, dt_s: float) -> "Trace":
        """Return a zero-order-hold resampling at a new period."""
        require_positive(dt_s, "dt_s")
        n_out = max(1, int(round(self.duration_s / dt_s)))
        times = np.arange(n_out) * dt_s
        idx = np.minimum(
            (times / self.dt_s).astype(int), self.samples.size - 1
        )
        return Trace(self.samples[idx], dt_s, f"{self.name}@{dt_s:g}s")


@dataclass(frozen=True)
class BurstInterval:
    """One contiguous over-capacity interval of a trace."""

    start_s: float
    end_s: float
    peak: float

    @property
    def duration_s(self) -> float:
        """Length of the interval in seconds."""
        return self.end_s - self.start_s


def find_bursts(trace: Trace, capacity: float = 1.0) -> List[BurstInterval]:
    """Locate all contiguous intervals where demand exceeds ``capacity``."""
    require_non_negative(capacity, "capacity")
    above = trace.samples > capacity
    bursts: List[BurstInterval] = []
    start_idx = None
    for i, flag in enumerate(above):
        if flag and start_idx is None:
            start_idx = i
        elif not flag and start_idx is not None:
            seg = trace.samples[start_idx:i]
            bursts.append(
                BurstInterval(
                    start_s=start_idx * trace.dt_s,
                    end_s=i * trace.dt_s,
                    peak=float(seg.max()),
                )
            )
            start_idx = None
    if start_idx is not None:
        seg = trace.samples[start_idx:]
        bursts.append(
            BurstInterval(
                start_s=start_idx * trace.dt_s,
                end_s=trace.duration_s,
                peak=float(seg.max()),
            )
        )
    return bursts
