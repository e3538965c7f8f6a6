"""Throughput model: computing capacity as a function of sprinting degree.

Section V-A motivates constrained sprinting with a measurement: running
SPECjbb2005 on a quad-core i5, *per-core throughput decreases when the
number of cores increases* — shared caches, memory bandwidth and the
scheduler all dilute per-core speed.  A lower sprinting degree therefore has
higher power efficiency, which is the entire reason the Prediction and
Heuristic strategies beat Greedy on long bursts.

We capture this with a concave quadratic above the normal degree, saturating
exactly at the maximum degree:

    capacity(SDe) = 1 + b x - c x**2,   x = SDe - 1,  SDe in [1, SDe_max]
    capacity(SDe) = SDe                 for SDe < 1

with ``b = 2 (C_max - 1)/(SDe_max - 1)`` and ``c = b / (2 (SDe_max - 1))``
so that capacity(SDe_max) = C_max and capacity'(SDe_max) = 0 — the last
cores lit add almost nothing, the first extra cores add the most.  The
ceiling ``C_max = 2.45`` at the full sprinting degree of 4 is the paper's
best-case improvement factor (Section VII-C): short bursts that the stored
energy fully covers are served right at this capacity limit.  Because
``b < 1`` at the defaults, capacity never exceeds the degree itself —
per-core throughput is strictly below the 12-core baseline whenever extra
cores are active, exactly the SPECjbb observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import require_non_negative, require_positive

#: Default capacity ceiling at the maximum sprinting degree, calibrated to
#: the paper's 2.45x best-case improvement.
DEFAULT_MAX_CAPACITY = 2.45


@dataclass(frozen=True)
class ThroughputModel:
    """Concave saturating mapping between sprinting degree and capacity.

    Parameters
    ----------
    max_capacity:
        Normalised capacity at ``max_degree``; must lie in
        ``(1, (1 + max_degree)/2]`` so the quadratic stays monotone and
        per-core throughput stays below the normal-operation baseline.
    max_degree:
        Largest admissible sprinting degree (chip total/normal cores).
    """

    max_capacity: float = DEFAULT_MAX_CAPACITY
    max_degree: float = 4.0

    def __post_init__(self) -> None:
        require_positive(self.max_capacity, "max_capacity")
        require_positive(self.max_degree, "max_degree")
        if self.max_degree <= 1.0:
            raise ConfigurationError(
                f"max_degree must exceed 1, got {self.max_degree!r}"
            )
        if self.max_capacity <= 1.0:
            raise ConfigurationError(
                f"max_capacity must exceed 1 (sprinting must help), "
                f"got {self.max_capacity!r}"
            )
        if self.max_capacity > (1.0 + self.max_degree) / 2.0:
            raise ConfigurationError(
                "max_capacity too large for sub-linear per-core scaling: "
                f"must be <= (1 + max_degree)/2, got {self.max_capacity!r}"
            )

    @property
    def _gain(self) -> float:
        """Capacity added between degree 1 and the maximum degree."""
        return self.max_capacity - 1.0

    @property
    def _span(self) -> float:
        """Degree range over which the gain is realised."""
        return self.max_degree - 1.0

    @property
    def _b(self) -> float:
        """Initial slope of the concave branch (capacity per degree at 1+)."""
        return 2.0 * self._gain / self._span

    @property
    def _c(self) -> float:
        """Quadratic curvature coefficient."""
        return self._gain / (self._span * self._span)

    def capacity(self, degree: float) -> float:
        """Normalised computing capacity at a sprinting degree.

        ``capacity(1.0) == 1.0`` is the peak-normal capacity.  Below degree
        1 (some normally-active cores parked) capacity scales linearly.
        """
        d = require_non_negative(degree, "degree")
        if d > self.max_degree + 1e-9:
            raise ConfigurationError(
                f"degree {degree!r} exceeds max_degree {self.max_degree!r}"
            )
        if d <= 1.0:
            return d
        x = d - 1.0
        return 1.0 + self._b * x - self._c * x * x

    def degree_for_capacity(self, capacity: float) -> float:
        """Smallest sprinting degree whose capacity covers ``capacity``.

        The inverse of :meth:`capacity` (the increasing root of the
        quadratic), clamped at ``max_degree`` — the caller must
        admission-control any demand beyond :attr:`max_capacity`.
        """
        c_val = require_non_negative(capacity, "capacity")
        if c_val <= 1.0:
            return c_val
        if c_val >= self.max_capacity:
            return self.max_degree
        b, c = self._b, self._c
        discriminant = b * b - 4.0 * c * (c_val - 1.0)
        # capacity < max_capacity guarantees a positive discriminant.
        x = (b - math.sqrt(max(0.0, discriminant))) / (2.0 * c)
        return min(1.0 + x, self.max_degree)

    def degrees_for_capacities(self, capacities: np.ndarray) -> np.ndarray:
        """:meth:`degree_for_capacity` of every element, bit for bit.

        The same operations in the same order, evaluated for every
        element and then selected per branch, so each element equals the
        scalar method's result.  The capacities are not validated: the
        callers pass trace samples, which are finite and non-negative.
        """
        b, c = self._b, self._c
        discriminant = b * b - 4.0 * c * (capacities - 1.0)
        x = (b - np.sqrt(np.maximum(0.0, discriminant))) / (2.0 * c)
        mid = np.minimum(1.0 + x, self.max_degree)
        return np.where(
            capacities <= 1.0,
            capacities,
            np.where(capacities >= self.max_capacity, self.max_degree, mid),
        )

    def per_core_efficiency(self, degree: float) -> float:
        """Capacity per unit of degree — the power-efficiency signal.

        Strictly decreasing in ``degree`` above 1: this quantity is why
        spreading a burst over a longer, lower-degree sprint serves more
        total requests from the same stored energy.
        """
        d = require_positive(degree, "degree")
        return self.capacity(d) / d

    def marginal_capacity(self, degree: float) -> float:
        """d(capacity)/d(degree) — diminishing returns of extra cores.

        Equals 1 below the normal degree, the initial slope ``b`` just
        above it, and falls linearly to exactly 0 at the maximum degree.
        """
        d = require_positive(degree, "degree")
        if d <= 1.0:
            return 1.0
        if d > self.max_degree + 1e-9:
            raise ConfigurationError(
                f"degree {degree!r} exceeds max_degree {self.max_degree!r}"
            )
        return max(0.0, self._b - 2.0 * self._c * (d - 1.0))
