"""Tests for the sprinting-degree throughput (capacity) model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.servers.performance import DEFAULT_MAX_CAPACITY, ThroughputModel


class TestCalibration:
    def test_normal_degree_gives_unit_capacity(self):
        assert ThroughputModel().capacity(1.0) == pytest.approx(1.0)

    def test_max_degree_gives_paper_ceiling(self):
        """capacity(4) = 2.45x, the paper's best-case improvement."""
        model = ThroughputModel()
        assert model.capacity(4.0) == pytest.approx(DEFAULT_MAX_CAPACITY)
        assert DEFAULT_MAX_CAPACITY == pytest.approx(2.45)

    def test_below_normal_scales_linearly(self):
        model = ThroughputModel()
        assert model.capacity(0.5) == pytest.approx(0.5)

    def test_zero_degree_zero_capacity(self):
        assert ThroughputModel().capacity(0.0) == 0.0


class TestConcavity:
    def test_per_core_efficiency_decreases(self):
        """The SPECjbb observation: per-core throughput falls as cores rise."""
        model = ThroughputModel()
        degrees = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        efficiencies = [model.per_core_efficiency(d) for d in degrees]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_marginal_capacity_decreases(self):
        model = ThroughputModel()
        degrees = [1.2, 1.8, 2.5, 3.2, 4.0]
        marginals = [model.marginal_capacity(d) for d in degrees]
        assert marginals == sorted(marginals, reverse=True)

    def test_capacity_strictly_increasing(self):
        model = ThroughputModel()
        degrees = [0.2, 0.8, 1.0, 1.3, 2.0, 3.0, 4.0]
        capacities = [model.capacity(d) for d in degrees]
        assert capacities == sorted(capacities)

    def test_extra_energy_per_extra_capacity_rises_with_degree(self):
        """The economics behind constrained sprinting: capacity gained per
        additional watt falls as the degree grows."""
        model = ThroughputModel()
        # additional power is proportional to (degree - 1).
        low = (model.capacity(2.0) - 1.0) / 1.0
        high = (model.capacity(4.0) - 1.0) / 3.0
        assert low > high


class TestInverse:
    def test_inverse_round_trip(self):
        model = ThroughputModel()
        for c in (0.3, 1.0, 1.5, 2.0, 2.4):
            degree = model.degree_for_capacity(c)
            assert model.capacity(degree) == pytest.approx(c, rel=1e-9)

    def test_demand_beyond_ceiling_clamps_to_max_degree(self):
        model = ThroughputModel()
        assert model.degree_for_capacity(3.0) == pytest.approx(4.0)

    @given(c=st.floats(min_value=0.01, max_value=2.44))
    @settings(max_examples=50)
    def test_inverse_is_exact_within_range(self, c):
        model = ThroughputModel()
        assert model.capacity(model.degree_for_capacity(c)) == pytest.approx(
            c, rel=1e-9
        )

    @given(d=st.floats(min_value=0.01, max_value=4.0))
    @settings(max_examples=50)
    def test_degree_round_trip(self, d):
        model = ThroughputModel()
        c = model.capacity(d)
        assert model.degree_for_capacity(c) == pytest.approx(d, rel=1e-6)


class TestArrayInverse:
    """``degrees_for_capacities`` is ``degree_for_capacity`` per element,
    bit for bit: the span engine, the Oracle frontiers and the vector
    kernel take their needed degrees from it."""

    @staticmethod
    def assert_bitwise(model, capacities):
        got = model.degrees_for_capacities(np.asarray(capacities, dtype=float))
        want = np.asarray([model.degree_for_capacity(float(c)) for c in capacities])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "model",
        (ThroughputModel(), ThroughputModel(max_capacity=1.7, max_degree=3.0)),
    )
    def test_branch_edges(self, model):
        top = model.max_capacity
        self.assert_bitwise(
            model,
            [
                0.0,
                1.0,
                math.nextafter(1.0, 2.0),
                math.nextafter(top, 0.0),
                top,
                math.nextafter(top, math.inf),
                top + 0.5,
                1e300,
            ],
        )

    @given(
        capacities=arrays(
            np.float64,
            st.integers(min_value=1, max_value=64),
            elements=st.floats(min_value=0.0, max_value=10.0),
        ),
        max_degree=st.floats(min_value=1.5, max_value=8.0),
        share=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_random_arrays(self, capacities, max_degree, share):
        max_capacity = 1.0 + share * ((1.0 + max_degree) / 2.0 - 1.0)
        assume(1.0 < max_capacity <= (1.0 + max_degree) / 2.0)
        model = ThroughputModel(max_capacity=max_capacity, max_degree=max_degree)
        self.assert_bitwise(model, capacities)


class TestValidation:
    def test_degree_beyond_max_rejected(self):
        with pytest.raises(ConfigurationError):
            ThroughputModel().capacity(4.5)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ThroughputModel(max_capacity=0.9)
        with pytest.raises(ConfigurationError):
            ThroughputModel(max_degree=1.0)
        with pytest.raises(ConfigurationError):
            # Above (1 + max_degree)/2 per-core throughput would have to
            # *increase* with core count somewhere.
            ThroughputModel(max_capacity=2.6)

    def test_capacity_never_exceeds_degree(self):
        """Per-core throughput never beats the 12-core baseline."""
        model = ThroughputModel()
        for d in (1.1, 1.5, 2.0, 3.0, 4.0):
            assert model.capacity(d) <= d

    def test_marginal_capacity_zero_at_max_degree(self):
        assert ThroughputModel().marginal_capacity(4.0) == pytest.approx(0.0)
