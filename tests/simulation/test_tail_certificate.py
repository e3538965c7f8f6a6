"""The post-burst tail certificate as a property: a certified tail never fails.

The fault-free Oracle search accepts its winner without re-running the
post-burst tail when :func:`~repro.simulation.engine._tails_hold`
certifies the facility and the winner ends its burst with the room's
headroom above the thermal margin.  That is sound only if every such
tail really completes.  Hypothesis draws the PUE, the DC headroom and
single-burst traces on the two-PDU facility and checks, for each bound
of a small grid, that a fixed-bound run which survives its last burst
sample on a certified facility, with the room's headroom above the
margin there, survives the whole trace.

The explicit examples include uncertified facilities whose tails really
trip (no DC headroom, and 2%), so a certificate that forgets a term of
the DC feed (the chiller's draw, or the idle recharge) fails here on
every run, not only when the search happens to draw such a facility.
The certified facilities and the PDU check's hold-band requirement are
pinned directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.controller import ControllerSettings
from repro.errors import ReproError
from repro.simulation import engine
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.workloads.traces import Trace

#: The bounds each drawn facility and trace runs at.
BOUNDS = (1.5, 2.5, 3.5, 4.0)

SETTINGS = dict(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def two_pdu(pue: float = 1.53, headroom: float = 0.10) -> DataCenterConfig:
    return DataCenterConfig(
        n_pdus=2, servers_per_pdu=50, pue=pue, dc_headroom_fraction=headroom
    )


def single_burst(degree: float, post_level: float, seed: int) -> Trace:
    """A minute at sub-capacity demand, a five-minute burst at ``degree``,
    then fifteen minutes at ``post_level`` (<= 1.0), each jittered."""
    rng = np.random.default_rng(seed)
    pre = 0.4 + 0.6 * rng.random(60)
    burst = degree + 0.3 * rng.random(300)
    post = np.minimum(1.0, post_level + 0.1 * rng.random(900))
    return Trace(np.concatenate((pre, burst, post)), 1.0, f"burst-{seed}")


@st.composite
def single_burst_traces(draw):
    """One burst of 1 to 600 samples between sub-capacity stretches; the
    post-burst demand often sits at exactly 1.0, the certificate's worst
    case."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    pre = 0.4 + 0.6 * rng.random(draw(st.integers(min_value=1, max_value=120)))
    burst = draw(st.floats(min_value=1.05, max_value=4.0)) + 0.3 * rng.random(
        draw(st.integers(min_value=1, max_value=600))
    )
    post = np.minimum(
        1.0,
        draw(st.floats(min_value=0.5, max_value=1.0))
        + 0.1 * rng.random(draw(st.integers(min_value=1, max_value=900))),
    )
    return Trace(np.concatenate((pre, burst, post)), 1.0, f"fuzz-{seed}")


class TestTailCertificate:
    @pytest.mark.parametrize(
        "config, certified",
        (
            (DataCenterConfig(), True),
            (two_pdu(), True),
            (DataCenterConfig(dc_headroom_fraction=0.0), False),
            (DataCenterConfig(dc_headroom_fraction=0.02), False),
        ),
    )
    def test_certified_facilities(self, config, certified):
        datacenter = build_datacenter(config)
        controller = engine._fresh_run(datacenter, 4.0)
        assert engine._coast_safe(datacenter)
        assert engine._tails_hold(datacenter, controller.settings) is certified

    def test_pdu_feed_at_its_rating_needs_a_hold_band(self):
        """At a recharge fraction of 1.0 a PDU's feed bound is its rating
        exactly.  Rounding may put a real feed one ulp above it, which
        only a hold band absorbs, so without one the certificate refuses
        (the DC side holds here, with 20% headroom)."""
        datacenter = build_datacenter(two_pdu(headroom=0.2))
        settings = ControllerSettings(max_recharge_fraction=1.0)
        assert engine._tails_hold(datacenter, settings)
        breaker = datacenter.topology.pdu.breaker
        breaker.curve = dataclasses.replace(breaker.curve, hold_threshold=0.0)
        assert not engine._tails_hold(datacenter, settings)

    @pytest.mark.parametrize(
        "headroom, trace",
        (
            (0.0, single_burst(3.6, 1.0, seed=1)),
            (0.02, single_burst(3.2, 1.0, seed=2)),
        ),
    )
    def test_uncertified_examples_really_trip(self, headroom, trace):
        """The explicit examples below catch a weakened certificate only
        while their tails really trip."""
        outcomes = tail_outcomes(two_pdu(headroom=headroom), trace)
        assert any(
            not certified and error is not None
            for certified, error in filter(None, outcomes)
        )

    @settings(**SETTINGS)
    @given(
        pue=st.floats(min_value=1.0, max_value=2.0),
        headroom=st.floats(min_value=0.0, max_value=0.2),
        trace=single_burst_traces(),
    )
    @example(pue=1.53, headroom=0.10, trace=single_burst(3.6, 1.0, seed=1))
    @example(pue=1.53, headroom=0.0, trace=single_burst(3.6, 1.0, seed=1))
    @example(pue=1.53, headroom=0.02, trace=single_burst(3.2, 1.0, seed=2))
    def test_certified_tails_survive(self, pue, headroom, trace):
        for outcome in tail_outcomes(two_pdu(pue, headroom), trace):
            if outcome is not None and outcome[0]:
                assert outcome[1] is None


def tail_outcomes(config, trace):
    """Per bound of :data:`BOUNDS`: ``None`` when the run fails inside its
    burst, else ``(certified, error)``.  ``certified`` means the facility
    is certified and the room's headroom is above the margin at the last
    burst sample; ``error`` is what the post-burst tail raised, if any."""
    samples = trace.samples
    last = int(np.flatnonzero(samples > 1.0)[-1])
    datacenter = build_datacenter(config)
    outcomes = []
    for bound in BOUNDS:
        controller = engine._fresh_run(datacenter, bound)
        certified = engine._coast_safe(datacenter) and engine._tails_hold(
            datacenter, controller.settings
        )
        try:
            controller.run_trace(Trace(samples[: last + 1], 1.0, trace.name))
        except ReproError:
            outcomes.append(None)
            continue
        room = datacenter.cooling.room
        headroom_k = room.threshold_c - room.temperature_c
        certified = certified and headroom_k > controller.settings.thermal_margin_k
        try:
            controller.run_trace(
                Trace(samples[last + 1 :], 1.0, trace.name), start_index=last + 1
            )
        except ReproError as exc:
            outcomes.append((certified, exc))
        else:
            outcomes.append((certified, None))
    return outcomes
