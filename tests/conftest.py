"""Shared fixtures for the Data Center Sprinting test suite."""

from __future__ import annotations

import pytest

from repro.core.controller import SprintingController
from repro.simulation.config import DataCenterConfig
from repro.simulation.datacenter import build_datacenter
from repro.workloads.ms_trace import default_ms_trace
from repro.workloads.yahoo_trace import generate_yahoo_trace


@pytest.fixture(scope="session")
def ms_trace():
    """The packaged reference MS-style trace (read-only)."""
    return default_ms_trace()


@pytest.fixture(scope="session")
def yahoo_trace_15min():
    """Yahoo trace with the Fig. 7b burst (degree 3.2, 15 minutes)."""
    return generate_yahoo_trace(burst_degree=3.2, burst_duration_min=15)


@pytest.fixture(scope="session")
def yahoo_trace_5min():
    """Yahoo trace with a short burst (degree 3.2, 5 minutes)."""
    return generate_yahoo_trace(burst_degree=3.2, burst_duration_min=5)


@pytest.fixture()
def default_config():
    """The paper's Section VI-A configuration."""
    return DataCenterConfig()


@pytest.fixture()
def datacenter(default_config):
    """A freshly built default facility."""
    return build_datacenter(default_config)


@pytest.fixture()
def small_datacenter():
    """A small facility for fast controller unit tests.

    Two PDUs of 50 servers each; every per-server ratio (breaker headroom,
    UPS minutes, TES minutes) matches the paper's defaults, so control
    dynamics are identical to the full-size facility, just cheaper.
    """
    return build_datacenter(DataCenterConfig(n_pdus=2, servers_per_pdu=50))


@pytest.fixture()
def controller_calls(monkeypatch):
    """Counts ``SprintingController.step`` / ``run_trace`` calls from here on.

    The path pins read it: a search, faulted run or MPC plan that falls
    back to per-sample ``step`` calls shows up as a non-zero count.
    """
    calls = {"step": 0, "run_trace": 0}
    for name in calls:
        original = getattr(SprintingController, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(SprintingController, name, spy)
    return calls
