"""The Section VI-A default configuration, in one validated place.

Every number below is quoted from the paper's simulation setup:

* 48-core SCC-like chips, 2.5 W per core, 5 W idle chip, 20 W non-CPU,
  12 cores active normally — 55 W peak-normal server power;
* a 10 MW peak-normal facility (~180,000 servers), 200 servers per PDU
  (900 PDUs), PDU breakers rated 13.75 kW;
* PUE 1.53 (servers + cooling only);
* DC-level headroom 10 % of peak-normal facility power by default, swept
  0-20 % in the sensitivity study (the NEC nominal would be 25 %);
* 0.5 Ah per-server UPS batteries (~6 minutes at peak-normal);
* a TES tank carrying the full cooling load for 12 minutes at peak-normal;
* a 1-minute breaker trip-time reserve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict

from repro.errors import ConfigurationError
from repro.units import require_non_negative, require_positive


@dataclass(frozen=True)
class DataCenterConfig:
    """Complete configuration of one simulated facility.

    All defaults reproduce Section VI-A.  Use :func:`dataclasses.replace`
    (or the :meth:`with_changes` convenience) to derive sweep variants.
    """

    # --- fleet ---------------------------------------------------------
    n_pdus: int = 900
    servers_per_pdu: int = 200
    total_cores: int = 48
    normal_cores: int = 12
    core_power_w: float = 2.5
    idle_chip_power_w: float = 5.0
    non_cpu_power_w: float = 20.0
    throughput_max_capacity: float = 2.45

    # --- power infrastructure -------------------------------------------
    dc_headroom_fraction: float = 0.10
    ups_capacity_ah: float = 0.5
    ups_voltage_v: float = 11.0

    # --- cooling ---------------------------------------------------------
    pue: float = 1.53
    chiller_margin: float = 1.15
    has_tes: bool = True
    tes_runtime_min: float = 12.0

    # --- chip-level sprinting (the paper's prerequisite) ------------------
    enforce_chip_thermal: bool = True
    chip_sprint_endurance_min: float = 30.0

    # --- control ----------------------------------------------------------
    dt_s: float = 1.0
    reserve_trip_time_s: float = 60.0
    thermal_margin_k: float = 2.0

    def __post_init__(self) -> None:
        if self.n_pdus <= 0 or self.servers_per_pdu <= 0:
            raise ConfigurationError("fleet dimensions must be positive")
        if not 0 < self.normal_cores <= self.total_cores:
            raise ConfigurationError(
                "normal_cores must be in (0, total_cores]"
            )
        require_positive(self.core_power_w, "core_power_w")
        require_non_negative(self.idle_chip_power_w, "idle_chip_power_w")
        require_non_negative(self.non_cpu_power_w, "non_cpu_power_w")
        require_positive(self.throughput_max_capacity, "throughput_max_capacity")
        if self.throughput_max_capacity <= 1.0:
            raise ConfigurationError("throughput_max_capacity must exceed 1")
        require_non_negative(self.dc_headroom_fraction, "dc_headroom_fraction")
        require_positive(self.ups_capacity_ah, "ups_capacity_ah")
        require_positive(self.ups_voltage_v, "ups_voltage_v")
        if self.pue < 1.0:
            raise ConfigurationError("pue must be >= 1")
        if self.chiller_margin < 1.0:
            raise ConfigurationError("chiller_margin must be >= 1")
        require_positive(self.tes_runtime_min, "tes_runtime_min")
        require_positive(self.chip_sprint_endurance_min, "chip_sprint_endurance_min")
        require_positive(self.dt_s, "dt_s")
        require_positive(self.reserve_trip_time_s, "reserve_trip_time_s")
        require_non_negative(self.thermal_margin_k, "thermal_margin_k")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Fleet size (180,000 at defaults)."""
        return self.n_pdus * self.servers_per_pdu

    @property
    def peak_normal_server_power_w(self) -> float:
        """Per-server peak-normal power (55 W at defaults)."""
        return (
            self.non_cpu_power_w
            + self.idle_chip_power_w
            + self.core_power_w * self.normal_cores
        )

    @property
    def peak_normal_it_power_w(self) -> float:
        """Facility peak-normal IT power (9.9 MW at defaults)."""
        return self.n_servers * self.peak_normal_server_power_w

    @property
    def max_sprinting_degree(self) -> float:
        """Chip maximum degree (4.0 at defaults)."""
        return self.total_cores / self.normal_cores

    def with_changes(self, **changes: Any) -> "DataCenterConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialisation (the batch sweep cache keys off this)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Every field as plain JSON-serialisable data, in field order.

        This is the canonical form the sweep cache hashes: all fields are
        present, so perturbing any one of them changes the cache key.
        """
        return asdict(self)


#: The paper's default configuration, shared by experiments and tests.
DEFAULT_CONFIG = DataCenterConfig()
