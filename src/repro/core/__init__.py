"""The paper's primary contribution: the Data Center Sprinting controller.

This package contains the three-phase sprinting controller, the four
sprinting-degree strategies (Greedy, Oracle, Prediction, Heuristic), the
energy-budget bookkeeping, admission control, the safety monitor and the
uncontrolled chip-level baseline.
"""

from repro.core.adaptive import (
    AdaptivePredictionStrategy,
    RecedingHorizonStrategy,
)
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.capping import CappingStep, PowerCappingBaseline
from repro.core.multigroup import (
    GroupStep,
    MultiGroupController,
    MultiGroupStep,
    build_multigroup,
)
from repro.core.budget import (
    DEFAULT_BUDGET_HORIZON_S,
    EnergyBudget,
    cb_deliverable_energy_j,
    tes_electric_equivalent_j,
)
from repro.core.controller import (
    ControllerSettings,
    ControlStep,
    SprintingController,
)
from repro.core.phases import PhaseTracker, SprintPhase, classify_phase
from repro.core.safety import SafetyEvent, SafetyMonitor
from repro.core.strategies import (
    DEFAULT_FLEXIBILITY_PERCENT,
    DEFAULT_MPC_CANDIDATES,
    FixedUpperBoundStrategy,
    GreedyStrategy,
    HeuristicStrategy,
    MPCStrategy,
    OracleStrategy,
    PredictionStrategy,
    SprintingStrategy,
    StrategyObservation,
    UpperBoundTable,
    first_wins_argmax,
    oracle_search,
)
from repro.core.uncontrolled import UncontrolledSprinting, UncontrolledStep

__all__ = [
    "AdaptivePredictionStrategy",
    "AdmissionController",
    "RecedingHorizonStrategy",
    "AdmissionDecision",
    "CappingStep",
    "ControlStep",
    "PowerCappingBaseline",
    "ControllerSettings",
    "DEFAULT_BUDGET_HORIZON_S",
    "DEFAULT_FLEXIBILITY_PERCENT",
    "DEFAULT_MPC_CANDIDATES",
    "EnergyBudget",
    "FixedUpperBoundStrategy",
    "GreedyStrategy",
    "MPCStrategy",
    "GroupStep",
    "MultiGroupController",
    "MultiGroupStep",
    "build_multigroup",
    "HeuristicStrategy",
    "OracleStrategy",
    "PhaseTracker",
    "PredictionStrategy",
    "SafetyEvent",
    "SafetyMonitor",
    "SprintPhase",
    "SprintingController",
    "SprintingStrategy",
    "StrategyObservation",
    "UncontrolledSprinting",
    "UncontrolledStep",
    "UpperBoundTable",
    "cb_deliverable_energy_j",
    "classify_phase",
    "first_wins_argmax",
    "oracle_search",
    "tes_electric_equivalent_j",
]
