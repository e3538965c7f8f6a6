"""Self-hosted static analysis for the sprinting codebase.

Seven domain rules guard invariants ordinary linters cannot see:

* ``kernel-drift`` — :class:`StepKernel` must stay in lockstep with the
  reference control step (attribute reads, record construction, folded
  constants);
* ``snapshot-coverage`` — every mutable attribute of the classes a live
  run drives must round-trip through ``FacilityState.capture/restore``
  (or a strategy's ``snapshot_state``), so forks and rollouts cannot
  silently diverge;
* ``cache-key-coverage`` — every ``StrategySpec``/``DataCenterConfig``/
  ``FaultPlan`` field must flow into the SHA-256 sweep cache key, and
  ``CACHE_FORMAT_VERSION`` must be bumped when the key shape changes;
* ``fs-atomicity`` — the artifact store must publish files via mkstemp +
  ``os.replace`` and keep manifest appends to a single write;
* ``units`` — unit arithmetic goes through :mod:`repro.units`, and
  identifiers with different unit suffixes are never added or compared;
* ``determinism`` — the hot paths stay free of wall clocks, global RNG
  state, set-order iteration and math/numpy mixing;
* ``error-discipline`` — broad exception handlers must log or re-raise.

Run the suite with ``repro lint [paths]`` or ``make lint``; scan only
what changed with ``repro lint --changed-since REV`` (``make
lint-changed``); emit CI annotations with ``--format sarif``.  Suppress
a finding in place with ``# repro: allow[<rule>] -- <reason>`` — a
directive that stops matching anything is itself reported
(``unused-suppression``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.cache_key import CacheKeyCoverageRule
from repro.analysis.determinism import DeterminismRule
from repro.analysis.error_discipline import ErrorDisciplineRule
from repro.analysis.framework import (
    BAD_SUPPRESSION_RULE,
    PARSE_ERROR_RULE,
    UNUSED_SUPPRESSION_RULE,
    AnalysisReport,
    Analyzer,
    Finding,
    Rule,
    SourceFile,
    Suppression,
    git_changed_files,
)
from repro.analysis.fs_atomicity import FsAtomicityRule
from repro.analysis.kernel_drift import KernelDriftRule
from repro.analysis.snapshot_coverage import SnapshotCoverageRule
from repro.analysis.units_rule import UnitsRule

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Analyzer",
    "BAD_SUPPRESSION_RULE",
    "CacheKeyCoverageRule",
    "DeterminismRule",
    "ErrorDisciplineRule",
    "Finding",
    "FsAtomicityRule",
    "KernelDriftRule",
    "PARSE_ERROR_RULE",
    "Rule",
    "SnapshotCoverageRule",
    "SourceFile",
    "Suppression",
    "UNUSED_SUPPRESSION_RULE",
    "UnitsRule",
    "build_default_rules",
    "git_changed_files",
    "run_analysis",
]

#: Rule classes in the order the report lists them.
ALL_RULES = (
    KernelDriftRule,
    SnapshotCoverageRule,
    CacheKeyCoverageRule,
    FsAtomicityRule,
    UnitsRule,
    DeterminismRule,
    ErrorDisciplineRule,
)


def build_default_rules(
    only: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Instantiate the default rule set, optionally filtered by rule id."""
    rules: List[Rule] = [rule_cls() for rule_cls in ALL_RULES]
    if only:
        wanted = set(only)
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.rule_id in wanted]
    return rules


def run_analysis(
    paths: Sequence[str],
    only: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
    changed_since: Optional[str] = None,
) -> AnalysisReport:
    """Run the default rules over ``paths`` and return the report.

    ``changed_since`` switches on incremental mode: the whole tree is
    still analysed (cross-file rules need it), but only findings in
    files changed since the given git revision are reported.  Raises
    ``ValueError`` for unknown rule ids or git failures.
    """
    from pathlib import Path

    changed = (
        git_changed_files(changed_since) if changed_since is not None else None
    )
    analyzer = Analyzer(build_default_rules(only))
    return analyzer.run(
        [Path(p) for p in paths],
        root=Path(root) if root else None,
        changed_only=changed,
    )
