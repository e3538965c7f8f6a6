"""``snapshot-coverage`` rule: every mutable field forks must round-trip.

The fork engine (:mod:`repro.simulation.snapshot`) promises that
``FacilityState.capture`` → ``restore`` reproduces a running facility
bit-for-bit — the shared-prefix Oracle search, the MPC rollout planner
and the vector batch kernel are all built on that promise.  The promise
breaks *silently* whenever someone adds a ``self.<attr> = ...`` to a
class the controller drives and forgets to thread it through the
snapshot: forked runs then diverge from straight-line runs only on
traces that exercise the new state.

This rule closes that gap statically.  For every class reachable from a
live run (:data:`TRACKED_CLASSES` — the breakers, UPS battery, TES tank,
room model, chiller, PCM sink, detector, budget, phase tracker,
admission controller, safety monitor, the controller itself, all eight
strategy kinds and the fault injector) it infers the *mutable attribute
set*:

* every ``self.<attr>`` assignment (plain, annotated, augmented, or a
  subscript store like ``self.x[k] = v``) in any method other than
  ``__init__``/``__post_init__``; and
* every ``<obj>.<attr>`` store *anywhere else in the tree* whose
  attribute name matches one of the class's ``__init__``-declared fields
  (fault injection de-rates ratings in place, the kernel writes the
  controller's fast-forward cache — external mutation is still
  mutation).

Each mutable attribute must then be *covered*: its name must appear in
``repro/simulation/snapshot.py`` (the capture/restore surface), or be
referenced by the owning class's own ``snapshot_state``/``restore_state``
(strategy plan state rides inside ``FacilityState.strategy_state``), or
be listed in :data:`ALLOWED_UNSNAPSHOTTED` with a written reason.
Anything else is a finding at the first mutation site.

The allowlist is audited too: an entry naming an attribute that is no
longer mutated anywhere is itself a finding, so the list cannot rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import Finding, Rule, SourceFile

#: The snapshot module whose attribute references form the coverage surface.
SNAPSHOT_SUFFIX = "repro/simulation/snapshot.py"

#: (module suffix, class name) for every object a live run mutates.
TRACKED_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro/power/breaker.py", "CircuitBreaker"),
    ("repro/power/ups.py", "UpsBattery"),
    ("repro/cooling/tes.py", "TesTank"),
    ("repro/cooling/thermal.py", "RoomThermalModel"),
    ("repro/cooling/chiller.py", "ChillerPlant"),
    ("repro/servers/pcm.py", "PcmHeatSink"),
    ("repro/workloads/prediction.py", "OnlineBurstDetector"),
    ("repro/core/budget.py", "EnergyBudget"),
    ("repro/core/phases.py", "PhaseTracker"),
    ("repro/core/admission.py", "AdmissionController"),
    ("repro/core/safety.py", "SafetyMonitor"),
    ("repro/core/controller.py", "SprintingController"),
    ("repro/core/strategies.py", "GreedyStrategy"),
    ("repro/core/strategies.py", "FixedUpperBoundStrategy"),
    ("repro/core/strategies.py", "OracleStrategy"),
    ("repro/core/strategies.py", "PredictionStrategy"),
    ("repro/core/strategies.py", "HeuristicStrategy"),
    ("repro/core/strategies.py", "MPCStrategy"),
    ("repro/core/adaptive.py", "AdaptivePredictionStrategy"),
    ("repro/core/adaptive.py", "RecedingHorizonStrategy"),
    ("repro/simulation/faults.py", "FaultInjector"),
)

#: Mutable attributes that are deliberately *not* snapshotted, with the
#: reason.  This is the rule's explicit allowlist — add an entry here (in
#: code review's line of sight) rather than a suppression comment.
ALLOWED_UNSNAPSHOTTED: Dict[Tuple[str, str], str] = {
    ("MPCStrategy", "_planner"): (
        "the rollout planner closure binds the live facility and is "
        "re-bound by the engine when a controller is built; a restored "
        "fork keeps (or re-binds) its own planner, so the closure itself "
        "is wiring, not plan state — the committed bound and plan log "
        "it produces ARE snapshotted"
    ),
}

#: Methods whose ``self.<attr>`` stores define fields rather than mutate
#: state.
_CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__"})

#: Methods whose ``self.<attr>`` references count as snapshot coverage
#: (strategy plan state rides in ``FacilityState.strategy_state``).
_STRATEGY_SNAPSHOT_METHODS = frozenset({"snapshot_state", "restore_state"})


@dataclass
class _ClassInfo:
    """What the rule learned about one tracked class."""

    name: str
    path: str
    line: int
    bases: List[str]
    #: attr -> line of the declaration (__init__ stores + annotations).
    fields: Dict[str, int] = field(default_factory=dict)
    #: attr -> line of the first mutation outside the constructor.
    mutated: Dict[str, int] = field(default_factory=dict)
    #: ``self.<attr>`` names referenced inside snapshot_state/restore_state.
    snapshot_refs: Set[str] = field(default_factory=set)


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` -> attr name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _store_targets(node: ast.stmt) -> List[ast.expr]:
    """The assignment targets of a statement, if it stores anything."""
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _stored_attribute(target: ast.expr) -> Optional[ast.Attribute]:
    """The attribute a store target writes through, unwrapping subscripts.

    ``self.x = v`` and ``self.x[k] = v`` both mutate ``self.x``; tuple
    targets are walked element-wise by the caller.
    """
    while isinstance(target, ast.Subscript):
        target = target.value
    return target if isinstance(target, ast.Attribute) else None


def _iter_store_attributes(node: ast.stmt) -> List[ast.Attribute]:
    out: List[ast.Attribute] = []
    for target in _store_targets(node):
        if isinstance(target, (ast.Tuple, ast.List)):
            elements: Sequence[ast.expr] = target.elts
        else:
            elements = [target]
        for element in elements:
            attribute = _stored_attribute(element)
            if attribute is not None:
                out.append(attribute)
    return out


def _collect_class_info(
    source: SourceFile, class_names: Set[str]
) -> List[_ClassInfo]:
    """Field/mutation/snapshot-ref sets for the tracked classes in a file."""
    infos: List[_ClassInfo] = []
    for node in source.tree.body:
        if not isinstance(node, ast.ClassDef) or node.name not in class_names:
            continue
        info = _ClassInfo(
            name=node.name,
            path=source.display_path,
            line=node.lineno,
            bases=[b.id for b in node.bases if isinstance(b, ast.Name)],
        )
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                info.fields.setdefault(item.target.id, item.lineno)
            if not isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            in_constructor = item.name in _CONSTRUCTOR_METHODS
            in_snapshot = item.name in _STRATEGY_SNAPSHOT_METHODS
            for sub in ast.walk(item):
                if in_snapshot and isinstance(sub, ast.Attribute):
                    attr = _self_attr(sub)
                    if attr is not None:
                        info.snapshot_refs.add(attr)
                if not isinstance(sub, ast.stmt):
                    continue
                for attribute in _iter_store_attributes(sub):
                    attr = _self_attr(attribute)
                    if attr is None:
                        continue
                    if in_constructor:
                        info.fields.setdefault(attr, attribute.lineno)
                    else:
                        info.mutated.setdefault(attr, attribute.lineno)
        infos.append(info)
    return infos


def _snapshot_surface(source: SourceFile) -> Set[str]:
    """Every attribute name the snapshot module references (non-call).

    Method calls (``breaker.step(...)``, ``strategy.snapshot_state()``)
    are excluded so a mutable attribute that merely shares a method's
    name is not silently considered covered.
    """
    call_funcs = {
        id(node.func)
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Call)
    }
    return {
        node.attr
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Attribute) and id(node) not in call_funcs
    }


class SnapshotCoverageRule(Rule):
    """Un-snapshotted mutable state in any fork-reachable class."""

    rule_id = "snapshot-coverage"
    description = (
        "every mutable attribute of the classes a live run drives must "
        "round-trip through FacilityState.capture/restore (or the "
        "strategy's snapshot_state), or carry a reasoned allowlist entry"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> List[Finding]:
        snapshot_source = None
        for source in sources:
            if source.path.as_posix().endswith(SNAPSHOT_SUFFIX):
                snapshot_source = source
                break
        if snapshot_source is None:
            return []  # tree without the fork engine: nothing to check

        tracked_by_suffix: Dict[str, Set[str]] = {}
        for suffix, name in TRACKED_CLASSES:
            tracked_by_suffix.setdefault(suffix, set()).add(name)

        infos: Dict[str, _ClassInfo] = {}
        tracked_paths: Set[str] = set()
        for source in sources:
            posix = source.path.as_posix()
            for suffix, names in tracked_by_suffix.items():
                if posix.endswith(suffix):
                    tracked_paths.add(source.display_path)
                    for info in _collect_class_info(source, names):
                        infos[info.name] = info

        self._merge_external_stores(sources, snapshot_source, infos)
        surface = _snapshot_surface(snapshot_source)

        findings: List[Finding] = []
        for name in sorted(infos):
            info = infos[name]
            covered = surface | self._inherited_snapshot_refs(name, infos)
            for attr in sorted(info.mutated):
                if attr in covered:
                    continue
                if (name, attr) in ALLOWED_UNSNAPSHOTTED:
                    continue
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=info.path,
                        line=info.mutated[attr],
                        message=(
                            f"{name}.{attr} is mutated during a run but "
                            "never round-trips through FacilityState."
                            "capture/restore — a forked or rolled-out run "
                            "would silently diverge from a straight-line "
                            "run; snapshot it in "
                            f"{SNAPSHOT_SUFFIX} (or the class's "
                            "snapshot_state), or add an entry with a "
                            "reason to ALLOWED_UNSNAPSHOTTED in "
                            "src/repro/analysis/snapshot_coverage.py"
                        ),
                    )
                )
        findings.extend(self._audit_allowlist(infos, snapshot_source))
        return findings

    @staticmethod
    def _inherited_snapshot_refs(
        name: str, infos: Dict[str, _ClassInfo]
    ) -> Set[str]:
        """snapshot_state/restore_state references of a class + ancestors."""
        refs: Set[str] = set()
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = infos.get(current)
            if info is None:
                continue
            refs |= info.snapshot_refs
            stack.extend(info.bases)
        return refs

    @staticmethod
    def _merge_external_stores(
        sources: Sequence[SourceFile],
        snapshot_source: SourceFile,
        infos: Dict[str, _ClassInfo],
    ) -> None:
        """Count ``<obj>.<attr>`` stores elsewhere as mutations.

        Matching is by attribute name against each class's declared
        fields — receiver types are not resolved, which over-approximates
        (a shared field name marks every declaring class mutated).  The
        snapshot module itself is excluded: its restore writes are the
        round-trip, not a mutation to cover.
        """
        field_owners: Dict[str, List[_ClassInfo]] = {}
        for info in infos.values():
            for attr in info.fields:
                field_owners.setdefault(attr, []).append(info)
        for source in sources:
            if source is snapshot_source:
                continue
            if "/analysis/" in source.path.as_posix():
                continue  # rule fixtures and allowlists, not live code
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.stmt):
                    continue
                for attribute in _iter_store_attributes(node):
                    if _self_attr(attribute) is not None:
                        continue  # self-stores were collected per class
                    for owner in field_owners.get(attribute.attr, []):
                        owner.mutated.setdefault(
                            attribute.attr, attribute.lineno
                        )

    def _audit_allowlist(
        self, infos: Dict[str, _ClassInfo], snapshot_source: SourceFile
    ) -> List[Finding]:
        """Stale or reason-less allowlist entries are findings too."""
        findings: List[Finding] = []
        for (name, attr), reason in sorted(ALLOWED_UNSNAPSHOTTED.items()):
            info = infos.get(name)
            if info is None:
                continue  # class's module not in this scan
            if not reason.strip():
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=info.path,
                        line=info.line,
                        message=(
                            f"ALLOWED_UNSNAPSHOTTED[({name!r}, {attr!r})] "
                            "has an empty reason; every allowlist entry "
                            "must say why the field needs no snapshot"
                        ),
                    )
                )
            if attr not in info.mutated:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=info.path,
                        line=info.line,
                        message=(
                            f"stale allowlist entry: {name}.{attr} is no "
                            "longer mutated anywhere — remove it from "
                            "ALLOWED_UNSNAPSHOTTED in "
                            "src/repro/analysis/snapshot_coverage.py"
                        ),
                    )
                )
        return findings
