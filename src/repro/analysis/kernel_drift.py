"""``kernel-drift`` rule: keep :class:`StepKernel` in lockstep with the reference.

PR 3 split the control loop into a method-dispatched reference path
(:meth:`SprintingController._step_reference`) and a precomputed
:class:`StepKernel` fast path that must replay it bit-for-bit.  Runtime
differential tests compare the two on randomized traces, but a config
attribute added to the reference and forgotten in the kernel is invisible
until a trace happens to exercise it.  This rule catches the divergence
statically, before any trace runs:

1. **attribute-read sets** — a typed worklist traversal walks every method
   reachable from ``_step_reference`` (reference side) and from
   ``StepKernel.__init__`` / ``StepKernel._run`` — the kernel's one step
   body, behind both ``run_trace`` and ``run_sample`` (kernel side), resolving
   receiver types through a class registry built from annotations, and
   records every ``(Class, attribute)`` read.  A read present on one side
   and absent from the other — outside the curated allowlists below — is a
   finding.
2. **ControlStep construction** — the keyword sets of the reference
   ``ControlStep(...)`` call in ``_commit``, the kernel's
   ``self._ControlStep(...)`` call, and the dataclass's declared fields
   must all agree (a telemetry field added to one construction site and
   not the other silently zeros a column).
3. **StrategyObservation construction** — same check for the observation
   both paths hand to the strategy.
4. **folded constants** — every numeric literal in ``core/kernel.py`` must
   also appear somewhere in the rest of the scanned tree (or be trivially
   structural, or a documented equivalence): a constant that exists only
   in the kernel is a config value that was folded instead of read.

The traversal intentionally over-approximates (it follows every resolvable
call); divergences that are *by design* are listed in
:data:`ALLOWED_REFERENCE_ONLY` / :data:`ALLOWED_KERNEL_ONLY` with a
mandatory reason string — that is this rule's explicit allowlist, kept in
code review's line of sight rather than in suppression comments.

PR 7 adds a second contract layer: :class:`VectorStepKernel`
(``core/vector_kernel.py``) must replay the *scalar kernel* bit-for-bit
per batch element.  The same machinery audits it:

5. **vector attribute-read sets** — the reads reachable from
   ``VectorStepKernel.__init__`` / ``VectorStepKernel.step`` are compared
   against the scalar kernel's, with the by-design divergences listed in
   :data:`ALLOWED_SCALAR_KERNEL_ONLY` / :data:`ALLOWED_VECTOR_KERNEL_ONLY`.
6. **telemetry columns** — ``TELEMETRY_FIELDS`` (the vector kernel's SoA
   telemetry schema) must name exactly :class:`ControlStep`'s declared
   fields, so a field added to the record cannot silently vanish from the
   batch telemetry.
7. The folded-constant audit excludes *both* kernel files from the
   literal universe, so a constant shared only between the two kernels
   (folded in each, read in neither) still fails both audits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import Finding, Rule, SourceFile

#: Path suffixes locating the sides of the contract.
CONTROLLER_SUFFIX = "repro/core/controller.py"
KERNEL_SUFFIX = "repro/core/kernel.py"
VECTOR_KERNEL_SUFFIX = "repro/core/vector_kernel.py"

#: Classes owned by the kernel itself — their reads are the hoisted cache,
#: not substrate state, and have no reference-side counterpart.
KERNEL_OWN_CLASSES = frozenset({"StepKernel", "_BreakerConsts"})

#: Classes owned by the vector kernel — SoA state arrays and shared
#: breaker-curve constants, the batch counterpart of the scalar kernel's
#: hoisted cache.
VECTOR_OWN_CLASSES = frozenset(
    {"VectorStepKernel", "_BreakerBank", "_BreakerConsts", "StepKernel"}
)

#: Per-step record types the kernel flattens into locals.  The reference
#: path reads their fields (``flow.ups_w``, ``decision.served``, ...);
#: the kernel keeps the same values in scalars, so record-field reads are
#: excluded from the comparison.
INTERMEDIATE_RECORD_CLASSES = frozenset(
    {
        "ControlStep",
        "CoolingStep",
        "TopologyPowerFlow",
        "PduPowerSplit",
        "AdmissionDecision",
        "StrategyObservation",
    }
)

#: Reference-side reads with no kernel counterpart, by design.
ALLOWED_REFERENCE_ONLY: Dict[Tuple[str, str], str] = {
    ("SprintingController", "cluster"): (
        "the kernel receives the cluster as a constructor argument and "
        "hoists every invariant it needs"
    ),
    ("SprintingController", "topology"): (
        "the kernel receives the topology as a constructor argument and "
        "keeps direct references to its mutable parts"
    ),
    ("EnergyBudget", "topology"): (
        "the kernel's _remaining_j reaches the substrate through its own "
        "hoisted references instead of the budget's"
    ),
    ("EnergyBudget", "cooling"): (
        "the kernel's _remaining_j reaches the substrate through its own "
        "hoisted references instead of the budget's"
    ),
}

#: Kernel-side reads with no reference counterpart, by design.
ALLOWED_KERNEL_ONLY: Dict[Tuple[str, str], str] = {
    ("Trace", "samples"): (
        "span compilation: run_trace RLE-encodes the trace into "
        "constant-demand spans before stepping; the reference is handed "
        "one sample at a time by the engine loop and never sees the "
        "Trace object"
    ),
    ("Trace", "dt_s"): (
        "span compilation: a segment times step i as i * trace.dt_s "
        "(bulk-replayed steady cycles included); the reference receives "
        "time_s precomputed by its caller"
    ),
    ("PhaseTracker", "current_phase"): (
        "deferred accumulators: a quiet run loads the tracker's phase "
        "into a local at run start and writes it back once at run end; "
        "the reference only ever assigns the attribute per step"
    ),
}

#: Scalar-kernel reads with no vector counterpart, by design.
ALLOWED_SCALAR_KERNEL_ONLY: Dict[Tuple[str, str], str] = {
    ("SprintingController", "strategy"): (
        "the vector kernel is fixed-bound by construction: the bounds "
        "array replaces the per-step degree_upper_bound call, and "
        "notify_realized is a no-op for FixedUpperBoundStrategy"
    ),
    ("SprintingController", "history"): (
        "the scalar kernel appends ControlStep records to the "
        "controller history; the vector kernel records the same columns "
        "in its SoA telemetry arrays instead"
    ),
    ("SprintingController", "cooling"): (
        "read only to hand the safety monitor the cooling plant; the "
        "vector kernel receives the plant as a constructor argument"
    ),
    ("SafetyMonitor", "events"): (
        "the scalar path appends SafetyEvent records; the vector kernel "
        "counts the identical shrink condition into its per-element "
        "violations array (delta semantics from the seed)"
    ),
    ("SafetyMonitor", "thermal_margin_k"): (
        "the vector kernel hoists the same margin from "
        "ControllerSettings.thermal_margin_k, the value the monitor is "
        "constructed with"
    ),
    ("StepLog", "_cols"): (
        "StepLog internals behind ctrl.log.append; the vector kernel's "
        "SoA telemetry arrays replace the log"
    ),
    ("StepLog", "_in_burst"): (
        "StepLog internals behind ctrl.log.append; the vector kernel's "
        "SoA telemetry arrays replace the log"
    ),
    ("StepLog", "_n"): (
        "StepLog internals behind ctrl.log.append; the vector kernel's "
        "SoA telemetry arrays replace the log"
    ),
    ("StepLog", "_phase"): (
        "StepLog internals behind ctrl.log.append; the vector kernel's "
        "SoA telemetry arrays replace the log"
    ),
    ("CircuitBreaker", "name"): (
        "read only to format BreakerTrippedError messages; the vector "
        "kernel latches failure codes (FAIL_PDU/FAIL_DC) instead of "
        "raising"
    ),
    ("Trace", "samples"): (
        "scalar run_trace span-compiles a whole Trace; the vector "
        "kernel is stepped per sample by its batch drivers and never "
        "holds a Trace"
    ),
    ("Trace", "dt_s"): (
        "scalar run_trace reads the trace period for its step "
        "timestamps; the vector kernel's drivers pass time_s in"
    ),
}

#: Vector-kernel reads with no scalar counterpart, by design.
ALLOWED_VECTOR_KERNEL_ONLY: Dict[Tuple[str, str], str] = {
    ("PhaseTracker", "current_phase"): (
        "the vector kernel seeds its per-element phase codes from the "
        "live tracker's phase at construction; the scalar kernel keeps "
        "the tracker object itself and only assigns to it"
    ),
}

#: Structural literals (loop counts, unit steps, signs) that both sides
#: use freely and carry no configuration content.
TRIVIAL_CONSTANTS = frozenset(
    {0, 1, 2, 3, 4, -1, 0.0, 1.0, 2.0, 3.0, 4.0, -1.0, 0.5}
)

#: Kernel literals that deliberately replace a reference expression,
#: with the reason the equivalence is exact.
EQUIVALENT_CONSTANTS: Dict[float, str] = {
    2.718281828459045: (
        "math.e folded so pow(e, x) replays the reference exp(x) "
        "bit-for-bit without the math-module dispatch"
    ),
    32: (
        "_RING_MAX, the steady-cycle detector's ring depth: a cache "
        "sizing knob of the kernel-only fast-forward, not a physical "
        "parameter — a smaller ring only misses longer cycles, it never "
        "changes a replayed value"
    ),
    128: (
        "_RING_MISS_BUDGET, the per-span cap on failed cycle probes: a "
        "cost bound on the kernel-only detector — exhausting it only "
        "disables further replay attempts, never changes a step"
    ),
}


# ----------------------------------------------------------------------
# Class registry
# ----------------------------------------------------------------------
@dataclass
class _ClassInfo:
    name: str
    fields: Dict[str, Optional[str]] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    source: Optional[SourceFile] = None


@dataclass
class _Registry:
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)
    #: Module-level functions by bare name.
    functions: Dict[str, Tuple[ast.FunctionDef, SourceFile]] = field(
        default_factory=dict
    )


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """Bare class name of an annotation (Optional/'quoted' unwrapped)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return None if node.id == "None" else node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base == "Optional":
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        return left if left is not None else _annotation_name(node.right)
    return None


def _is_property(func: ast.FunctionDef) -> bool:
    for decorator in func.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in (
            "property",
            "cached_property",
        ):
            return True
        if (
            isinstance(decorator, ast.Attribute)
            and decorator.attr == "cached_property"
        ):
            return True
    return False


def _iter_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Yield statements depth-first in source order (into if/for/try)."""
    for stmt in body:
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            yield from _iter_statements(getattr(stmt, attr, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _iter_statements(handler.body)


def build_registry(sources: Sequence[SourceFile]) -> _Registry:
    registry = _Registry()
    for source in sources:
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                info = _ClassInfo(name=node.name, source=source)
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        info.fields[item.target.id] = _annotation_name(
                            item.annotation
                        )
                    elif isinstance(item, ast.FunctionDef):
                        info.methods[item.name] = item
                        if _is_property(item):
                            info.properties.add(item.name)
                registry.classes[node.name] = info
            elif isinstance(node, ast.FunctionDef):
                registry.functions[node.name] = (node, source)
    for info in registry.classes.values():
        _harvest_init_fields(registry, info)
    return registry


def _param_env(
    registry: _Registry, owner: Optional[str], func: ast.FunctionDef
) -> Dict[str, Optional[str]]:
    env: Dict[str, Optional[str]] = {}
    args = list(func.args.posonlyargs) + list(func.args.args)
    args += list(func.args.kwonlyargs)
    for index, arg in enumerate(args):
        if index == 0 and owner is not None and arg.arg in ("self", "cls"):
            is_static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in func.decorator_list
            )
            if not is_static:
                env[arg.arg] = owner
                continue
        env[arg.arg] = _annotation_name(arg.annotation)
    return env


def _infer(
    registry: _Registry, env: Dict[str, Optional[str]], node: ast.expr
) -> Optional[str]:
    """Best-effort static type (a registry class name) of an expression."""
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _infer(registry, env, node.value)
        info = registry.classes.get(base) if base else None
        if info is None:
            return None
        if node.attr in info.fields:
            return info.fields[node.attr]
        if node.attr in info.properties:
            return _annotation_name(info.methods[node.attr].returns)
        return None
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in registry.classes:
                return func.id
            if func.id in registry.functions:
                return _annotation_name(registry.functions[func.id][0].returns)
            return None
        if isinstance(func, ast.Attribute):
            base = _infer(registry, env, func.value)
            info = registry.classes.get(base) if base else None
            if info and func.attr in info.methods:
                return _annotation_name(info.methods[func.attr].returns)
        return None
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            resolved = _infer(registry, env, value)
            if resolved is not None:
                return resolved
        return None
    if isinstance(node, ast.IfExp):
        return _infer(registry, env, node.body) or _infer(
            registry, env, node.orelse
        )
    if isinstance(node, ast.NamedExpr):
        return _infer(registry, env, node.value)
    return None


def _harvest_init_fields(registry: _Registry, info: _ClassInfo) -> None:
    """Add ``self.x = <expr>`` assignments in ``__init__`` as fields."""
    init = info.methods.get("__init__")
    if init is None:
        return
    env = _param_env(registry, info.name, init)
    for stmt in _iter_statements(init.body):
        if isinstance(stmt, ast.Assign):
            inferred = _infer(registry, env, stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = inferred
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.fields.setdefault(target.attr, inferred)
        elif isinstance(stmt, ast.AnnAssign):
            annotated = _annotation_name(stmt.annotation)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = annotated
            elif (
                isinstance(stmt.target, ast.Attribute)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "self"
            ):
                info.fields.setdefault(stmt.target.attr, annotated)


# ----------------------------------------------------------------------
# Typed worklist traversal
# ----------------------------------------------------------------------
#: A recorded read: (class name, attribute) -> (file, line) first seen.
ReadSet = Dict[Tuple[str, str], Tuple[str, int]]


class _ReadCollector(ast.NodeVisitor):
    """Collects ``(Class, attr)`` reads in one function body."""

    def __init__(
        self,
        registry: _Registry,
        env: Dict[str, Optional[str]],
        source: SourceFile,
        reads: ReadSet,
        queue: List[Tuple[Optional[str], str]],
    ) -> None:
        self.registry = registry
        self.env = env
        self.source = source
        self.reads = reads
        self.queue = queue

    # -- recording -----------------------------------------------------
    def _record(self, node: ast.Attribute) -> None:
        base = _infer(self.registry, self.env, node.value)
        info = self.registry.classes.get(base) if base else None
        if info is None:
            return
        if node.attr in info.properties:
            self.queue.append((info.name, node.attr))
        elif node.attr in info.fields:
            key = (info.name, node.attr)
            if key not in self.reads:
                self.reads[key] = (self.source.display_path, node.lineno)

    # -- visitors ------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record(node)
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.registry.classes:
                info = self.registry.classes[func.id]
                if "__init__" in info.methods:
                    self.queue.append((func.id, "__init__"))
            elif func.id in self.registry.functions:
                self.queue.append((None, func.id))
        elif isinstance(func, ast.Attribute):
            base = _infer(self.registry, self.env, func.value)
            info = self.registry.classes.get(base) if base else None
            if info and func.attr in info.methods:
                self.queue.append((info.name, func.attr))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        inferred = _infer(self.registry, self.env, node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = inferred
            else:
                self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = _annotation_name(node.annotation)
        else:
            self.visit(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Attribute):
            # Augmented assignment reads the attribute before writing it.
            self._record(node.target)
            self.visit(node.target.value)
        else:
            self.visit(node.target)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # do not descend into nested defs

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


def collect_reads(
    registry: _Registry, seeds: Sequence[Tuple[Optional[str], str]]
) -> ReadSet:
    """Attribute reads reachable from the seed ``(class, function)`` pairs."""
    reads: ReadSet = {}
    queue: List[Tuple[Optional[str], str]] = list(seeds)
    done: Set[Tuple[Optional[str], str]] = set()
    while queue:
        owner, name = queue.pop()
        if (owner, name) in done:
            continue
        done.add((owner, name))
        if owner is None:
            entry = registry.functions.get(name)
            if entry is None:
                continue
            func, source = entry
        else:
            info = registry.classes.get(owner)
            if info is None or name not in info.methods or info.source is None:
                continue
            func, source = info.methods[name], info.source
        env = _param_env(registry, owner, func)
        collector = _ReadCollector(registry, env, source, reads, queue)
        for stmt in func.body:
            collector.visit(stmt)
    return reads


# ----------------------------------------------------------------------
# Construction-site keyword extraction
# ----------------------------------------------------------------------
def _call_keywords(
    func_def: Optional[ast.FunctionDef],
    matches: Callable[[ast.expr], bool],
) -> Tuple[Optional[Set[str]], int]:
    """Keyword names of the first call in ``func_def`` matching ``matches``."""
    if func_def is None:
        return None, 0
    for node in ast.walk(func_def):
        if isinstance(node, ast.Call) and matches(node.func):
            return (
                {kw.arg for kw in node.keywords if kw.arg is not None},
                node.lineno,
            )
    return None, 0


def _numeric_literals(tree: ast.AST) -> Dict[float, int]:
    out: Dict[float, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out.setdefault(value, getattr(node, "lineno", 1))
    return out


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
class KernelDriftRule(Rule):
    """Fails when StepKernel and the reference step diverge statically."""

    rule_id = "kernel-drift"
    description = (
        "StepKernel must read the same substrate/config attributes, build "
        "the same ControlStep/StrategyObservation, and fold no constants "
        "absent from the reference modules"
    )

    def check_project(self, sources: Sequence[SourceFile]) -> List[Finding]:
        controller = _find(sources, CONTROLLER_SUFFIX)
        kernel = _find(sources, KERNEL_SUFFIX)
        if controller is None or kernel is None:
            return []  # not scanning the real tree (e.g. test fixtures)
        registry = build_registry(sources)
        if (
            "SprintingController" not in registry.classes
            or "StepKernel" not in registry.classes
        ):
            return []
        vector = _find(sources, VECTOR_KERNEL_SUFFIX)
        if vector is not None and "VectorStepKernel" not in registry.classes:
            vector = None
        kernel_files = [kernel] if vector is None else [kernel, vector]

        findings: List[Finding] = []
        findings.extend(self._check_read_sets(registry, kernel))
        findings.extend(self._check_constructions(registry, kernel, controller))
        findings.extend(self._check_constants(sources, kernel, kernel_files))
        if vector is not None:
            findings.extend(self._check_vector_read_sets(registry, vector))
            findings.extend(self._check_telemetry_fields(registry, vector))
            findings.extend(
                self._check_constants(sources, vector, kernel_files)
            )
        return findings

    # -- attribute-read comparison -------------------------------------
    def _check_read_sets(
        self, registry: _Registry, kernel: SourceFile
    ) -> List[Finding]:
        ref_reads = _filtered(
            collect_reads(
                registry, [("SprintingController", "_step_reference")]
            )
        )
        kernel_reads = _filtered(
            collect_reads(
                registry,
                [("StepKernel", "__init__"), ("StepKernel", "_run")],
            )
        )
        findings: List[Finding] = []
        for key in sorted(set(ref_reads) - set(kernel_reads)):
            if key in ALLOWED_REFERENCE_ONLY:
                continue
            cls, attr = key
            path, line = ref_reads[key]
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=kernel.display_path,
                    line=1,
                    message=(
                        f"reference step reads {cls}.{attr} "
                        f"(at {path}:{line}) but StepKernel never does — "
                        "hoist or read it in the kernel, or record the "
                        "divergence in ALLOWED_REFERENCE_ONLY with a reason"
                    ),
                )
            )
        for key in sorted(set(kernel_reads) - set(ref_reads)):
            if key in ALLOWED_KERNEL_ONLY:
                continue
            cls, attr = key
            path, line = kernel_reads[key]
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=path,
                    line=line,
                    message=(
                        f"StepKernel reads {cls}.{attr} but the reference "
                        "step never does — remove it or record the "
                        "divergence in ALLOWED_KERNEL_ONLY with a reason"
                    ),
                )
            )
        return findings

    # -- vector-kernel attribute-read comparison ------------------------
    def _check_vector_read_sets(
        self, registry: _Registry, vector: SourceFile
    ) -> List[Finding]:
        scalar_reads = _filtered(
            collect_reads(
                registry,
                [("StepKernel", "__init__"), ("StepKernel", "_run")],
            )
        )
        vector_reads = _filtered_with(
            collect_reads(
                registry,
                [
                    ("VectorStepKernel", "__init__"),
                    ("VectorStepKernel", "step"),
                    ("VectorStepKernel", "_replay_latched"),
                ],
            ),
            VECTOR_OWN_CLASSES,
        )
        findings: List[Finding] = []
        for key in sorted(set(scalar_reads) - set(vector_reads)):
            if key in ALLOWED_SCALAR_KERNEL_ONLY:
                continue
            cls, attr = key
            path, line = scalar_reads[key]
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=vector.display_path,
                    line=1,
                    message=(
                        f"scalar StepKernel reads {cls}.{attr} "
                        f"(at {path}:{line}) but VectorStepKernel never "
                        "does — hoist or read it in the vector kernel, or "
                        "record the divergence in ALLOWED_SCALAR_KERNEL_ONLY "
                        "with a reason"
                    ),
                )
            )
        for key in sorted(set(vector_reads) - set(scalar_reads)):
            if key in ALLOWED_VECTOR_KERNEL_ONLY:
                continue
            cls, attr = key
            path, line = vector_reads[key]
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=path,
                    line=line,
                    message=(
                        f"VectorStepKernel reads {cls}.{attr} but the "
                        "scalar StepKernel never does — remove it or record "
                        "the divergence in ALLOWED_VECTOR_KERNEL_ONLY with "
                        "a reason"
                    ),
                )
            )
        return findings

    # -- telemetry-schema comparison ------------------------------------
    def _check_telemetry_fields(
        self, registry: _Registry, vector: SourceFile
    ) -> List[Finding]:
        step_cls = registry.classes.get("ControlStep")
        if step_cls is None:
            return []
        declared = set(step_cls.fields)
        fields: Optional[Set[str]] = None
        line = 1
        for node in vector.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "TELEMETRY_FIELDS"
                    and isinstance(value, (ast.Tuple, ast.List))
                ):
                    fields = {
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
                    line = node.lineno
        if fields is None:
            return [
                Finding(
                    rule=self.rule_id,
                    path=vector.display_path,
                    line=1,
                    message=(
                        "could not locate the TELEMETRY_FIELDS tuple; the "
                        "drift checker compares it against ControlStep's "
                        "declared fields"
                    ),
                )
            ]
        findings: List[Finding] = []
        for missing in sorted(declared - fields):
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=vector.display_path,
                    line=line,
                    message=(
                        f"ControlStep declares field '{missing}' but "
                        "TELEMETRY_FIELDS omits it — the batch telemetry "
                        "would silently drop a record column"
                    ),
                )
            )
        for extra in sorted(fields - declared):
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=vector.display_path,
                    line=line,
                    message=(
                        f"TELEMETRY_FIELDS names '{extra}' which is not a "
                        "declared ControlStep field"
                    ),
                )
            )
        return findings

    # -- construction-site comparison ----------------------------------
    def _check_constructions(
        self,
        registry: _Registry,
        kernel: SourceFile,
        controller: SourceFile,
    ) -> List[Finding]:
        findings: List[Finding] = []
        ctrl_info = registry.classes["SprintingController"]
        kernel_info = registry.classes["StepKernel"]

        ref_kwargs, ref_line = _call_keywords(
            ctrl_info.methods.get("_commit"),
            lambda f: isinstance(f, ast.Name) and f.id == "ControlStep",
        )
        kern_kwargs, kern_line = _call_keywords(
            kernel_info.methods.get("_run"),
            lambda f: isinstance(f, ast.Attribute) and f.attr == "_ControlStep",
        )
        declared = None
        step_cls = registry.classes.get("ControlStep")
        if step_cls is not None:
            declared = set(step_cls.fields)
        findings.extend(
            self._compare_kwargs(
                "ControlStep",
                declared,
                ref_kwargs,
                kern_kwargs,
                kernel.display_path,
                kern_line or 1,
                controller.display_path,
                ref_line or 1,
            )
        )

        ref_obs, ref_obs_line = _call_keywords(
            ctrl_info.methods.get("_step_reference"),
            lambda f: isinstance(f, ast.Name) and f.id == "StrategyObservation",
        )
        kern_obs, kern_obs_line = _call_keywords(
            kernel_info.methods.get("_run"),
            lambda f: isinstance(f, ast.Name) and f.id == "StrategyObservation",
        )
        obs_cls = registry.classes.get("StrategyObservation")
        findings.extend(
            self._compare_kwargs(
                "StrategyObservation",
                set(obs_cls.fields) if obs_cls is not None else None,
                ref_obs,
                kern_obs,
                kernel.display_path,
                kern_obs_line or 1,
                controller.display_path,
                ref_obs_line or 1,
            )
        )
        return findings

    def _compare_kwargs(
        self,
        record: str,
        declared: Optional[Set[str]],
        ref_kwargs: Optional[Set[str]],
        kern_kwargs: Optional[Set[str]],
        kernel_path: str,
        kernel_line: int,
        controller_path: str,
        controller_line: int,
    ) -> List[Finding]:
        findings: List[Finding] = []
        if ref_kwargs is None or kern_kwargs is None:
            side = "reference" if ref_kwargs is None else "kernel"
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=controller_path if ref_kwargs is None else kernel_path,
                    line=1,
                    message=(
                        f"could not locate the {side} construction of "
                        f"{record}; the drift checker needs both sites"
                    ),
                )
            )
            return findings
        for missing in sorted(ref_kwargs - kern_kwargs):
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=kernel_path,
                    line=kernel_line,
                    message=(
                        f"kernel {record}(...) omits field '{missing}' that "
                        "the reference construction sets"
                    ),
                )
            )
        for extra in sorted(kern_kwargs - ref_kwargs):
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=kernel_path,
                    line=kernel_line,
                    message=(
                        f"kernel {record}(...) sets field '{extra}' that "
                        "the reference construction does not"
                    ),
                )
            )
        if declared is not None:
            for unset in sorted(declared - ref_kwargs):
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=controller_path,
                        line=controller_line,
                        message=(
                            f"declared {record} field '{unset}' is not set "
                            "by the reference construction — defaulted "
                            "telemetry hides drift"
                        ),
                    )
                )
        return findings

    # -- folded-constant audit -----------------------------------------
    def _check_constants(
        self,
        sources: Sequence[SourceFile],
        kernel: SourceFile,
        kernel_files: Sequence[SourceFile],
    ) -> List[Finding]:
        universe: Set[float] = set(TRIVIAL_CONSTANTS)
        universe.update(EQUIVALENT_CONSTANTS)
        for source in sources:
            if any(source is excluded for excluded in kernel_files):
                # Both kernel files are excluded so a constant folded in
                # each (and read in neither) cannot vouch for itself.
                continue
            universe.update(_numeric_literals(source.tree))
        findings: List[Finding] = []
        for value, line in sorted(
            _numeric_literals(kernel.tree).items(), key=lambda kv: kv[1]
        ):
            if any(value == known for known in universe):
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=kernel.display_path,
                    line=line,
                    message=(
                        f"numeric constant {value!r} appears only in the "
                        "kernel — a config value folded instead of read; "
                        "read it from the substrate or document it in "
                        "EQUIVALENT_CONSTANTS"
                    ),
                )
            )
        return findings


def _find(sources: Sequence[SourceFile], suffix: str) -> Optional[SourceFile]:
    for source in sources:
        if source.path.as_posix().endswith(suffix):
            return source
    return None


def _filtered(reads: ReadSet) -> ReadSet:
    return _filtered_with(reads, KERNEL_OWN_CLASSES)


def _filtered_with(reads: ReadSet, own_classes: frozenset) -> ReadSet:
    return {
        key: provenance
        for key, provenance in reads.items()
        if key[0] not in own_classes
        and key[0] not in INTERMEDIATE_RECORD_CLASSES
    }
