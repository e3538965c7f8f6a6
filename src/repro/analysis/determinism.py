"""``determinism`` rule: keep the hot paths bit-for-bit reproducible.

The control loop's fast path (:mod:`repro.core.kernel`) must replay the
reference implementation bit-for-bit, and sweep results are memoised by a
content hash of their inputs — both contracts die the moment a hot path
consults a wall clock, an unseeded RNG, or anything whose iteration order
depends on ``PYTHONHASHSEED``.  ``math`` vs ``numpy`` mixing is the
subtler hazard: ``np.float64`` intermediates can round differently from
the C ``double`` path ``math`` takes, so a hot-path module must not call
both families for the same function.

The rule only applies to the modules where reproducibility is
load-bearing (:data:`HOT_PATH_SUFFIXES`); everything else may profile,
time and randomise freely.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.analysis.framework import Finding, Rule, SourceFile

#: Modules with a bit-for-bit reproducibility contract.
HOT_PATH_SUFFIXES = (
    "repro/core/kernel.py",
    "repro/core/controller.py",
    "repro/simulation/engine.py",
    # The MPC rollout planner forks and restores the live facility
    # mid-run; any nondeterminism here would break the rollout
    # no-perturbation contract and the sweep cache.
    "repro/simulation/rollout.py",
    # The one pruned descent behind the Oracle searches and MPC plans:
    # its visiting order decides which candidates run at all.
    "repro/simulation/descent.py",
    # Scheduling decides where a task runs, never what it computes, and
    # the packed tier must stay bit-identical to the scalar path — so
    # neither may consult a clock or entropy source.
    "repro/simulation/scheduler.py",
    "repro/simulation/packing.py",
)

#: Attribute calls that read wall clocks or entropy sources.
_BANNED_ATTRIBUTES: Dict[str, Tuple[str, ...]] = {
    "time": (
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
    ),
    "datetime": ("now", "utcnow", "today"),
    "os": ("urandom", "getrandom"),
    "uuid": ("uuid1", "uuid4"),
}

#: Module names whose *any* use means unseeded/global RNG state.
_RNG_MODULES = ("random",)


def _is_hot_path(source: SourceFile) -> bool:
    posix = source.path.as_posix()
    return any(posix.endswith(suffix) for suffix in HOT_PATH_SUFFIXES)


class DeterminismRule(Rule):
    """Forbids nondeterminism sources inside the hot-path modules."""

    rule_id = "determinism"
    description = (
        "hot paths (kernel, controller, engine) must not read wall clocks, "
        "global RNG state, iterate sets, or mix math with numpy scalar "
        "functions"
    )

    def check_file(self, source: SourceFile) -> List[Finding]:
        if not _is_hot_path(source):
            return []
        findings: List[Finding] = []
        math_calls: Dict[str, int] = {}
        numpy_calls: Dict[str, List[int]] = {}

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                root, attr = node.value.id, node.attr
                banned = _BANNED_ATTRIBUTES.get(root, ())
                if attr in banned:
                    findings.append(
                        self._finding(
                            source,
                            node,
                            f"'{root}.{attr}' reads a wall clock or "
                            "entropy source inside a hot path; thread "
                            "time/randomness in from the caller instead",
                        )
                    )
                if root in _RNG_MODULES or (
                    root in ("np", "numpy") and attr == "random"
                ):
                    findings.append(
                        self._finding(
                            source,
                            node,
                            f"'{root}.{attr}' uses global RNG state in a "
                            "hot path; accept a seeded Generator from the "
                            "caller instead",
                        )
                    )
                if root == "math":
                    math_calls.setdefault(attr, node.lineno)
                elif root in ("np", "numpy"):
                    numpy_calls.setdefault(attr, []).append(node.lineno)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _RNG_MODULES:
                        findings.append(
                            self._finding(
                                source,
                                node,
                                f"import of '{alias.name}' in a hot path; "
                                "global RNG state breaks reproducibility",
                            )
                        )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if self._is_set_expression(iterable):
                    lineno = (
                        node.lineno
                        if isinstance(node, ast.For)
                        else iterable.lineno
                    )
                    findings.append(
                        Finding(
                            rule=self.rule_id,
                            path=source.display_path,
                            line=lineno,
                            message=(
                                "iteration over a set in a hot path: the "
                                "order depends on PYTHONHASHSEED and "
                                "poisons float accumulation; iterate a "
                                "sorted() or tuple form instead"
                            ),
                        )
                    )

        for name, lines in sorted(numpy_calls.items()):
            if name in math_calls:
                for lineno in lines:
                    findings.append(
                        Finding(
                            rule=self.rule_id,
                            path=source.display_path,
                            line=lineno,
                            message=(
                                f"'{name}' is called through both math "
                                f"(line {math_calls[name]}) and numpy in "
                                "the same hot-path module; numpy scalars "
                                "round differently — pick one family"
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _is_set_expression(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=source.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
