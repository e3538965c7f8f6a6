"""``fs-atomicity`` rule: the artifact store's I/O must stay crash-safe.

The artifact store (:mod:`repro.simulation.store`) is shared by every
sweep process pointed at the same cache directory, with nothing but the
filesystem between them.  A crash mid-write or a concurrent writer must
never leave a torn entry or manifest line, which holds only because
every write obeys two disciplines:

* **atomic publication** — a file another process may read is written to
  a ``tempfile.mkstemp`` sibling and ``os.replace``d into place; readers
  then never observe a torn payload.  A bare ``open(path, "w")`` (or
  ``Path.write_text``/``write_bytes``) publishes every intermediate
  state of the write.
* **single-write appends** — the manifest is append-only (``open(path,
  "a")``, which the OS maps to ``O_APPEND``); one ``write()`` call per
  open keeps concurrent appenders' lines intact, while several writes
  (or a write in a loop) can interleave mid-record.

The rule applies only to the store module
(:data:`SHARED_DIR_MODULE_SUFFIXES`); everything else may use plain
file I/O freely.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Union

from repro.analysis.framework import Finding, Rule, SourceFile

#: Modules whose on-disk state is shared between processes.
SHARED_DIR_MODULE_SUFFIXES = ("repro/simulation/store.py",)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_shared_dir_module(source: SourceFile) -> bool:
    posix = source.path.as_posix()
    return any(posix.endswith(s) for s in SHARED_DIR_MODULE_SUFFIXES)


def _call_name(node: ast.Call) -> Optional[str]:
    """``open`` / ``os.replace`` / ``tempfile.mkstemp`` -> dotted name."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode of an ``open``-style call (default ``"r"``)."""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: cannot classify


def _is_write_mode(mode: Optional[str]) -> bool:
    return mode is not None and any(c in mode for c in "wx+")


def _is_append_mode(mode: Optional[str]) -> bool:
    return mode is not None and "a" in mode and "+" not in mode


class FsAtomicityRule(Rule):
    """Non-atomic shared-directory I/O in the artifact store."""

    rule_id = "fs-atomicity"
    description = (
        "the artifact store must publish files via mkstemp + "
        "os.replace and keep manifest appends to a single write"
    )

    def check_file(self, source: SourceFile) -> List[Finding]:
        if not _is_shared_dir_module(source):
            return []
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(source, node))
        return findings

    def _check_function(
        self, source: SourceFile, function: _FunctionNode
    ) -> List[Finding]:
        findings: List[Finding] = []
        has_mkstemp = False
        has_replace = False
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in (
                "tempfile.mkstemp",
                "mkstemp",
                "tempfile.NamedTemporaryFile",
                "NamedTemporaryFile",
            ):
                has_mkstemp = True
            if name in ("os.replace", "os.rename", "replace", "rename"):
                has_replace = True
        atomic_pattern = has_mkstemp and has_replace

        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "open" and _is_write_mode(_open_mode(node)):
                findings.append(
                    self._finding(
                        source,
                        node,
                        "bare open() for writing in a shared-directory "
                        "module: a concurrent reader can observe the "
                        "torn file — write to a tempfile.mkstemp "
                        "sibling and os.replace it into place",
                    )
                )
            elif name == "os.fdopen" and _is_write_mode(_open_mode(node)):
                if not atomic_pattern:
                    findings.append(
                        self._finding(
                            source,
                            node,
                            "os.fdopen for writing outside the "
                            "mkstemp + os.replace pattern: the write "
                            "is not published atomically",
                        )
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text",
                "write_bytes",
            ):
                findings.append(
                    self._finding(
                        source,
                        node,
                        f"Path.{node.func.attr} in a shared-directory "
                        "module truncates in place — a concurrent "
                        "reader can observe the torn file; write to a "
                        "tempfile.mkstemp sibling and os.replace it "
                        "into place",
                    )
                )

        findings.extend(self._check_appends(source, function))
        return findings

    def _check_appends(
        self, source: SourceFile, function: _FunctionNode
    ) -> List[Finding]:
        """Append-mode opens: exactly one write, outside any loop."""
        findings: List[Finding] = []
        for node in ast.walk(function):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                if _call_name(call) != "open":
                    continue
                if not _is_append_mode(_open_mode(call)):
                    continue
                handle = (
                    item.optional_vars.id
                    if isinstance(item.optional_vars, ast.Name)
                    else None
                )
                writes = 0
                looped = False
                for body_stmt in node.body:
                    for sub in ast.walk(body_stmt):
                        if not isinstance(sub, ast.Call):
                            continue
                        func = sub.func
                        if not (
                            isinstance(func, ast.Attribute)
                            and func.attr in ("write", "writelines")
                            and isinstance(func.value, ast.Name)
                            and (handle is None or func.value.id == handle)
                        ):
                            continue
                        writes += 1
                        if func.attr == "writelines":
                            looped = True
                    if isinstance(body_stmt, (ast.For, ast.While)) and any(
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("write", "writelines")
                        for sub in ast.walk(body_stmt)
                    ):
                        looped = True
                if writes > 1 or looped:
                    findings.append(
                        self._finding(
                            source,
                            call,
                            "append-mode open with multiple writes: "
                            "concurrent appenders can interleave "
                            "between the write() calls and tear the "
                            "record — build the full line first and "
                            "append it with a single write()",
                        )
                    )
        return findings

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
