"""The fs-atomicity checker: clean on the real tree, tamper-sensitive.

The first test doubles as the tier-1 guard of the artifact store's I/O
discipline: a bare ``open(path, "w")`` or ``Path.write_text`` in the
store, or a torn multi-write manifest append, fails the local test run,
not just CI.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.framework import SourceFile, collect_files, load_source
from repro.analysis.fs_atomicity import FsAtomicityRule

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def real_sources():
    return [load_source(p, root=SRC) for p in collect_files([SRC])]


def run_rule(sources):
    rule = FsAtomicityRule()
    findings = []
    for source in sources:
        findings.extend(rule.check_file(source))
    return findings


def tampered(sources, filename, old, new):
    """The real source list with one substitution applied to ``filename``."""
    out = []
    hit = False
    for source in sources:
        if source.path.name == filename and "simulation" in source.path.parts:
            assert old in source.text, f"fixture drifted: {old!r} not found"
            hit = True
            text = source.text.replace(old, new)
            out.append(
                SourceFile(
                    path=source.path,
                    display_path=source.display_path,
                    text=text,
                    tree=ast.parse(text),
                    suppressions=source.suppressions,
                )
            )
        else:
            out.append(source)
    assert hit, f"fixture drifted: no simulation/{filename} in the tree"
    return out


class TestRealTree:
    def test_store_is_clean(self, real_sources):
        findings = run_rule(real_sources)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_rule_ignores_other_modules(self, tmp_path):
        # Plain file I/O outside the store module is fine.
        target = tmp_path / "mod.py"
        target.write_text(
            "def save(path, data):\n"
            '    with open(path, "w") as handle:\n'
            "        handle.write(data)\n"
        )
        source = load_source(target, root=tmp_path)
        assert FsAtomicityRule().check_file(source) == []


class TestTamperSensitivity:
    def test_bare_write_in_the_store_is_detected(self, real_sources):
        # Replace the atomic publication with an in-place truncate.
        sources = tampered(
            real_sources,
            "store.py",
            "with os.fdopen(fd, \"w\", encoding=\"utf-8\") as handle:\n"
            "                    json.dump(payload, handle, sort_keys=True)\n"
            "                os.replace(tmp_name, path)",
            "with open(path, \"w\", encoding=\"utf-8\") as handle:\n"
            "                    json.dump(payload, handle, sort_keys=True)",
        )
        findings = run_rule(sources)
        assert any(
            "bare open() for writing" in f.message for f in findings
        )

    def test_write_text_in_the_store_is_detected(self, real_sources):
        sources = tampered(
            real_sources,
            "store.py",
            "os.replace(tmp_name, path)",
            "path.write_text(json.dumps(payload))",
        )
        findings = run_rule(sources)
        assert any("write_text" in f.message for f in findings)

    def test_multi_write_append_is_detected(self, real_sources):
        # A second write() in the manifest append can interleave with a
        # concurrent appender's line.
        sources = tampered(
            real_sources,
            "store.py",
            "handle.write(line)",
            'handle.write(line)\n                handle.write("\\n")',
        )
        findings = run_rule(sources)
        assert any(
            "append-mode open with multiple writes" in f.message
            for f in findings
        )
