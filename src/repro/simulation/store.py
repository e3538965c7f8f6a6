"""Shared content-addressed artifact store for sweep results.

The :class:`ArtifactStore` is the promotion of :class:`SweepRunner`'s
private on-disk cache into a first-class, shareable component: the same
SHA-256 task keys, the same one-JSON-file-per-entry payload format
(``CACHE_FORMAT_VERSION`` 3 — existing caches stay warm), plus

* a **compact manifest index** (``manifest.jsonl``, one append per store)
  so listing, statistics and garbage collection never need an O(n)
  directory scan;
* **garbage collection** (:meth:`ArtifactStore.gc`) with age and size
  bounds, a dry-run mode and reclaimed-byte reporting (surfaced as
  ``repro cache gc``);
* **corrupt-manifest self-heal**: a torn or tampered manifest logs a
  warning and is rebuilt from a directory scan instead of raising —
  concurrent appenders (several sweep processes sharing one store
  directory) make occasional torn lines a fact of life, not an error.

Entries are written atomically (temp file + ``os.replace``), so readers
on the same filesystem never observe a partial payload; a corrupt,
truncated or key-mismatched entry always reads as a miss, exactly like
the cache it replaces.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

_LOG = logging.getLogger(__name__)

#: Manifest file name inside the store directory.
MANIFEST_NAME = "manifest.jsonl"

#: Manifest line schema version.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ManifestEntry:
    """One indexed artifact: key, payload status and size on disk."""

    key: str
    status: str
    size_bytes: int


@dataclass
class GCReport:
    """What one :meth:`ArtifactStore.gc` pass did (or would do)."""

    examined: int = 0
    removed: int = 0
    reclaimed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    dry_run: bool = False
    #: Keys that would be / were evicted, in eviction order.
    removed_keys: List[str] = field(default_factory=list)


class ArtifactStore:
    """Local-directory artifact store with a manifest index.

    ``version`` is the payload format version every entry must carry
    (callers pass :data:`repro.simulation.batch.CACHE_FORMAT_VERSION`);
    entries with any other version read as misses, so a format bump
    invalidates without deleting.
    """

    def __init__(
        self,
        root: Union[str, "os.PathLike[str]"],
        version: int,
    ) -> None:
        self.root = Path(root)
        self.version = int(version)

    # ------------------------------------------------------------------
    # Keyed entry I/O (the former SweepRunner cache internals)
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Path of ``key``'s entry file (which may not exist yet)."""
        return self.root / f"{key}.json"

    def load_payload(self, key: str) -> Optional[Dict[str, object]]:
        """Load one entry's validated payload, or ``None`` on any defect.

        The payload must parse as JSON, carry this store's format
        ``version`` and echo its own ``key`` — anything else (truncated
        file, tampered fields, foreign format) is a miss, never an error.
        """
        path = self.path_for(key)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload["version"] != self.version:
                return None
            if payload["key"] != key:
                return None
            if not isinstance(payload.get("status"), str):
                return None
            return payload
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store_payload(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically persist one entry and index it in the manifest.

        Storage is an optimisation: any OSError is swallowed (the sweep
        must never fail because a cache write did).
        """
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp_name, path)
            except OSError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                return
            status = payload.get("status")
            self._manifest_append(
                ManifestEntry(
                    key=key,
                    status=status if isinstance(status, str) else "unknown",
                    size_bytes=path.stat().st_size,
                )
            )
        except OSError:
            return

    def has(self, key: str) -> bool:
        """Whether a valid entry for ``key`` exists right now."""
        return self.load_payload(key) is not None

    # ------------------------------------------------------------------
    # Manifest index
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _manifest_append(self, entry: ManifestEntry) -> None:
        """Append one index line (O_APPEND — safe for concurrent writers).

        Each line is small enough for POSIX appends to land intact under
        concurrency in practice; readers self-heal torn lines anyway.
        """
        line = (
            json.dumps(
                {
                    "v": MANIFEST_VERSION,
                    "key": entry.key,
                    "status": entry.status,
                    "bytes": entry.size_bytes,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        try:
            with open(
                self.manifest_path, "a", encoding="utf-8"
            ) as handle:
                handle.write(line)
        except OSError:
            pass

    def manifest_entries(self) -> List[ManifestEntry]:
        """The deduplicated manifest index (latest line per key wins).

        A corrupt manifest — torn line, bad JSON, wrong shape — logs a
        warning and triggers a rebuild from a directory scan; it never
        raises.  A missing manifest (pre-manifest caches) rebuilds the
        same way, silently.
        """
        path = self.manifest_path
        if not path.is_file():
            return self._rebuild_manifest(reason=None)
        latest: Dict[str, ManifestEntry] = {}
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            return self._rebuild_manifest(reason=f"unreadable manifest: {exc}")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                entry = ManifestEntry(
                    key=str(record["key"]),
                    status=str(record["status"]),
                    size_bytes=int(record["bytes"]),
                )
            except (ValueError, KeyError, TypeError):
                return self._rebuild_manifest(
                    reason=f"corrupt manifest line {lineno}"
                )
            latest[entry.key] = entry
        return list(latest.values())

    def _rebuild_manifest(self, reason: Optional[str]) -> List[ManifestEntry]:
        """Rebuild the index from the entry files themselves (self-heal)."""
        if reason is not None:
            _LOG.warning(
                "artifact store %s: %s; rebuilding the index from a "
                "directory scan",
                self.root,
                reason,
            )
        entries: List[ManifestEntry] = []
        if not self.root.is_dir():
            return entries
        for path in sorted(self.root.glob("*.json")):
            key = path.stem
            payload = self.load_payload(key)
            if payload is None:
                continue
            status = payload.get("status")
            entries.append(
                ManifestEntry(
                    key=key,
                    status=status if isinstance(status, str) else "unknown",
                    size_bytes=path.stat().st_size,
                )
            )
        self._rewrite_manifest(entries)
        return entries

    def _rewrite_manifest(self, entries: List[ManifestEntry]) -> None:
        """Atomically replace the manifest with a compact index."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=".tmp-manifest-", suffix=".jsonl"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for entry in entries:
                    handle.write(
                        json.dumps(
                            {
                                "v": MANIFEST_VERSION,
                                "key": entry.key,
                                "status": entry.status,
                                "bytes": entry.size_bytes,
                            },
                            sort_keys=True,
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
            os.replace(tmp_name, self.manifest_path)
        except OSError as exc:
            _LOG.warning(
                "artifact store %s: manifest rewrite failed: %s",
                self.root,
                exc,
            )

    def stats(self) -> Tuple[int, int]:
        """(entry count, total payload bytes) from the manifest index."""
        entries = self.manifest_entries()
        return len(entries), sum(e.size_bytes for e in entries)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(
        self,
        now: float,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> GCReport:
        """Evict entries by age and/or total size; report reclaimed bytes.

        ``now`` is the caller's wall clock (``time.time()``) — threaded in
        rather than read here so the store stays clock-free and tests can
        pin time.  Age eviction removes entries whose file mtime is older
        than ``max_age_s``; size eviction then removes oldest-first until
        the store fits ``max_bytes``.  With ``dry_run`` nothing is
        deleted; the report shows what would go.  Missing files (raced
        with another GC) are skipped silently.
        """
        entries = self.manifest_entries()
        aged: List[Tuple[float, ManifestEntry]] = []
        report = GCReport(dry_run=dry_run)
        for entry in entries:
            path = self.path_for(entry.key)
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # already gone; the manifest rewrite drops it
            report.examined += 1
            aged.append((mtime, entry))
        aged.sort(key=lambda pair: (pair[0], pair[1].key))

        doomed: List[ManifestEntry] = []
        survivors: List[Tuple[float, ManifestEntry]] = []
        for mtime, entry in aged:
            if max_age_s is not None and now - mtime > max_age_s:
                doomed.append(entry)
            else:
                survivors.append((mtime, entry))
        if max_bytes is not None:
            total = sum(e.size_bytes for _, e in survivors)
            index = 0
            while total > max_bytes and index < len(survivors):
                _, entry = survivors[index]
                doomed.append(entry)
                total -= entry.size_bytes
                index += 1
            survivors = survivors[index:]

        for entry in doomed:
            report.removed += 1
            report.reclaimed_bytes += entry.size_bytes
            report.removed_keys.append(entry.key)
            if not dry_run:
                try:
                    os.unlink(self.path_for(entry.key))
                except OSError:
                    pass
        report.kept = len(survivors)
        report.kept_bytes = sum(e.size_bytes for _, e in survivors)
        if not dry_run:
            self._rewrite_manifest([entry for _, entry in survivors])
        return report
