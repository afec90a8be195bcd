"""Append-only JSONL run journal for resumable pruning runs.

The journal is the single source of truth about a run's progress.  Each
line is one JSON record; the first line is a ``run_start`` header
(format version, config digest, unit names), followed by one
``layer_complete`` / ``layer_skipped`` record per finished layer (with
its Table-1 :class:`~repro.core.pruner.LayerLog` fields, keep mask and
checkpoint filename), optional ``layer_attempt_failed`` diagnostics, and
a final ``run_complete`` record.

Records are flushed and fsync'd as they are appended, so a crash loses
at most the line being written; :meth:`RunJournal.read` tolerates a
truncated final line (the layer it described simply re-runs on resume).
An append that cannot be made durable — disk full, I/O error, short
write — is rolled back (the file is truncated to its pre-write length)
and raised as a typed
:class:`~repro.runtime.errors.JournalWriteError`, so a failing disk
surfaces as a structured fault instead of a torn tail.

Appends are safe across processes: each append holds an advisory
``fcntl`` lock on the journal for the torn-tail repair *and* the write,
so two processes appending to one run's journal (e.g. two
``repro prune --run-dir ... --resume`` invocations on the same directory)
can never interleave half-written records or race the repair against
another writer's append.  Single-writer behaviour is byte-identical —
the lock adds no bytes and the write path is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback, lock elided
    fcntl = None

from ..obs.sink import jsonable as _jsonable
from ..obs.sink import repair_torn_tail
from .errors import JournalError, JournalWriteError

__all__ = ["FORMAT_VERSION", "RunJournal", "config_digest", "run_overview"]

# Version 2 (engine-generic stepped runs) renamed the per-layer record
# bodies: the journal stores each step's engine payload/log instead of
# the HeadStart-specific mask/LayerLog pair, plus the producing engine
# name.  Version-1 journals cannot be replayed through a stepped engine,
# so resume refuses them.
FORMAT_VERSION = 2


def config_digest(*parts: Any) -> str:
    """Stable hex digest of configuration objects.

    Dataclasses are serialised field-by-field, so two configs hash equal
    iff every hyper-parameter matches; used to refuse resuming a journal
    with different settings.
    """
    payload = json.dumps(_jsonable(list(parts)), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class RunJournal:
    """Append-only JSONL manifest of one pruning run.

    Parameters
    ----------
    path:
        The ``journal.jsonl`` file (created on first append).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists() and self.path.stat().st_size > 0

    # -- writing -----------------------------------------------------------
    def _repair_torn_tail(self) -> None:
        """Drop a torn trailing line (shared with :mod:`repro.obs.sink`)."""
        repair_torn_tail(self.path, fsync=True)

    def append(self, record: dict) -> dict:
        """Durably append one record (adds the ``record`` key's siblings).

        The advisory lock covers both the torn-tail repair and the
        write: without it, writer B could append between writer A's
        repair and A's write, and A's O_APPEND write would then land
        after B's record — fine — but B's *repair* racing A's in-flight
        write could truncate A's half-flushed line.  The handle is
        opened in append mode first (creating the file), locked, and
        only then repaired, so the repair always sees a quiescent file.
        """
        if "record" not in record:
            raise ValueError("journal records need a 'record' type key")
        line = json.dumps(_jsonable(record), sort_keys=True,
                          separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                self._repair_torn_tail()
                offset = os.fstat(handle.fileno()).st_size
                try:
                    written = handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
                except OSError as error:
                    self._rollback(offset)
                    raise JournalWriteError(
                        self.path, f"append failed ({error}); journal "
                        f"truncated back to {offset} bytes") from error
                if written != len(line):
                    self._rollback(offset)
                    raise JournalWriteError(
                        self.path, f"short write ({written} of {len(line)} "
                        f"chars); journal truncated back to {offset} bytes")
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        return record

    def _rollback(self, offset: int) -> None:
        """Truncate a failed append back to its pre-write length.

        A flush that ran out of disk may have landed any prefix of the
        line; cutting back to ``offset`` removes the torn tail while the
        append lock is still held, so later readers and writers never
        see (or have to repair) the partial record.  Rollback itself
        failing is tolerated — the torn-tail repair remains the backstop.
        """
        try:
            os.truncate(self.path, offset)
        except OSError:  # pragma: no cover - double-fault (dying disk)
            pass

    # -- reading -----------------------------------------------------------
    def read(self) -> list[dict]:
        """All intact records; a truncated trailing line is dropped."""
        if not self.path.exists():
            raise JournalError(f"no journal at {self.path}")
        records: list[dict] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if index == len(lines) - 1 or all(
                        not later.strip() for later in lines[index + 1:]):
                    break  # torn final write from a crash — ignore
                raise JournalError(
                    f"corrupt journal line {index + 1} in {self.path}")
        return records

    def header(self) -> dict:
        """The ``run_start`` record, validating version and shape."""
        records = self.read()
        if not records or records[0].get("record") != "run_start":
            raise JournalError(
                f"{self.path} does not start with a run_start record")
        header = records[0]
        if header.get("version") != FORMAT_VERSION:
            raise JournalError(
                f"journal format version {header.get('version')!r} "
                f"unsupported (expected {FORMAT_VERSION})")
        return header

    def completed_layers(self) -> dict[int, dict]:
        """Index -> record for every journaled layer outcome."""
        done: dict[int, dict] = {}
        for record in self.read():
            if record.get("record") in ("layer_complete", "layer_skipped"):
                done[int(record["index"])] = record
        return done

    @staticmethod
    def contiguous_prefix(done: Iterable[int]) -> int:
        """Length of the 0-based contiguous completed prefix."""
        have = set(done)
        count = 0
        while count in have:
            count += 1
        return count


def run_overview(records: Iterable[dict]) -> dict:
    """Join-friendly view of a journal for run reports.

    Groups the raw record stream by concern: the ``run_start`` header,
    per-layer outcomes in index order (each annotated with any
    ``layer_attempt_failed`` records for that index), and the
    ``run_complete`` footer when the run finished.  Records of other
    types, which older versions wrote, are ignored.  Used by
    :mod:`repro.obs.report` to annotate the metrics timeline; tolerant
    of partial journals from crashed runs.
    """
    header: dict | None = None
    final: dict | None = None
    layers: dict[int, dict] = {}
    failures: list[dict] = []
    for record in records:
        kind = record.get("record")
        if kind == "run_start":
            header = record
        elif kind in ("layer_complete", "layer_skipped"):
            index = int(record["index"])
            layers[index] = {
                "index": index,
                "name": record.get("name"),
                "status": "complete" if kind == "layer_complete"
                          else "skipped",
                "engine": record.get("engine"),
                "attempts": record.get("attempts"),
                "log": record.get("log"),
                "failures": [],
            }
        elif kind == "layer_attempt_failed":
            failures.append(record)
        elif kind == "run_complete":
            final = record
    for record in failures:
        layer = layers.get(int(record.get("index", -1)))
        if layer is not None:
            layer["failures"].append(
                {"attempt": record.get("attempt"),
                 "kind": record.get("kind"),
                 "message": record.get("message")})
    return {
        "header": header,
        "layers": [layers[i] for i in sorted(layers)],
        "attempt_failures": failures,
        "final": final,
        "complete": final is not None,
    }
