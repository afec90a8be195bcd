"""Append-only JSONL event sink shared by the observability layer.

One event per line, written with the same torn-line-tolerant discipline
as :mod:`repro.runtime.journal` (which imports these helpers): a crash
mid-write can only tear the final line, appending first truncates any
torn tail back to the last complete record, and reads drop a torn final
line instead of failing.  Unlike the run journal the metrics sink does
*not* fsync per event — metrics are diagnostics, not the source of
truth for resume, so buffered writes keep the overhead negligible.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any

__all__ = ["MetricsError", "MetricsSink", "jsonable", "repair_torn_tail",
           "read_events", "read_events_report", "METRICS_FILENAME"]

#: Name of the event stream inside a metrics directory.
METRICS_FILENAME = "metrics.jsonl"


class MetricsError(RuntimeError):
    """A metrics stream is missing or corrupt."""


def jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/numpy scalars/arrays to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    return value


def repair_torn_tail(path: str | Path, fsync: bool = False) -> None:
    """Truncate a torn trailing line (crash mid-write, no final newline).

    Without this, appending after a crash would concatenate the new
    record onto the partial line, corrupting *both* records.  The torn
    record is already lost (readers ignore it), so truncating back to
    the last complete line is safe and keeps the file one-record-per-line.
    """
    path = Path(path)
    try:
        if path.stat().st_size == 0:
            return
    except FileNotFoundError:
        return
    with open(path, "rb+") as handle:
        data = handle.read()
        if data.endswith(b"\n"):
            return
        handle.truncate(data.rfind(b"\n") + 1)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def read_events(path: str | Path, strict: bool = False) -> list[dict]:
    """All intact records of a JSONL stream; a torn trailing line is dropped.

    Raises :class:`MetricsError` when the file is missing, a record
    *before* the final line fails to parse, or a line parses to anything
    but a JSON object with an ``event`` field.  With ``strict=True`` a
    torn *final* line is also an error instead of being silently dropped
    — integrity checks (``repro metrics --check``) must not bless a
    stream that lost data, even tolerably.
    """
    records, torn = read_events_report(path)
    if torn and strict:
        raise MetricsError(f"torn final line in {path}")
    return records


def read_events_report(path: str | Path) -> tuple[list[dict], bool]:
    """Intact records plus whether a torn final line was dropped.

    The boolean lets tolerant readers still *tell* the user data was
    lost (``repro metrics <dir>`` prints a repaired-tail notice) instead
    of summarising a crashed stream silently.
    """
    path = Path(path)
    if not path.exists():
        raise MetricsError(f"no metrics stream at {path}")
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except OSError as error:
        # e.g. the stream path is a directory, or permissions are wrong:
        # surface a typed one-liner, not an IsADirectoryError traceback.
        raise MetricsError(
            f"unreadable metrics stream at {path}: {error}") from None
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1 or all(
                    not later.strip() for later in lines[index + 1:]):
                return records, True  # torn final write from a crash
            raise MetricsError(
                f"corrupt metrics line {index + 1} in {path}") from None
        # Every event is an object naming its kind, so a torn one never
        # parses: any other JSON value is corruption, not a crash.
        if not isinstance(record, dict):
            raise MetricsError(f"corrupt metrics line {index + 1} in {path}: "
                               "not a JSON object")
        if "event" not in record:
            raise MetricsError(f"corrupt metrics line {index + 1} in {path}: "
                               "no \"event\" field")
        records.append(record)
    return records, False


class MetricsSink:
    """Buffered append-only JSONL writer for metric events.

    The file (and its parent directories) is created lazily on the first
    :meth:`emit`; an existing file is continued after repairing a torn
    tail, so a sink can safely reopen the stream of a crashed process.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        repair_torn_tail(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def emit(self, record: dict) -> None:
        """Append one event record as a JSON line."""
        handle = self._handle or self._open()
        handle.write(json.dumps(jsonable(record), sort_keys=True,
                                separators=(",", ":")) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
