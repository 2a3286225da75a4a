"""Crash-safe JSON-lines files: one reader, one appender, one atomic replace.

The result store, the run ledger, the convergence trace and the
exploration checkpoint all go through this module (contract in
``docs/file-formats.md``):

* :func:`read` skips and counts lines that do not parse or are not
  objects, and logs one warning through the ``repro.jsonl`` logger.
* :func:`append` writes whole lines with one ``O_APPEND`` write loop under
  an exclusive :func:`fcntl.flock`, then fsyncs once.  If the file ends
  mid-line (an append torn by a crash) the new lines start on a fresh one;
  the last byte is read under the lock, so this holds across processes.
* :func:`replace` writes a temp file, fsyncs it, renames it over the
  target and fsyncs the directory, so the rename survives a power cut.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["append", "read", "replace"]

_LOG = logging.getLogger("repro.jsonl")


def read(
    path: Path, what: str, valid: Optional[Callable[[Dict[str, Any]], bool]] = None
) -> Tuple[List[Dict[str, Any]], int]:
    """``(records, skipped)``: every JSON-object line of ``path``, in order.

    A missing file reads as empty.  Blank lines are ignored; lines that do
    not parse, are not objects, or fail ``valid`` are skipped and counted,
    and a non-zero count is logged once, naming ``what`` the file is.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    try:
        handle = path.open("r", encoding="utf-8")
    except FileNotFoundError:
        return records, skipped
    with handle:
        for line in handle:
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict) and (valid is None or valid(record)):
                records.append(record)
            else:
                skipped += 1
    if skipped:
        _LOG.warning(
            "%s %s: skipped %d corrupt JSONL line(s) (a write torn by a crash, "
            "or not a record); the remaining records were loaded normally",
            what,
            path,
            skipped,
        )
    return records, skipped


def append(path: Path, lines: Iterable[str]) -> None:
    """Append ``lines`` (JSON texts without newlines): one write loop, one fsync.

    Nothing is touched when ``lines`` is empty.  Raises :class:`OSError`
    when the file cannot be written; the lines are then not durable.
    """
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if not data:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released when the descriptor closes
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        view = memoryview(data)
        while view:
            written = os.write(fd, view)
            view = view[written:]
        os.fsync(fd)
    finally:
        os.close(fd)


def replace(path: Path, lines: Iterable[str]) -> None:
    """Atomically make ``path`` hold exactly ``lines`` (temp, fsync, rename, dir fsync)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write("".join(line + "\n" for line in lines).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
