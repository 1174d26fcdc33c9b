"""Append-only, checksummed checkpoint journals for crash-safe sweeps.

A checkpoint is one journal file: a JSON header line, then one framed
record per landed cell::

    {"cells_total": 144, "magic": "pocolo-checkpoint",
     "placement": {...}, "run_key": "<sha256>", "version": 2}\\n
    {"bytes": N, "cell": 17, "sha256": "<sha256 of the next N bytes>"}\\n
    <N bytes: the cell's payload>
    {"bytes": M, "cell": 3, "sha256": "..."}\\n
    <M bytes>
    ...

The header is written once, by the first append, with
:func:`repro.runtime.atomic.atomic_write_bytes`, so it is never torn.
Each record is written to the journal as its cell lands, and a save
flushes and syncs everything written so far to disk
(:class:`repro.runtime.atomic.AppendOnlyFile`), so the bytes written
over a sweep are the cells' bytes plus a line of framing each.

:func:`read_journal` validates the header (magic, version, run key)
and checks every record's length and SHA-256 before handing back a
single byte; it never unpickles.  The record rules:

* a short or bad-hash *last* record is a torn write — a crash or a
  reader racing the writer.  It is left out of the journal, and a
  resumed writer truncates it (:meth:`Checkpoint.reopen`);
* a bad record followed by an intact one is corruption, and raises
  :class:`~repro.errors.CheckpointError` naming the cell.

Version-1 files (one pickled payload, rewritten whole on every save)
are refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.errors import CheckpointError
from repro.runtime.atomic import AppendOnlyFile, PathLike, atomic_write_bytes

#: First token of every checkpoint header; never changes.
CHECKPOINT_MAGIC = "pocolo-checkpoint"

#: Current format version.  Readers refuse every other version: older
#: files have a different layout, and guessing at an unknown one is how
#: resumes corrupt results.
CHECKPOINT_VERSION = 2

#: How every record line starts (``sort_keys`` puts ``bytes`` first);
#: where to look for an intact record after a bad one.
_RECORD_START = b'{"bytes": '


@dataclass(frozen=True)
class Journal:
    """A checkpoint journal as read: its header and every intact record.

    ``cells`` maps each recorded cell position to its payload bytes, in
    record order.  ``intact_bytes`` is the length of the valid prefix
    of the ``file_bytes`` read; anything after it is a torn tail.
    """

    path: Path
    run_key: str
    cells_total: int
    placement: Dict[str, Optional[str]]
    cells: Dict[int, bytes]
    intact_bytes: int
    file_bytes: int

    @property
    def cells_done(self) -> int:
        return len(self.cells)


def _header_line(
    run_key: str, cells_total: int, placement: Mapping[str, Optional[str]]
) -> bytes:
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "run_key": run_key,
        "cells_total": cells_total,
        "placement": dict(placement),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def _record(position: int, data: bytes) -> bytes:
    """One framed record: its JSON line, then the payload bytes."""
    line = {
        "bytes": len(data),
        "cell": position,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    return json.dumps(line, sort_keys=True).encode("utf-8") + b"\n" + data


class Checkpoint:
    """An open checkpoint journal that landed cells are appended to.

    :meth:`create` starts a journal, :meth:`reopen` continues one that
    :func:`read_journal` validated.  :meth:`append` writes a record to
    the journal and :meth:`save` flushes and syncs every record written
    so far to disk.  Nothing touches the file before the first append:
    that append writes a new journal's header atomically (or truncates
    a reopened journal's torn tail) and opens the file, which stays
    open until :meth:`close`.  Use it as a context manager.
    """

    def __init__(
        self,
        path: PathLike,
        header: Optional[bytes] = None,
        keep_bytes: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self._header = header
        self._keep_bytes = keep_bytes
        self._file: Optional[AppendOnlyFile] = None
        self._pending = 0

    @classmethod
    def create(
        cls,
        path: PathLike,
        run_key: str,
        cells_total: int,
        placement: Mapping[str, Optional[str]],
    ) -> "Checkpoint":
        """A new journal at ``path``; its first append replaces any old file."""
        return cls(path, header=_header_line(run_key, cells_total, placement))

    @classmethod
    def reopen(cls, journal: Journal) -> "Checkpoint":
        """Continue ``journal``; its first append truncates a torn tail."""
        torn = journal.intact_bytes < journal.file_bytes
        return cls(journal.path, keep_bytes=journal.intact_bytes if torn else None)

    @property
    def pending(self) -> int:
        """Records written since the last :meth:`save`."""
        return self._pending

    def append(self, position: int, data: bytes) -> None:
        """Write cell ``position``'s record; :meth:`save` makes it durable."""
        if self._file is None:
            if self._header is not None:
                atomic_write_bytes(self.path, self._header)
            self._file = AppendOnlyFile(self.path, keep_bytes=self._keep_bytes)
        self._file.write(_record(position, data))
        self._pending += 1

    def save(self) -> Path:
        """Flush and ``fsync`` every record written so far; returns the path."""
        if self._file is not None:
            self._file.sync()
        self._pending = 0
        return self.path

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()


def _read_header(target: Path, blob: bytes) -> Tuple[Dict[str, Any], int]:
    """The validated header of ``blob`` and the offset of its first record."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"checkpoint {target} has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {target} header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{target} is not a pocolo checkpoint")
    version = header.get("version")
    if version == 1:
        raise CheckpointError(
            f"checkpoint {target} is a version-1 file, written by an older "
            "release; delete it and rerun"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {target} has unsupported version {version!r} "
            f"(this reader supports {CHECKPOINT_VERSION})"
        )
    if not isinstance(header.get("run_key"), str):
        raise CheckpointError(f"checkpoint {target} header lacks a run_key")
    total = header.get("cells_total")
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise CheckpointError(f"checkpoint {target} header lacks a cells_total")
    if not isinstance(header.get("placement"), dict):
        raise CheckpointError(f"checkpoint {target} header lacks a placement")
    return header, newline + 1


def _record_at(blob: bytes, offset: int) -> Tuple[Optional[int], Optional[slice]]:
    """The record at ``offset``: the cell its line names, and its payload.

    The cell is ``None`` when the line is missing, cut short or
    malformed.  The payload slice is ``None`` unless the record is
    intact: all its bytes present and matching its SHA-256.
    """
    newline = blob.find(b"\n", offset)
    if newline < 0:
        return None, None
    try:
        line = json.loads(blob[offset:newline])
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None, None
    if not isinstance(line, dict):
        return None, None
    cell, size, digest = line.get("cell"), line.get("bytes"), line.get("sha256")
    if not isinstance(cell, int) or isinstance(cell, bool):
        return None, None
    if not isinstance(size, int) or size < 0 or not isinstance(digest, str):
        return cell, None
    start = newline + 1
    end = start + size
    if end > len(blob):
        return cell, None
    if hashlib.sha256(memoryview(blob)[start:end]).hexdigest() != digest:
        return cell, None
    return cell, slice(start, end)


def _intact_record_after(blob: bytes, offset: int) -> bool:
    """Whether any intact record starts after ``offset``."""
    at = blob.find(_RECORD_START, offset + 1)
    while at >= 0:
        if _record_at(blob, at)[1] is not None:
            return True
        at = blob.find(_RECORD_START, at + 1)
    return False


def read_journal(path: PathLike, expect_run_key: Optional[str] = None) -> Journal:
    """Read and validate the checkpoint journal at ``path``.

    Never unpickles.  Raises :class:`~repro.errors.CheckpointError` on
    any defect — a missing file, a malformed or alien header, a
    version other than the current one, a run key other than
    ``expect_run_key`` (when given), a record naming a cell outside the
    sweep or naming one twice, or a bad record followed by an intact
    one.  A torn last record is not a defect: it is left out, so a
    reader racing the writer sees the records complete so far.
    """
    target = Path(path)
    try:
        blob = target.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    header, offset = _read_header(target, blob)
    run_key: str = header["run_key"]
    if expect_run_key is not None and run_key != expect_run_key:
        raise CheckpointError(
            f"checkpoint {target} belongs to a different run "
            f"(checkpoint key {run_key[:12]}…, this run "
            f"{expect_run_key[:12]}…); refusing to resume"
        )
    total: int = header["cells_total"]
    cells: Dict[int, bytes] = {}
    while offset < len(blob):
        cell, payload = _record_at(blob, offset)
        if cell is None or payload is None:
            if _intact_record_after(blob, offset):
                named = "a record" if cell is None else f"cell {cell}"
                raise CheckpointError(
                    f"checkpoint {target} is corrupt: {named} at byte "
                    f"{offset} fails its length or SHA-256 check, and an "
                    "intact record follows it; delete the file and rerun"
                )
            break  # a torn tail
        if cell in cells:
            raise CheckpointError(f"checkpoint {target} records cell {cell} twice")
        if not 0 <= cell < total:
            raise CheckpointError(
                f"checkpoint {target} names cell {cell} outside this "
                f"sweep's 0..{total - 1} range"
            )
        cells[cell] = blob[payload]
        offset = payload.stop
    return Journal(
        path=target, run_key=run_key, cells_total=total,
        placement=header["placement"], cells=cells, intact_bytes=offset,
        file_bytes=len(blob),
    )
