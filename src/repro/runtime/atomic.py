"""Durable artifact writes: write-temp → fsync → rename, and fsynced appends.

Every durable artifact this repo emits — benchmark JSON, report
tables, telemetry CSVs, the lint baseline, checkpoint headers — goes
through these helpers so that a reader (or a crash) can never observe a
half-written file: either the old content is still there, or the new
content is complete.  The recipe is the classic POSIX one:

1. write the full payload to a temporary file *in the target directory*
   (same filesystem, so the final rename cannot degrade to a copy);
2. flush and ``fsync`` the temporary file so the bytes are on disk
   before the name changes;
3. ``os.replace`` the temporary file over the target — an atomic
   operation on POSIX and on modern Windows;
4. best-effort ``fsync`` of the containing directory so the rename
   itself survives a power cut.

Checkpoint journals are the one file that grows in place.
:class:`AppendOnlyFile` appends a batch, then flushes it and calls
``fsync``; there is no temp file, rename or directory ``fsync`` per
batch.  Their crash safety comes from the journal format instead: the
header is written once with :func:`atomic_write_bytes`, and every
record carries its own length and SHA-256, so a crash mid-append
leaves a torn *tail* that the reader detects and drops, never a changed
earlier byte (:mod:`repro.runtime.checkpoint`).

pocolint's POCO501 ``atomic-artifacts`` rule flags direct writes of
``.json``/``.md`` artifacts elsewhere in ``src/repro`` and points here.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

PathLike = Union[str, "os.PathLike[str]"]


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table; best-effort on exotic filesystems."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. Windows, or a filesystem that refuses O_RDONLY dirs
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``; returns the target path.

    The temporary file lives next to the target (never ``/tmp``) and is
    removed on any failure, so an interrupted write leaves the previous
    artifact byte-for-byte intact and no debris behind.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(target.parent)
    return target


def atomic_write_text(
    path: PathLike, text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text`` (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: PathLike, obj: Any, indent: int = 2, sort_keys: bool = False
) -> Path:
    """Atomically serialize ``obj`` as JSON (trailing newline included)."""
    text = json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)


class AppendOnlyFile:
    """A file that only grows, one flushed and fsynced batch at a time.

    ``keep_bytes`` first truncates the file to that length (fsynced),
    which is how a journal drops a torn tail before appending again.
    Appends never touch an earlier byte, so a crash can tear only the
    batch being written.
    """

    def __init__(self, path: PathLike, keep_bytes: Optional[int] = None) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "ab")
        if keep_bytes is not None:
            try:
                self._handle.truncate(keep_bytes)
                os.fsync(self._handle.fileno())
            except BaseException:
                self._handle.close()
                raise

    def append(self, data: bytes) -> None:
        """Write ``data`` at the end of the file and make it durable."""
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()
