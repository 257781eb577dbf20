"""The job spool: one append-only, CRC-framed log of submitted jobs.

``python -m repro submit`` appends job specs to ``<dir>/spool.jsonl``,
one line per job, framed the way the write-ahead journal frames its
records (canonical JSON plus the CRC-32 of the record without it)::

    {"algo":"bfs:source=0,hops=4","crc":"47dde79c","id":"s0001","net":"grid:6x6","seed":0}

:func:`append` is the writer. Under an exclusive ``flock`` on the log it
cuts an unterminated tail left by a killed writer back to the last
newline, numbers the new records after the last id in the log, writes
all of them in one ``write`` and fsyncs once. A submit killed mid-write
therefore loses at most its own records, and never hides later ones
behind its torn line. The directory entry is fsynced too, once, when the
log is created.

:class:`SpoolReader` is the reader ``serve`` and ``status`` share. It
keeps a byte offset, so a ``serve --follow`` poll reads only what was
appended since the last one, and it reads complete lines only: an
unterminated tail is a record not yet written. A complete line that
fails to parse, fails its CRC, lacks ``id``/``net``/``algo`` or repeats
an id comes back as a :class:`SpoolLine` with an ``error``, keyed by its
id or, when no usable id can be read, by ``spool@<byte offset>``.

Beyond cutting a torn tail, the log is never rewritten: ``state.json``
records which ids are settled, and the next ``serve`` skips those.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Union,
)

from . import framing

__all__ = ["SPOOL_LOG", "SpoolLine", "SpoolReader", "append", "check_layout"]

#: The spool log's file name inside a service directory.
SPOOL_LOG = "spool.jsonl"

_ID = re.compile(r"s(\d+)")
_BLOCK = 4096


def check_layout(directory: Union[str, Path]) -> None:
    """Raise ``ValueError`` naming any file of the one-file-per-job spool.

    Earlier versions kept ``spool/s*.json`` plus a ``spool.seq``
    counter. Nothing reads them any more, so a directory still holding
    them is refused rather than silently stranding its jobs.
    """
    base = Path(directory)
    found = []
    if (base / "spool.seq").exists():
        found.append(str(base / "spool.seq"))
    if (base / "spool").is_dir() and any((base / "spool").glob("*.json")):
        found.append(str(base / "spool" / "*.json"))
    if found:
        raise ValueError(
            f"{' and '.join(found)} belong to the one-file-per-job spool, "
            f"which this version does not read; serve them with the "
            f"version that wrote them, or remove them"
        )


def _id_number(record: Any) -> Optional[int]:
    """The number in a record's ``s<digits>`` id, ``None`` if it has none."""
    sid = record.get("id") if isinstance(record, dict) else None
    match = _ID.fullmatch(sid) if isinstance(sid, str) else None
    return int(match.group(1)) if match else None


def _line_id(line: bytes) -> Optional[int]:
    try:
        return _id_number(json.loads(line))
    except ValueError:
        return None


def _lines_before(fd: int, end: int) -> Iterator[bytes]:
    """The lines of ``fd`` before byte ``end``, last first.

    The first is what follows the last newline: empty, or a torn tail.
    """
    carry = b""
    while end > 0:
        start = max(0, end - _BLOCK)
        parts = (os.pread(fd, end - start, start) + carry).split(b"\n")
        carry, end = parts[0], start
        yield from reversed(parts[1:])
    yield carry


def append(
    directory: Union[str, Path],
    spec: Dict[str, Any],
    count: int,
    last_id: Callable[[], int],
) -> List[str]:
    """Append ``count`` jobs running ``spec``; return their ids, in order.

    Ids continue after the last id readable in the log. When the log
    has none (it is missing, empty, or holds no id at all), they
    continue after ``last_id()``, the highest id already handed out.
    """
    path = Path(directory) / SPOOL_LOG
    created = False
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        created = True
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        lines = _lines_before(fd, size)
        torn = next(lines)
        if torn:
            os.ftruncate(fd, size - len(torn))  # a killed writer's tail
        last = next((n for n in map(_line_id, lines) if n is not None), None)
        if last is None:
            last = last_id()
        ids = [f"s{last + k:04d}" for k in range(1, count + 1)]
        data = "".join(framing.frame({**spec, "id": sid}) + "\n" for sid in ids)
        view = memoryview(data.encode("utf8"))
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)  # also drops the lock
    if created:
        parent = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(parent)
        finally:
            os.close(parent)
    return ids


@dataclass(frozen=True)
class SpoolLine:
    """One complete line of the spool log.

    ``key`` is the record's id, or ``spool@<offset>`` when the line has
    no usable one. ``record`` is ``{"id", "net", "algo", ...}`` without
    the ``crc`` for a servable line and ``None`` otherwise, when
    ``error`` says why.
    """

    key: str
    record: Optional[Dict[str, Any]]
    error: Optional[str] = None


class SpoolReader:
    """Read a service directory's spool log, each byte once.

    Every :meth:`read_new` returns the complete lines appended since the
    previous call. The ids seen so far are remembered, so a line that
    repeats one is an error, keyed by its offset.
    """

    def __init__(self, directory: Union[str, Path]):
        self.path = Path(directory) / SPOOL_LOG
        self.offset = 0
        self._ids: set = set()

    def read_new(self, settled: AbstractSet[str] = frozenset()) -> List[SpoolLine]:
        """The complete lines past :attr:`offset`; advances it past them.

        Lines whose key is in ``settled`` are consumed without being
        checked or returned.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        end = data.rfind(b"\n") + 1  # an unterminated tail is not written yet
        lines = []
        offset = self.offset
        for raw in data[:end].split(b"\n")[:-1]:
            if raw.strip():
                line = self._parse(raw, offset, settled)
                if line is not None:
                    lines.append(line)
            offset += len(raw) + 1
        self.offset += end
        return lines

    def _parse(
        self, raw: bytes, offset: int, settled: AbstractSet[str]
    ) -> Optional[SpoolLine]:
        key = anonymous = f"spool@{offset}"
        try:
            record = json.loads(raw)
        except ValueError as exc:
            record, error = None, f"unparsable spool line: {exc}"
        else:
            error = None if isinstance(record, dict) else (
                "spool record is not a JSON object"
            )
        sid = record.get("id") if error is None else None
        repeated = isinstance(sid, str) and sid in self._ids
        if _id_number(record) is not None and not repeated:
            key = sid
            self._ids.add(sid)
        if key in settled:
            return None
        if error is not None:
            return SpoolLine(key, None, error)
        crc = record.pop("crc", None)
        missing = [name for name in ("id", "net", "algo") if name not in record]
        if crc is None:
            error = "spool record lacks its crc"
        elif crc != framing.crc(framing.encode(record)):
            error = "CRC mismatch"
        elif missing:
            error = f"spool record lacks {'/'.join(missing)}"
        elif repeated:
            error = f"spool id {sid!r} is already taken"
        elif key == anonymous:
            error = f"spool id {sid!r} is not s<digits>"
        else:
            return SpoolLine(key, record)
        return SpoolLine(key, None, error)
