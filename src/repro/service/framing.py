"""CRC-framed JSON lines: the one record format of the journal and spool.

A framed line is a record's canonical JSON (sorted keys, no spaces) with
one field added, ``crc``: the CRC-32 of the record encoded without it.
:mod:`repro.service.journal` and :mod:`repro.service.spool` both write
and check lines this way. This module imports nothing from the package,
so ``python -m repro submit`` frames its spool lines without loading the
journal and the job model behind it.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict

__all__ = ["crc", "encode", "frame"]


def encode(record: Dict[str, Any]) -> str:
    """Serialize a record (sans CRC) deterministically for hashing."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def crc(payload: str) -> str:
    """The CRC-32 of ``payload``'s UTF-8 bytes, as 8 hex digits."""
    return format(zlib.crc32(payload.encode("utf8")) & 0xFFFFFFFF, "08x")


def frame(record: Dict[str, Any]) -> str:
    """One framed line: the record plus the CRC of its encoding."""
    return encode({**record, "crc": crc(encode(record))})
