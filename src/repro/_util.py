"""Small internal utilities shared across the package."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Union

__all__ = [
    "atomic_write_text",
    "derive_seed",
    "stable_digest",
    "ceil_log2",
]


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The replacement is fully written and fsynced before the rename, so
    a crash at any instruction leaves either the old file or the
    complete new one — never a torn half-write. Used for the service
    CLI's ``state.json``, journal compaction and fuzz corpus entries.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with tmp.open("w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def stable_digest(*parts: Any) -> bytes:
    """Return a stable 32-byte digest of the given parts.

    Parts are rendered with ``repr`` so that ints, strings and tuples of
    them hash identically across processes (unlike built-in ``hash``).
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf8"))
        h.update(b"\x00")
    return h.digest()


def derive_seed(master_seed: int, *parts: Any) -> int:
    """Derive a deterministic child seed from a master seed and a context.

    Used to give every (algorithm, node) pair its own fixed random tape:
    the paper treats each node's randomness as part of its input, sampled
    once before execution (Section 2), which is what makes independent
    copies of the same algorithm behave identically.
    """
    return int.from_bytes(stable_digest(master_seed, *parts)[:8], "big")


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer, and 0 for x <= 1."""
    if x <= 1:
        return 0
    return (x - 1).bit_length()


