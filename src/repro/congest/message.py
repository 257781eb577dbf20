"""Message size accounting for the CONGEST model.

The CONGEST model allows one ``O(log n)``-bit message per edge direction per
round. We do not serialize payloads to real wire formats; instead
:func:`payload_bits` conservatively estimates the information content of a
payload so the simulator can enforce (or at least report) the bit budget.

Payloads are ordinary Python values. Supported: ``None``, ``bool``, ``int``,
``float``, ``str``, ``bytes`` and (nested) tuples/lists of those. Sets and
dicts are rejected: CONGEST algorithms should send flat, explicitly encoded
records, not containers of unbounded size.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import BandwidthViolation
from .._util import ceil_log2

__all__ = ["payload_bits", "default_message_bits", "check_payload"]


def _int_bits(payload: int) -> int:
    return (payload.bit_length() or 1) + 1  # + sign bit


def _str_bits(payload: Any) -> int:
    return 8 * len(payload)


def _seq_bits(payload: Any) -> int:
    # 2 framing bits per element so () and ((),) differ.
    total = 2 * len(payload)
    for item in payload:
        if type(item) is int:  # the common record field, sized in place
            total += (item.bit_length() or 1) + 1
        else:
            total += payload_bits(item)
    return total


#: Exact-type dispatch for the hot path: payload sizing runs once per
#: ``ctx.send`` / ``ctx.send_all`` (no transport sizes it again), and the
#: isinstance chain it replaces showed up in engine profiles.
_SIZERS = {
    type(None): lambda payload: 1,
    bool: lambda payload: 1,
    int: _int_bits,
    float: lambda payload: 64,
    str: _str_bits,
    bytes: _str_bits,
    tuple: _seq_bits,
    list: _seq_bits,
}


def payload_bits(payload: Any) -> int:
    """Conservative bit-size estimate of a message payload."""
    sizer = _SIZERS.get(type(payload))
    if sizer is not None:
        return sizer(payload)
    # Subclasses of the supported types land here (exact-type dispatch
    # missed); size them by their nearest supported base.
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return _int_bits(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, (str, bytes)):
        return _str_bits(payload)
    if isinstance(payload, (tuple, list)):
        return _seq_bits(payload)
    raise BandwidthViolation(
        f"unsupported payload type {type(payload).__name__}; "
        "send flat tuples of ints/floats/strings"
    )


def default_message_bits(num_nodes: int) -> int:
    """Default per-message bit budget ``Θ(log n)`` for an ``n``-node network.

    The constant is generous (``32·⌈log2 n⌉ + 128``) so that legitimate
    ``O(log n)``-bit protocol messages — a few node ids, a hop count, a
    weight, a seed chunk — always fit, while shipping whole neighbour lists
    or vertex sets trips the check.
    """
    return 32 * max(1, ceil_log2(num_nodes + 1)) + 128


def check_payload(payload: Any, budget: Optional[int] = None) -> int:
    """Validate a payload against a bit budget; return its size.

    Raises :class:`~repro.errors.BandwidthViolation` when the payload is
    oversized or of an unsupported type (the latter under ``budget=None``
    too, which otherwise only sizes).
    """
    size = payload_bits(payload)
    if budget is not None and size > budget:
        raise BandwidthViolation(
            f"payload of {size} bits exceeds per-message budget of {budget} bits"
        )
    return size
