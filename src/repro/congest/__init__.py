"""The CONGEST model substrate: networks, node programs, and simulation.

This subpackage implements the standard synchronous CONGEST model of
distributed computing (Peleg 2000), as used by the paper: an undirected
``n``-node network, synchronous rounds, one ``O(log n)``-bit message per
edge direction per round.
"""

from .message import check_payload, default_message_bits, payload_bits
from .network import DirectedEdge, Edge, Network
from .pattern import (
    CommunicationPattern,
    PatternEvent,
    retime_by_delay,
    time_expanded_graph,
    validate_simulation_mapping,
)
from .program import (
    Algorithm,
    HostGroup,
    NodeContext,
    NodeProgram,
    ProgramHost,
    Send,
)
from .simulator import Simulator, SoloRun, solo_run
from .trace import ExecutionTrace, TraceEvent
from . import topology

__all__ = [
    "Algorithm",
    "CommunicationPattern",
    "DirectedEdge",
    "Edge",
    "ExecutionTrace",
    "HostGroup",
    "Network",
    "NodeContext",
    "NodeProgram",
    "PatternEvent",
    "ProgramHost",
    "Send",
    "Simulator",
    "SoloRun",
    "TraceEvent",
    "check_payload",
    "default_message_bits",
    "payload_bits",
    "retime_by_delay",
    "solo_run",
    "time_expanded_graph",
    "topology",
    "validate_simulation_mapping",
]
