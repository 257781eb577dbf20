"""The CONGEST model substrate: networks, node programs, and simulation.

This subpackage implements the standard synchronous CONGEST model of
distributed computing (Peleg 2000), as used by the paper: an undirected
``n``-node network, synchronous rounds, one ``O(log n)``-bit message per
edge direction per round.
"""

from .. import _lazy

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

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "check_payload": "message",
        "default_message_bits": "message",
        "payload_bits": "message",
        "DirectedEdge": "network",
        "Edge": "network",
        "Network": "network",
        "CommunicationPattern": "pattern",
        "PatternEvent": "pattern",
        "retime_by_delay": "pattern",
        "time_expanded_graph": "pattern",
        "validate_simulation_mapping": "pattern",
        "Algorithm": "program",
        "HostGroup": "program",
        "NodeContext": "program",
        "NodeProgram": "program",
        "ProgramHost": "program",
        "Send": "program",
        "Simulator": "simulator",
        "SoloRun": "simulator",
        "solo_run": "simulator",
        "ExecutionTrace": "trace",
        "TraceEvent": "trace",
        "topology": "topology",
    },
)
