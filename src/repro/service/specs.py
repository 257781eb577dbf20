"""Text specs for jobs: how the CLI and the fuzzer name scenario parts.

``python -m repro submit`` has to describe a job in a shell argument, and
``repro.fuzz`` has to persist whole generated scenarios as JSON, so this
module defines a tiny ``kind:key=value,...`` spec language::

    networks    grid:6x6   path:8   ring:12   complete:5   tree:3
                star:8   hypercube:3   torus:4x4   layered:3x2
                lollipop:5x3   regular:n=8,degree=3,seed=0
                gnp:n=8,p=0.4,seed=0
    algorithms  bfs:source=0,hops=4
                broadcast:source=2,token=77,hops=4
                pathtoken:path=0-1-2-3,token=9
                flooding:source=0,token=7
                gossip:source=0,rounds=4
                leader:deadline=6
                mis:nodes=9,phases=12
                coloring:palette=5,phases=10      (needs the network)
                agg:root=0,height=4,op=min        (needs the network)
                sourcedetect:sources=0-3,hops=3,topk=2
                tokenbroadcast:nodes=0-3,deadline=8
    faults      faults:seed=3,drop=0.05,delay=0.1,maxdelay=2
                faults:seed=1,outages=0-1@2-4,crashes=5@3
    schedulers  sequential  round-robin  random-delay  sparse-phase
                doubling  private

Specs round-trip: a job spec appended to the service's spool log
(or a scenario persisted into a fuzz corpus) is parsed back by ``serve``
or the fuzzer with the ``parse_*`` functions here, building the exact
same objects — the content-addressed fingerprints therefore match across
CLI invocations, which is what lets a resubmitted spec be served from
the registry and a corpus reproducer replay the identical scenario.

Every parser is *strict*: an unknown ``key=`` field is rejected with an
error naming the field (a typo must fail at submission, not silently
build a different job).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..congest import topology

if TYPE_CHECKING:
    from ..congest.network import Network
    from ..congest.program import Algorithm
    from ..faults.plan import FaultPlan

__all__ = [
    "ALGORITHM_KINDS",
    "NETWORK_KINDS",
    "SCHEDULER_KINDS",
    "format_fault_plan",
    "parse_algorithm",
    "parse_fault_plan",
    "parse_network",
    "parse_scheduler",
]

#: Every network kind :func:`parse_network` accepts.
NETWORK_KINDS = (
    "grid",
    "path",
    "ring",
    "complete",
    "tree",
    "star",
    "hypercube",
    "torus",
    "layered",
    "lollipop",
    "regular",
    "gnp",
)

#: Every algorithm :func:`parse_algorithm` builds: ``kind -> (module of
#: repro, class)``, imported when a spec of that kind is parsed, so that
#: naming an algorithm loads only its module.
_ALGORITHMS: Dict[str, Tuple[str, str]] = {
    "bfs": ("algorithms.bfs", "BFS"),
    "broadcast": ("algorithms.broadcast", "HopBroadcast"),
    "pathtoken": ("algorithms.tokens", "PathToken"),
    "flooding": ("algorithms.broadcast", "Flooding"),
    "gossip": ("algorithms.gossip", "PushGossip"),
    "leader": ("algorithms.leader_election", "LeaderElection"),
    "mis": ("algorithms.mis", "LubyMIS"),
    "coloring": ("algorithms.coloring", "RandomColoring"),
    "agg": ("algorithms.aggregation", "Aggregation"),
    "sourcedetect": ("algorithms.source_detection", "SourceDetection"),
    "tokenbroadcast": ("algorithms.token_broadcast", "TokenBroadcast"),
}

#: Every algorithm kind :func:`parse_algorithm` accepts.
ALGORITHM_KINDS = tuple(_ALGORITHMS)

#: Every scheduler :func:`parse_scheduler` builds: ``name -> (module of
#: repro, class)``, imported on first use so that naming a scheduler
#: loads only its engine. The one scheduler table: ``serve --scheduler``,
#: the fuzzer's rotation and the oracle all read it, and every kind in it
#: returns the solo outputs (the eager ablation, which does not, is
#: :class:`repro.core.EagerScheduler` and has no spec name).
_SCHEDULERS: Dict[str, Tuple[str, str]] = {
    "sequential": ("core.sequential", "SequentialScheduler"),
    "round-robin": ("core.round_robin", "RoundRobinScheduler"),
    "random-delay": ("core.random_delay", "RandomDelayScheduler"),
    "sparse-phase": ("core.sparse_phase", "SparsePhaseScheduler"),
    "doubling": ("core.doubling", "DoublingScheduler"),
    "private": ("core.private", "PrivateScheduler"),
}

#: Scheduler names :func:`parse_scheduler` accepts.
SCHEDULER_KINDS = tuple(_SCHEDULERS)


def _load(where: Tuple[str, str]) -> Any:
    """The object ``where = (module of repro, name)`` names, imported.

    Through the builtin ``__import__`` (as :mod:`repro._lazy` does), so
    that ``python -X importtime`` lists the module.
    """
    module = f"repro.{where[0]}"
    __import__(module)
    return getattr(sys.modules[module], where[1])


def _split(spec: str) -> Tuple[str, str]:
    kind, _, rest = spec.strip().partition(":")
    return kind.strip().lower(), rest.strip()


def _fields(
    rest: str,
    spec: str,
    allowed: Tuple[str, ...] = (),
    required: Tuple[str, ...] = (),
) -> Dict[str, str]:
    """Parse ``key=value,...``; strict about unknown and missing keys."""
    fields: Dict[str, str] = {}
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        key = key.strip()
        if allowed and key not in allowed:
            raise ValueError(
                f"spec {spec!r} has unknown field {key!r} "
                f"(expected {'/'.join(allowed)})"
            )
        fields[key] = value.strip()
    missing = [name for name in required if name not in fields]
    if missing:
        raise ValueError(f"spec {spec!r} is missing {missing}")
    return fields


def parse_network(spec: str) -> Network:
    """Build a network from a spec like ``grid:6x6`` or ``path:8``.

    Compact forms: scalar kinds take one integer (``path:8``), planar
    kinds take ``AxB`` (``grid:6x6``, ``torus:4x4``,
    ``layered:<layers>x<width>``, ``lollipop:<clique>x<path>``); random
    kinds take key=value fields (``regular:n=8,degree=3,seed=0``,
    ``gnp:n=8,p=0.4,seed=0``).
    """
    kind, rest = _split(spec)
    try:
        if kind == "grid":
            rows, _, cols = rest.partition("x")
            return topology.grid_graph(int(rows), int(cols))
        if kind == "torus":
            rows, _, cols = rest.partition("x")
            return topology.torus_graph(int(rows), int(cols))
        if kind == "layered":
            layers, _, width = rest.partition("x")
            return topology.layered_graph(int(layers), int(width))
        if kind == "lollipop":
            clique, _, path = rest.partition("x")
            return topology.lollipop_graph(int(clique), int(path))
        if kind == "path":
            return topology.path_graph(int(rest))
        if kind == "ring":
            return topology.cycle_graph(int(rest))
        if kind == "complete":
            return topology.complete_graph(int(rest))
        if kind == "star":
            return topology.star_graph(int(rest))
        if kind == "tree":
            return topology.binary_tree(int(rest))
        if kind == "hypercube":
            return topology.hypercube(int(rest))
        if kind == "regular":
            fields = _fields(
                rest, spec, allowed=("n", "degree", "seed"),
                required=("n", "degree"),
            )
            return topology.random_regular(
                int(fields["n"]),
                int(fields["degree"]),
                seed=int(fields.get("seed", "0")),
            )
        if kind == "gnp":
            fields = _fields(
                rest, spec, allowed=("n", "p", "seed"), required=("n", "p")
            )
            return topology.gnp_connected(
                int(fields["n"]),
                float(fields["p"]),
                seed=int(fields.get("seed", "0")),
            )
    except ValueError as exc:
        raise ValueError(f"bad network spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown network kind {kind!r} (expected {'/'.join(NETWORK_KINDS)})"
    )


def _int_list(text: str, spec: str, what: str) -> List[int]:
    items = [int(node) for node in text.split("-") if node != ""]
    if not items:
        raise ValueError(f"spec {spec!r} has an empty {what}")
    return items


def _require_network(network: Optional[Network], spec: str) -> Network:
    if network is None:
        raise ValueError(
            f"algorithm spec {spec!r} needs the network to build "
            f"(pass network= to parse_algorithm)"
        )
    return network


#: Aggregation ops the ``agg`` spec accepts, by the name of their
#: constant in :mod:`repro.algorithms.aggregation`. ``sum`` requires
#: ``operator.add`` (not a lambda) so the algorithm stays fingerprintable.
_AGG_OPS = {"sum": "SUM", "min": "MIN", "max": "MAX"}


def parse_algorithm(spec: str, network: Optional[Network] = None) -> Algorithm:
    """Build an algorithm from a spec like ``bfs:source=0,hops=4``.

    Kinds whose constructor needs the topology (``coloring``, ``agg``)
    require the optional ``network`` argument; the serve CLI and the
    fuzzer always pass it. ``agg`` uses each node's id as its value —
    deterministic, so the spec alone addresses the job content.
    """
    kind, rest = _split(spec)
    if kind not in _ALGORITHMS:
        raise ValueError(
            f"unknown algorithm kind {kind!r} "
            f"(expected {'/'.join(ALGORITHM_KINDS)})"
        )
    cls = _load(_ALGORITHMS[kind])
    if kind == "bfs":
        fields = _fields(
            rest, spec, allowed=("source", "hops"), required=("source", "hops")
        )
        return cls(int(fields["source"]), hops=int(fields["hops"]))
    if kind == "broadcast":
        fields = _fields(
            rest, spec, allowed=("source", "token", "hops"),
            required=("source", "token", "hops"),
        )
        return cls(
            int(fields["source"]), int(fields["token"]), int(fields["hops"])
        )
    if kind == "pathtoken":
        fields = _fields(
            rest, spec, allowed=("path", "token"), required=("path", "token")
        )
        path = _int_list(fields["path"], spec, "path")
        if len(path) < 2:
            raise ValueError(
                f"algorithm spec {spec!r} needs a path of >= 2 nodes"
            )
        return cls(path, token=int(fields["token"]))
    if kind == "flooding":
        fields = _fields(
            rest, spec, allowed=("source", "token"),
            required=("source", "token"),
        )
        return cls(int(fields["source"]), int(fields["token"]))
    if kind == "gossip":
        fields = _fields(
            rest, spec, allowed=("source", "rounds"),
            required=("source", "rounds"),
        )
        return cls(int(fields["source"]), int(fields["rounds"]))
    if kind == "leader":
        fields = _fields(rest, spec, allowed=("deadline",), required=("deadline",))
        return cls(int(fields["deadline"]))
    if kind == "mis":
        fields = _fields(
            rest, spec, allowed=("nodes", "phases"), required=("nodes",)
        )
        phases = int(fields["phases"]) if "phases" in fields else None
        return cls(int(fields["nodes"]), phase_budget=phases)
    if kind == "coloring":
        fields = _fields(rest, spec, allowed=("palette", "phases"))
        net = _require_network(network, spec)
        palette = int(fields["palette"]) if "palette" in fields else None
        phases = int(fields["phases"]) if "phases" in fields else None
        return cls(net, palette_size=palette, phase_budget=phases)
    if kind == "agg":
        fields = _fields(
            rest, spec, allowed=("root", "height", "op"),
            required=("root", "height"),
        )
        net = _require_network(network, spec)
        op_name = fields.get("op", "sum")
        if op_name not in _AGG_OPS:
            raise ValueError(
                f"spec {spec!r} has unknown op {op_name!r} "
                f"(expected {'/'.join(sorted(_AGG_OPS))})"
            )
        values = {v: v for v in net.nodes}
        return cls(
            int(fields["root"]), values, int(fields["height"]),
            op=_load(("algorithms.aggregation", _AGG_OPS[op_name])),
        )
    if kind == "sourcedetect":
        fields = _fields(
            rest, spec, allowed=("sources", "hops", "topk"),
            required=("sources", "hops", "topk"),
        )
        sources = _int_list(fields["sources"], spec, "source list")
        return cls(
            sources, int(fields["hops"]), int(fields["topk"])
        )
    if kind == "tokenbroadcast":
        fields = _fields(
            rest, spec, allowed=("nodes", "deadline"),
            required=("nodes", "deadline"),
        )
        nodes = _int_list(fields["nodes"], spec, "node list")
        placement = {node: (101 + i,) for i, node in enumerate(nodes)}
        return cls(placement, deadline=int(fields["deadline"]))
    raise AssertionError(f"parse_algorithm does not handle kind {kind!r}")


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

_FAULT_FIELDS = (
    "seed",
    "drop",
    "delay",
    "duplicate",
    "maxdelay",
    "edgedrop",
    "outages",
    "crashes",
)


def _parse_edge(text: str, spec: str) -> Tuple[int, int]:
    parts = text.split("-")
    if len(parts) != 2:
        raise ValueError(f"spec {spec!r} has a malformed edge {text!r}")
    return int(parts[0]), int(parts[1])


def parse_fault_plan(spec: str) -> FaultPlan:
    """Build a :class:`~repro.faults.FaultPlan` from a ``faults:`` spec.

    Probabilities are plain floats; structured faults use ``+``-joined
    items: ``edgedrop=0-1@0.5``, ``outages=0-1@2-4`` (edge, inclusive
    tick window) and ``crashes=5@3`` (node, crash round).
    """
    from ..faults.plan import EdgeOutage, FaultPlan, NodeCrash

    kind, rest = _split(spec)
    if kind != "faults":
        raise ValueError(f"fault spec must start with 'faults:', got {spec!r}")
    fields = _fields(rest, spec, allowed=_FAULT_FIELDS)
    try:
        edge_drop = []
        for item in filter(None, fields.get("edgedrop", "").split("+")):
            edge_text, _, probability = item.partition("@")
            edge_drop.append(
                (_parse_edge(edge_text, spec), float(probability))
            )
        outages = []
        for item in filter(None, fields.get("outages", "").split("+")):
            edge_text, _, window = item.partition("@")
            start, _, end = window.partition("-")
            outages.append(
                EdgeOutage(_parse_edge(edge_text, spec), int(start), int(end))
            )
        crashes = []
        for item in filter(None, fields.get("crashes", "").split("+")):
            node, _, round_ = item.partition("@")
            crashes.append(NodeCrash(int(node), int(round_)))
        return FaultPlan(
            seed=int(fields.get("seed", "0")),
            drop=float(fields.get("drop", "0")),
            duplicate=float(fields.get("duplicate", "0")),
            delay=float(fields.get("delay", "0")),
            max_extra_delay=int(fields.get("maxdelay", "1")),
            edge_drop=tuple(edge_drop),
            outages=tuple(outages),
            crashes=tuple(crashes),
        )
    except ValueError as exc:
        raise ValueError(f"bad fault spec {spec!r}: {exc}") from None


def _format_float(value: float) -> str:
    return repr(float(value))


def format_fault_plan(plan: FaultPlan) -> str:
    """Render a plan as the canonical ``faults:`` spec (round-trips)."""
    parts = [f"seed={plan.seed}"]
    if plan.drop:
        parts.append(f"drop={_format_float(plan.drop)}")
    if plan.delay:
        parts.append(f"delay={_format_float(plan.delay)}")
    if plan.duplicate:
        parts.append(f"duplicate={_format_float(plan.duplicate)}")
    if plan.max_extra_delay != 1:
        parts.append(f"maxdelay={plan.max_extra_delay}")
    if plan.edge_drop:
        parts.append(
            "edgedrop="
            + "+".join(
                f"{u}-{v}@{_format_float(p)}" for (u, v), p in plan.edge_drop
            )
        )
    if plan.outages:
        parts.append(
            "outages="
            + "+".join(
                f"{o.edge[0]}-{o.edge[1]}@{o.start}-{o.end}"
                for o in plan.outages
            )
        )
    if plan.crashes:
        parts.append(
            "crashes=" + "+".join(f"{c.node}@{c.round}" for c in plan.crashes)
        )
    return "faults:" + ",".join(parts)


# ---------------------------------------------------------------------------
# schedulers
# ---------------------------------------------------------------------------


def parse_scheduler(spec: str):
    """Build a fresh :class:`~repro.core.base.Scheduler` from its name."""
    name = spec.strip().lower()
    if name not in _SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {spec!r} "
            f"(expected {'/'.join(SCHEDULER_KINDS)})"
        )
    return _load(_SCHEDULERS[name])()
