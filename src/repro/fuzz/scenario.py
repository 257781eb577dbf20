"""Scenarios and the seeded scenario generator.

A :class:`Scenario` is one complete differential-testing case — network,
algorithm mix, scheduler set, transports, seeds, and an optional fault
plan — expressed entirely in the service spec language
(:mod:`repro.service.specs`), so it serializes to a small JSON dict and
rebuilds into the exact same objects on any machine. The content
fingerprint over those specs names the scenario in corpus files, event
logs, and failure reports.

:class:`ScenarioGenerator` maps ``(seed, index)`` to a scenario
deterministically and *index-independently*: scenario ``i`` is derived
from ``derive_seed(seed, "fuzz", i)`` alone, so any subset of a stream
can be regenerated, sharded across processes, or replayed in isolation
(``python -m repro fuzz --only``). Coverage is structural, not
probabilistic: the topology kind and the first algorithm family each
rotate with the index, so every kind in
:data:`~repro.service.specs.NETWORK_KINDS`, every algorithm family
(including LLL packet-routing batches and the layered lower-bound
graphs), and every scheduler provably appear within a bounded prefix of
the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .._util import derive_seed, stable_digest
from ..algorithms.packet_routing import random_packets
from ..congest.network import Network
from ..congest.program import Algorithm
from ..core.transport import resolve_transport
from ..faults.plan import FaultPlan
from ..service.specs import (
    SCHEDULER_KINDS,
    parse_algorithm,
    parse_fault_plan,
    parse_network,
    parse_scheduler,
)

__all__ = [
    "ALGORITHM_FAMILIES",
    "BuiltScenario",
    "Scenario",
    "ScenarioGenerator",
    "TOPOLOGY_KINDS",
]


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario materialized into runnable objects."""

    network: Network
    algorithms: Tuple[Algorithm, ...]
    faults: Optional[FaultPlan]


@dataclass(frozen=True)
class Scenario:
    """One differential-testing case, fully described by spec strings.

    ``note`` is provenance (where the scenario came from); it is carried
    through serialization but excluded from the fingerprint, so an
    annotated corpus entry stays content-identical to the generated
    scenario it reproduces.
    """

    network: str
    algorithms: Tuple[str, ...]
    schedulers: Tuple[str, ...] = ("sequential",)
    transports: Tuple[str, ...] = ("reference",)
    master_seed: int = 0
    schedule_seed: int = 0
    faults: Optional[str] = None
    note: str = field(default="", compare=False)

    def fingerprint(self) -> str:
        """Stable 12-hex content id over the semantic fields."""
        return stable_digest(
            "scenario",
            self.network,
            tuple(self.algorithms),
            tuple(self.schedulers),
            tuple(self.transports),
            self.master_seed,
            self.schedule_seed,
            self.faults,
        ).hex()[:12]

    def build(self) -> BuiltScenario:
        """Parse every spec into runnable objects (raises on bad specs)."""
        network = parse_network(self.network)
        algorithms = tuple(
            parse_algorithm(spec, network=network) for spec in self.algorithms
        )
        if not algorithms:
            raise ValueError("scenario has no algorithms")
        for name in self.schedulers:
            parse_scheduler(name)
        if not self.schedulers:
            raise ValueError("scenario has no schedulers")
        for name in self.transports:
            resolve_transport(name)
        if not self.transports:
            raise ValueError("scenario has no transports")
        faults = parse_fault_plan(self.faults) if self.faults else None
        return BuiltScenario(
            network=network, algorithms=algorithms, faults=faults
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation (round-trips via :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "network": self.network,
            "algorithms": list(self.algorithms),
            "schedulers": list(self.schedulers),
            "transports": list(self.transports),
            "master_seed": self.master_seed,
            "schedule_seed": self.schedule_seed,
        }
        if self.faults is not None:
            payload["faults"] = self.faults
        if self.note:
            payload["note"] = self.note
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Scenario":
        """Rebuild from :meth:`to_dict` output; unknown keys are rejected."""
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"scenario dict has unknown fields {unknown} "
                f"(expected a subset of {sorted(known)})"
            )
        data = dict(payload)
        for key in ("algorithms", "schedulers", "transports"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)


#: Topology kinds the generator rotates through (matches NETWORK_KINDS).
TOPOLOGY_KINDS = (
    "path",
    "ring",
    "grid",
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

#: Algorithm families the generator rotates through. ``packets`` is the
#: LLL packet-routing flavor: a batch of shortest-path tokens whose
#: (congestion, dilation) profile exercises the paper's core workload.
ALGORITHM_FAMILIES = (
    "bfs",
    "broadcast",
    "pathtoken",
    "packets",
    "flooding",
    "gossip",
    "leader",
    "mis",
    "coloring",
    "agg",
    "sourcedetect",
    "tokenbroadcast",
)


class ScenarioGenerator:
    """Deterministic ``(seed, index) -> Scenario`` sampler.

    Same seed, same index, same scenario — on every machine, in every
    process, regardless of which other indices were generated. Faults
    appear on every third scenario (the oracle checks faulted runs for
    determinism rather than solo equivalence, so both populations need
    steady coverage).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    # -- topology -----------------------------------------------------

    def _network_spec(self, kind: str, rng: random.Random) -> str:
        if kind == "path":
            return f"path:{rng.randint(4, 9)}"
        if kind == "ring":
            return f"ring:{rng.randint(4, 9)}"
        if kind == "grid":
            return f"grid:{rng.randint(2, 3)}x{rng.randint(2, 4)}"
        if kind == "complete":
            return f"complete:{rng.randint(3, 5)}"
        if kind == "tree":
            return f"tree:{rng.randint(1, 2)}"
        if kind == "star":
            return f"star:{rng.randint(3, 7)}"
        if kind == "hypercube":
            return f"hypercube:{rng.randint(2, 3)}"
        if kind == "torus":
            return f"torus:3x{rng.randint(3, 4)}"
        if kind == "layered":
            return f"layered:{rng.randint(2, 3)}x{rng.randint(1, 2)}"
        if kind == "lollipop":
            return f"lollipop:{rng.randint(3, 4)}x{rng.randint(1, 3)}"
        if kind == "regular":
            return f"regular:n={rng.choice((6, 8))},degree=3,seed={rng.randint(0, 7)}"
        if kind == "gnp":
            return (
                f"gnp:n={rng.randint(5, 8)},p={rng.choice(('0.5', '0.7', '0.9'))},"
                f"seed={rng.randint(0, 7)}"
            )
        raise AssertionError(f"unhandled topology kind {kind!r}")

    # -- algorithms ---------------------------------------------------

    def _algorithm_specs(
        self, family: str, network: Network, rng: random.Random
    ) -> List[str]:
        nodes = list(network.nodes)
        node = rng.choice(nodes)
        if family == "bfs":
            return [f"bfs:source={node},hops={rng.randint(1, 4)}"]
        if family == "broadcast":
            return [
                f"broadcast:source={node},token={rng.randint(0, 999)},"
                f"hops={rng.randint(1, 4)}"
            ]
        if family == "pathtoken":
            packet = random_packets(network, 1, seed=rng.randint(0, 999))[0]
            path = "-".join(str(v) for v in packet.path)
            return [f"pathtoken:path={path},token={packet.token}"]
        if family == "packets":
            packets = random_packets(
                network, rng.randint(2, 3), seed=rng.randint(0, 999)
            )
            return [
                f"pathtoken:path={'-'.join(str(v) for v in p.path)},"
                f"token={p.token}"
                for p in packets
            ]
        if family == "flooding":
            return [f"flooding:source={node},token={rng.randint(0, 999)}"]
        if family == "gossip":
            return [f"gossip:source={node},rounds={rng.randint(1, 4)}"]
        if family == "leader":
            return [f"leader:deadline={network.diameter() + rng.randint(1, 3)}"]
        if family == "mis":
            spec = f"mis:nodes={network.num_nodes}"
            if rng.random() < 0.5:
                spec += f",phases={rng.randint(4, 8)}"
            return [spec]
        if family == "coloring":
            palette = network.max_degree() + 1 + rng.randint(0, 2)
            spec = f"coloring:palette={palette}"
            if rng.random() < 0.5:
                spec += f",phases={rng.randint(4, 8)}"
            return [spec]
        if family == "agg":
            op = rng.choice(("sum", "min", "max"))
            return [
                f"agg:root={node},height={network.diameter() + rng.randint(0, 1)},"
                f"op={op}"
            ]
        if family == "sourcedetect":
            count = min(len(nodes), rng.randint(1, 3))
            sources = sorted(rng.sample(nodes, count))
            return [
                f"sourcedetect:sources={'-'.join(map(str, sources))},"
                f"hops={rng.randint(1, 3)},topk={rng.randint(1, count)}"
            ]
        if family == "tokenbroadcast":
            count = min(len(nodes), rng.randint(1, 3))
            chosen = sorted(rng.sample(nodes, count))
            deadline = count + network.diameter() + rng.randint(0, 2)
            return [
                f"tokenbroadcast:nodes={'-'.join(map(str, chosen))},"
                f"deadline={deadline}"
            ]
        raise AssertionError(f"unhandled algorithm family {family!r}")

    # -- faults -------------------------------------------------------

    def _fault_spec(self, network: Network, rng: random.Random) -> str:
        parts = [f"seed={rng.randint(0, 999)}"]
        flavor = rng.choice(("drop", "delay", "duplicate", "outage", "crash"))
        if flavor == "drop":
            parts.append(f"drop={round(rng.uniform(0.05, 0.2), 3)}")
        elif flavor == "delay":
            parts.append(f"delay={round(rng.uniform(0.05, 0.2), 3)}")
            parts.append(f"maxdelay={rng.randint(1, 2)}")
        elif flavor == "duplicate":
            parts.append(f"duplicate={round(rng.uniform(0.05, 0.15), 3)}")
        elif flavor == "outage":
            u, v = rng.choice(network.edges)
            start = rng.randint(1, 3)
            parts.append(f"outages={u}-{v}@{start}-{start + rng.randint(0, 2)}")
        else:
            node = rng.choice(list(network.nodes))
            parts.append(f"crashes={node}@{rng.randint(1, 3)}")
        return "faults:" + ",".join(parts)

    # -- scenarios ----------------------------------------------------

    def generate(self, index: int) -> Scenario:
        """The scenario at ``index`` of this generator's stream."""
        rng = random.Random(derive_seed(self.seed, "fuzz", index))
        kind = TOPOLOGY_KINDS[index % len(TOPOLOGY_KINDS)]
        # index // len(KINDS) decouples the family cycle from the
        # topology cycle, so over 144 indices every (kind, family) pair
        # occurs; over the first 12, every kind AND every family does.
        family = ALGORITHM_FAMILIES[
            (index + index // len(TOPOLOGY_KINDS)) % len(ALGORITHM_FAMILIES)
        ]
        network_spec = self._network_spec(kind, rng)
        network = parse_network(network_spec)
        specs = self._algorithm_specs(family, network, rng)
        for _ in range(rng.randint(0, 2)):
            if len(specs) >= 4:
                break
            extra = rng.choice(
                [f for f in ALGORITHM_FAMILIES if f != "packets"]
            )
            specs.extend(self._algorithm_specs(extra, network, rng))
        # Duplicate jobs would share a content fingerprint (and a tape
        # id) in the service, which is its own test surface — not this
        # one. Keep each scenario's mix duplicate-free.
        specs = list(dict.fromkeys(specs))
        schedulers: Tuple[str, ...] = tuple(
            dict.fromkeys(
                ("sequential", SCHEDULER_KINDS[index % len(SCHEDULER_KINDS)])
            )
        )
        faults = (
            self._fault_spec(network, rng) if index % 3 == 2 else None
        )
        return Scenario(
            network=network_spec,
            algorithms=tuple(specs[:4]),
            schedulers=schedulers,
            transports=("reference", "numpy"),
            master_seed=rng.randrange(1 << 16),
            schedule_seed=rng.randrange(1 << 16),
            faults=faults,
            note=f"generated seed={self.seed} index={index}",
        )

    def stream(self, budget: int, start: int = 0) -> Iterator[Scenario]:
        """Yield ``budget`` consecutive scenarios starting at ``start``."""
        for index in range(start, start + budget):
            yield self.generate(index)
