"""Distributed ball carving in CONGEST (Lemmas 4.2 and 4.3).

One :class:`CarvingProtocol` instance runs one clustering layer as an
actual CONGEST node program on the simulator, in three sequential
sub-phases:

1. **Carving** (rounds ``1..H``, ``H = Θ(R·log n)``): every node ``u``
   draws a radius ``r(u)`` and label ``ℓ(u)`` from its *private*
   randomness and injects a message with the paper's *fake initial
   hop-count* ``H - r(u)`` — pretending the message has already travelled
   that far, so it can only go ``r(u)`` more hops. Each round, each node
   forwards (to all neighbours) the smallest-label message it holds whose
   hop-count is at most the round number and that it has not forwarded
   yet. The paper's blocking argument shows the smallest-label ball
   containing ``v`` always gets through, so ``v`` joins exactly the
   cluster the centralized rule assigns.

2. **Boundary detection** (rounds ``H+1 .. 2H+1``): neighbours exchange
   cluster labels; nodes seeing a different label mark themselves
   boundary and flood a hop-limited "boundary" beacon. A node first
   hearing the beacon after ``d`` flood rounds learns its contained
   radius ``h' = d`` (property (4) of Lemma 4.2).

3. **Randomness sharing** (rounds ``2H+2 .. 4H+2K+1``): every node cuts
   ``Θ(log² n)`` private random bits into ``K = Θ(log n)`` chunks of
   ``Θ(log n)`` bits, labelled ``(ℓ(u), j)``. Each round each node
   forwards the lexicographically smallest ``(label, chunk)`` message not
   sent before among the streams it *relays*: the labels whose carving
   message reached it with hop budget to spare and undominated by a
   smaller label (see ``_CarvingProgram._start_sharing``). Who relays a
   stream is thus fixed by the settled carving, not by the route its
   chunks happen to take — chunks overtaken on the shortest path by a
   detour used to burn their hop budget and die short of the ball's
   edge. By the Lenzen pipelining bound the ``K`` smallest messages
   reaching ``v`` arrive within ``H + K`` rounds plus the blocking by
   the ``O(log n)`` smaller-labelled streams a node relays — and ``v``'s
   own cluster centre is by construction the *smallest* label whose ball
   covers ``v``, so ``v`` collects all of its centre's chunks
   (Lemma 4.3).

Total: ``4H + 2K + O(1)`` rounds per layer, i.e. ``O(dilation·log n)``;
``Θ(log n)`` layers give the ``O(dilation·log² n)`` pre-computation bound
of Theorem 1.3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .._util import stable_hasher
from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram
from ..congest.simulator import Simulator
from ..errors import ReproError
from ..randomness.distributions import TruncatedExponential
from ..telemetry import NULL_RECORDER, Recorder
from .carving import ClusterLayer, carve_draw, draw_radii_and_labels
from .layers import (
    Clustering,
    carving_horizon,
    cluster_seed_bits,
    default_num_layers,
    default_sharing_chunks,
)

__all__ = ["CarvingProtocol", "CarvingOutput", "run_distributed_clustering"]


@dataclass(frozen=True)
class CarvingOutput:
    """Per-node result of one layer of the distributed protocol."""

    center: int
    center_label: int
    h_prime: int
    #: Chunks of the cluster centre's shared randomness, ``chunk id -> bits``.
    chunks: Tuple[Tuple[int, int], ...]

    def shared_bits(self, chunk_bits: int) -> int:
        """Reassemble the centre's shared random bits from the chunks."""
        bits = 0
        for chunk_id, chunk in self.chunks:
            bits |= chunk << (chunk_id * chunk_bits)
        return bits


class _CarvingProgram(NodeProgram):
    def __init__(
        self,
        node: int,
        protocol: "CarvingProtocol",
    ):
        super().__init__()
        p = protocol
        self._horizon = p.horizon
        self._num_chunks = p.num_chunks
        self._chunk_bits = p.chunk_bits

        # Private draws, identical to the centralized oracle's derivation.
        self._radius, self._label = carve_draw(
            stable_hasher(p.seed, "carve", p.layer), node,
            p.radius_distribution, p.label_bits,
        )

        # Carving state: best (label, center, hop) candidates. The node's
        # own message starts with the fake initial hop-count H - r.
        own_hop = self._horizon - self._radius
        self._pool: Dict[int, Tuple[int, int]] = {self._label: (node, own_hop)}
        self._forwarded: set = set()
        self._best_label = self._label
        self._center = node

        # Boundary / h' state.
        self._is_boundary = False
        self._h_prime: Optional[int] = None
        self._boundary_heard = False

        # Sharing state: (label, chunk_id) -> payload; own chunks in.
        seed_bits = cluster_seed_bits(
            p.seed, p.layer, node, p.num_chunks * p.chunk_bits
        )
        mask = (1 << p.chunk_bits) - 1
        self._share_pool: Dict[Tuple[int, int], int] = {}
        for j in range(p.num_chunks):
            self._share_pool[(self._label, j)] = (
                seed_bits >> (j * p.chunk_bits)
            ) & mask
        # Labels whose streams this node relays (fixed when sharing
        # starts) and the heap of their chunks not forwarded yet.
        self._relay: set = set()
        self._share_queue: List[Tuple[int, int]] = []
        self._collected: Dict[int, int] = {}

    # -- phase boundaries (all 1-based rounds) -------------------------

    @property
    def _label_exchange_round(self) -> int:
        return self._horizon + 1

    @property
    def _flood_start(self) -> int:
        return self._horizon + 2

    @property
    def _flood_end(self) -> int:
        return 2 * self._horizon + 1

    @property
    def _share_start(self) -> int:
        return 2 * self._horizon + 2

    @property
    def _share_end(self) -> int:
        # The pipelining bound is H + K; the factor-2 slack absorbs the
        # blocking by the smaller-labelled chunk streams relayed along
        # the path that do not reach the node itself (a node relays
        # O(log n) streams; measured arrivals use under half the window;
        # still O(H) = O(dilation·log n) per layer).
        return 2 * self._horizon + 1 + 2 * (self._horizon + self._num_chunks)

    # -- carving helpers ----------------------------------------------------

    def _absorb_carve(self, inbox: Mapping[int, Any]) -> None:
        for _, message in sorted(inbox.items()):
            label, center, hop = message
            hop += 1  # received messages get their hop-count incremented
            seen = self._pool.get(label)
            if seen is None or hop < seen[1]:
                self._pool[label] = (center, hop)
            if label < self._best_label:
                self._best_label = label
                self._center = center

    def _forward_carve(self, ctx: NodeContext, round_index: int) -> None:
        best = None
        for label, (center, hop) in self._pool.items():
            if label in self._forwarded:
                continue
            if hop <= round_index and hop < self._horizon:
                if best is None or label < best[0]:
                    best = (label, center, hop)
        if best is not None:
            self._forwarded.add(best[0])
            ctx.send_all(("carve", best))

    # -- sharing helpers ------------------------------------------------------

    def _start_sharing(self) -> None:
        """Fix the set of labels whose chunk streams this node relays.

        A stream is worth relaying only if some node reached through here
        may have its label as cluster centre: the label's carving message
        got here with hop budget to spare, and no *smaller* label got here
        with at least as much (that ball would cover everything this one
        still can, and win there). Carving has settled when sharing
        starts, and by its blocking argument every such undominated label
        arrived with its true hop-count, so the set is exact: exactly the
        nodes of a ball that lie on a shortest path to one of its
        cluster's members relay its stream, whatever route the chunks
        themselves take. In label order these are the running minima of
        the hop-count — ``O(log n)`` of them for random labels, however
        many balls overlap at the node — which is what keeps the
        pipelined spreading inside its ``O(H + K)`` window.
        """
        lowest = self._horizon
        for label in sorted(self._pool):
            hop = self._pool[label][1]
            if hop < lowest:
                lowest = hop
                self._relay.add(label)
        if self._label in self._relay:
            self._share_queue = sorted(self._share_pool)

    def _absorb_share(self, inbox: Mapping[int, Any]) -> None:
        for _, (label, chunk_id, payload) in sorted(inbox.items()):
            key = (label, chunk_id)
            if key in self._share_pool:
                continue
            self._share_pool[key] = payload
            if label in self._relay:
                heapq.heappush(self._share_queue, key)
            if label == self._best_label:
                self._collected[chunk_id] = payload

    def _forward_share(self, ctx: NodeContext) -> None:
        # Pipelined k-token spreading: forward the smallest (label, chunk)
        # message not sent before among the streams this node relays.
        # Label-major priority guarantees a node's cluster centre — the
        # *smallest* label whose ball covers it — is never starved: its
        # chunks outrank everything else that can reach the node.
        if self._share_queue:
            key = heapq.heappop(self._share_queue)
            ctx.send_all(("share", (*key, self._share_pool[key])))
        # With nothing left to forward, only a new chunk (a non-empty
        # inbox) or the end of the window needs a step.
        self.idle_until(0 if self._share_queue else self._share_end)

    # -- driver -------------------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        # Round 1 is a carving round; forward if eligible already.
        self._forward_carve(ctx, 1)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        r = ctx.round
        by_kind: Dict[str, Dict[int, Any]] = {}
        for sender, (kind, body) in inbox.items():
            by_kind.setdefault(kind, {})[sender] = body
        label_inbox = by_kind.get("label", {})
        flood = "flood" in by_kind
        share_inbox = by_kind.get("share")

        if "carve" in by_kind:
            self._absorb_carve(by_kind["carve"])
        if r < self._horizon:
            self._forward_carve(ctx, r + 1)
        elif r == self._horizon:
            # Carving settled; exchange cluster labels next round.
            ctx.send_all(("label", self._best_label))
        elif r == self._label_exchange_round:
            self._is_boundary = any(
                label != self._best_label for label in label_inbox.values()
            )
            if self._is_boundary:
                self._h_prime = 0
                self._boundary_heard = True
                ctx.send_all(("flood", None))
            # Until sharing starts only a beacon (a non-empty inbox) acts.
            self.idle_until(self._flood_end)
        elif r <= self._flood_end:
            if flood and not self._boundary_heard:
                self._boundary_heard = True
                self._h_prime = r - self._flood_start + 1
                if r < self._flood_end:
                    ctx.send_all(("flood", None))
            if r == self._flood_end:
                if self._h_prime is None:
                    self._h_prime = self._horizon
                # Kick off sharing: first forwards go out next round.
                self._start_sharing()
                self._forward_share(ctx)
        elif r <= self._share_end:
            if share_inbox:
                self._absorb_share(share_inbox)
            if r < self._share_end:
                self._forward_share(ctx)
            else:
                # Own chunks when the node is its own centre.
                if self._best_label == self._label:
                    for (label, chunk_id), payload in self._share_pool.items():
                        if label == self._label:
                            self._collected[chunk_id] = payload
                self.halt()

    def output(self) -> CarvingOutput:
        return CarvingOutput(
            center=self._center,
            center_label=self._best_label,
            h_prime=self._h_prime if self._h_prime is not None else self._horizon,
            chunks=tuple(sorted(self._collected.items())),
        )


class CarvingProtocol(Algorithm):
    """One layer of distributed ball carving + boundary + sharing.

    Parameters mirror :func:`repro.clustering.layers.build_clustering`;
    ``seed`` and ``layer`` determine all private draws, identically to the
    centralized oracle (that equivalence is what the tests assert).
    """

    def __init__(
        self,
        network: Network,
        radius_scale: int,
        layer: int,
        seed: int,
        horizon_constant: float = 2.0,
        num_chunks: Optional[int] = None,
        chunk_bits: Optional[int] = None,
        label_bits: int = 64,
    ):
        self.radius_scale = radius_scale
        self.layer = layer
        self.seed = seed
        self.label_bits = label_bits
        self.horizon = carving_horizon(
            radius_scale, network.num_nodes, horizon_constant
        )
        default_chunks, default_bits = default_sharing_chunks(network.num_nodes)
        self.num_chunks = num_chunks if num_chunks is not None else default_chunks
        self.chunk_bits = chunk_bits if chunk_bits is not None else default_bits
        self.radius_distribution = TruncatedExponential.for_ball_carving(
            radius_scale, network.num_nodes, horizon_constant
        )

    @property
    def name(self) -> str:
        return f"CarvingProtocol(layer={self.layer}, R={self.radius_scale})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _CarvingProgram(node, self)

    def max_rounds(self, network: Network) -> int:
        return 4 * self.horizon + 2 * self.num_chunks + 4


def run_distributed_clustering(
    network: Network,
    radius_scale: int,
    num_layers: Optional[int] = None,
    seed: int = 0,
    horizon_constant: float = 2.0,
    verify_sharing: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> Clustering:
    """Build the Lemma 4.2 clustering by actually running the protocol.

    Executes :class:`CarvingProtocol` once per layer on the CONGEST
    simulator, counts the real rounds spent (the pre-computation cost of
    Theorem 1.3), and assembles the same :class:`Clustering` object the
    oracle builds. When ``verify_sharing`` is set, every node's collected
    chunks are checked against its centre's
    :func:`~repro.clustering.layers.cluster_seed_bits`.
    """
    if num_layers is None:
        num_layers = default_num_layers(network.num_nodes)

    simulator = Simulator(network, recorder=recorder)
    layers: List[ClusterLayer] = []
    total_rounds = 0
    sharing_bits = 0
    for layer_index in range(num_layers):
        protocol = CarvingProtocol(
            network, radius_scale, layer_index, seed, horizon_constant
        )
        sharing_bits = protocol.num_chunks * protocol.chunk_bits
        with recorder.span(
            "carve-layer-distributed", category="clustering", layer=layer_index
        ):
            run = simulator.run(
                protocol, seed=seed, algorithm_id=("carve", layer_index)
            )
        total_rounds += run.completion_round
        if recorder.enabled:
            recorder.counter("clustering.protocol_rounds", run.completion_round)

        radii, labels = draw_radii_and_labels(
            network, radius_scale, seed, layer_index, horizon_constant
        )
        center = [run.outputs[v].center for v in network.nodes]
        h_prime = [
            min(run.outputs[v].h_prime, protocol.horizon) for v in network.nodes
        ]
        layers.append(
            ClusterLayer(center=center, h_prime=h_prime, radii=radii, labels=labels)
        )

        if verify_sharing:
            num_bits = protocol.num_chunks * protocol.chunk_bits
            with recorder.span(
                "verify-sharing", category="clustering", layer=layer_index
            ):
                for v in network.nodes:
                    out: CarvingOutput = run.outputs[v]
                    expected = cluster_seed_bits(
                        seed, layer_index, out.center, num_bits
                    )
                    if len(out.chunks) != protocol.num_chunks or (
                        out.shared_bits(protocol.chunk_bits) != expected
                    ):
                        raise ReproError(
                            f"sharing failed at node {v} layer {layer_index}: "
                            f"{len(out.chunks)}/{protocol.num_chunks} chunks"
                        )

    return Clustering(
        network=network,
        layers=layers,
        radius_scale=radius_scale,
        horizon=carving_horizon(radius_scale, network.num_nodes, horizon_constant),
        precomputation_rounds=total_rounds,
        seed=seed,
        built_distributed=True,
        sharing_bits=sharing_bits,
        horizon_constant=horizon_constant,
    )
