"""Approximate distinct elements in d-hop neighbourhoods (Appendix A).

The paper's worked example of a shared-randomness Bellagio algorithm:
every node holds a string ``s_v``; each node must learn the number of
distinct strings within ``d`` hops up to a ``(1 + ε)`` factor.

Algorithm (shared randomness = one seed):

1. **Dimensionality reduction**: a pairwise-independent hash
   ``h(x) = (a·x + b) mod p`` maps each (arbitrarily long) input to
   ``Θ(log n)`` bits, collision-free w.h.p. — computed locally.
2. **Threshold tests**: for every threshold ``k_j = (1+ε)^j`` and
   iteration ``i``, a binary hash ``h'_{j,i}`` marks each string with
   probability ``1 - 2^{-1/k_j} ≈ 1/k_j``. Whether *any* marked string
   exists within ``d`` hops separates counts above ``(1+ε/2)·k_j`` from
   counts below ``k_j/(1+ε/2)`` with probability ``1/2 ± Θ(ε)``.
3. **OR-flooding**: the experiment bits are bundled ``Θ(log n)`` per
   message (the CONGEST word) and OR-flooded for ``d`` rounds per
   bundle; a node transmits only when its accumulated mask changes.
4. **Majority + scan**: per threshold, the majority over iterations
   decides "count ≥ k_j?"; the output is the first threshold rejected —
   a canonical value for all but ``O(1/ε)`` boundary thresholds, which
   is the Bellagio property the derandomization harness relies on.

Rounds: ``d · ⌈(#thresholds · #iterations) / 64⌉`` — ``Õ(d/ε³)`` as the
paper states (our bundles are 64-bit words).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

from .._util import stable_digest
from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram
from ..randomness.primes import next_prime

__all__ = ["DistinctElements", "true_distinct_counts"]

_BUNDLE_BITS = 64


def _uniform_hash(*parts: Any) -> float:
    """A deterministic hash into [0, 1) — the model of a shared random
    function selected by the seed."""
    return int.from_bytes(stable_digest(*parts)[:7], "big") / float(1 << 56)


def true_distinct_counts(
    network: Network, values: Mapping[int, int], radius: int
) -> Dict[int, int]:
    """Ground truth: distinct values within ``radius`` hops of each node."""
    return {
        v: len({values[u] for u in network.ball(v, radius)})
        for v in network.nodes
    }


class _DistinctProgram(NodeProgram):
    def __init__(
        self,
        bits: List[bool],
        radius: int,
        num_bundles: int,
        thresholds: List[float],
        iterations: int,
    ):
        super().__init__()
        self._radius = radius
        self._num_bundles = num_bundles
        self._thresholds = thresholds
        self._iterations = iterations
        # Accumulated OR-masks per bundle; own bits pre-loaded.
        self._masks = []
        for b in range(num_bundles):
            mask = 0
            for offset in range(_BUNDLE_BITS):
                index = b * _BUNDLE_BITS + offset
                if index < len(bits) and bits[index]:
                    mask |= 1 << offset
            self._masks.append(mask)
        self._last_sent: Optional[int] = None
        self._estimate: Optional[int] = None

    def _bundle_of_round(self, r: int) -> int:
        """Which bundle floods during round ``r`` (0-based bundle)."""
        return (r - 1) // self._radius

    def on_start(self, ctx: NodeContext) -> None:
        if self._radius < 1 or self._num_bundles == 0:
            self._finish()
            return
        mask = self._masks[0]
        if mask:
            ctx.send_all(("or", 0, mask))
            self._last_sent = mask
        else:
            self._last_sent = 0

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        bundle = self._bundle_of_round(ctx.round)
        for _, message in inbox.items():
            _, b, mask = message
            self._masks[b] |= mask

        last_round_of_bundle = (bundle + 1) * self._radius
        if ctx.round < last_round_of_bundle:
            mask = self._masks[bundle]
            if mask != self._last_sent:
                ctx.send_all(("or", bundle, mask))
                self._last_sent = mask
        elif bundle + 1 < self._num_bundles:
            # Phase flip: start flooding the next bundle.
            mask = self._masks[bundle + 1]
            if mask:
                ctx.send_all(("or", bundle + 1, mask))
            self._last_sent = mask
        else:
            self._finish()

    def _finish(self) -> None:
        self._estimate = self._decide()
        self.halt()

    def _decide(self) -> int:
        """Scan thresholds; output the first one the majority rejects."""
        estimate = 1
        for j, threshold in enumerate(self._thresholds):
            ones = 0
            for i in range(self._iterations):
                index = j * self._iterations + i
                bundle, offset = divmod(index, _BUNDLE_BITS)
                if self._masks[bundle] >> offset & 1:
                    ones += 1
            if 2 * ones < self._iterations:
                return max(1, round(threshold))
            estimate = max(1, round(threshold))
        return estimate

    def output(self) -> Optional[int]:
        return self._estimate


class DistinctElements(Algorithm):
    """``(1+ε)``-approximate distinct elements within ``radius`` hops.

    ``shared_seed`` selects every hash function; two nodes running with
    the same seed use identical hashes — the shared-randomness
    assumption that :mod:`repro.derandomize.harness` removes.
    """

    def __init__(
        self,
        shared_seed: int,
        values: Mapping[int, int],
        radius: int,
        epsilon: float = 0.5,
        num_nodes_hint: int = 1024,
        iteration_factor: float = 2.0,
    ):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.shared_seed = shared_seed
        self.values = dict(values)
        self.radius = radius
        self.epsilon = epsilon
        n = max(num_nodes_hint, 4)
        # Pairwise-independent dimensionality reduction h(x) = ax + b mod p.
        self._p = next_prime(n * n * 16)
        self._a = 1 + int(_uniform_hash("de-a", shared_seed) * (self._p - 1))
        self._b = int(_uniform_hash("de-b", shared_seed) * self._p)
        self.thresholds = self._make_thresholds(n, epsilon)
        self.iterations = max(
            4, math.ceil(iteration_factor * math.log2(n) / epsilon)
        )
        total_bits = len(self.thresholds) * self.iterations
        self.num_bundles = max(1, math.ceil(total_bits / _BUNDLE_BITS))

    @staticmethod
    def _make_thresholds(n: int, epsilon: float) -> List[float]:
        thresholds = []
        k = 1.0
        while k < n:
            k *= 1 + epsilon
            thresholds.append(k)
        return thresholds

    @property
    def rounds(self) -> int:
        """Exact round count: one d-round flood per bundle."""
        return self.radius * self.num_bundles

    @property
    def name(self) -> str:
        return (
            f"DistinctElements(d={self.radius}, eps={self.epsilon}, "
            f"seed={self.shared_seed & 0xffff:#x})"
        )

    def _hash(self, value: int) -> int:
        return (self._a * value + self._b) % self._p

    def _bits_for(self, value: int) -> List[bool]:
        digest = self._hash(value)
        bits = []
        for j, threshold in enumerate(self.thresholds):
            mark_probability = 1.0 - 2.0 ** (-1.0 / threshold)
            for i in range(self.iterations):
                u = _uniform_hash("de-bit", self.shared_seed, j, i, digest)
                bits.append(u < mark_probability)
        return bits

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _DistinctProgram(
            self._bits_for(self.values.get(node, node)),
            self.radius,
            self.num_bundles,
            self.thresholds,
            self.iterations,
        )

    def max_rounds(self, network: Network) -> int:
        return self.rounds + 2
