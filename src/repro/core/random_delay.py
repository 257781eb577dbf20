"""Theorem 1.1: scheduling with shared randomness and uniform delays.

    "Break time into phases, each having Θ(log n) rounds. [...] We delay
    the start of each algorithm by a uniform random delay in
    [O(congestion/log n)] phases. Chernoff bound shows that w.h.p., for
    each edge and each phase, O(log n) messages are scheduled to traverse
    this edge in this phase."

The resulting schedule has ``O(congestion/log n) + dilation`` phases of
``Θ(log n)`` rounds each, i.e. ``O(congestion + dilation·log n)`` rounds.

Shared randomness is modelled by sampling all delays from one generator
seeded by the scheduler seed — every node "knows" all delays, which is
precisely the assumption Theorem 1.3 later removes.

The paper further observes that full independence is unnecessary:
"Θ(log n)-wise independence between the values of random delays is
enough and thus ... sharing simply O(log² n) bits of randomness is
sufficient." ``bounded_independence=True`` draws the delays from the
Reed–Solomon ``Θ(log n)``-wise generator seeded with exactly that many
bits, reproducing the observation.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from .._util import ceil_log2, derive_seed
from ..randomness.kwise import KWiseGenerator, seed_bits_required
from ..randomness.primes import next_prime
from .base import ScheduleResult, Scheduler
from .delays import execute_with_delays, phase_size_log
from .workload import Workload

__all__ = ["RandomDelayScheduler"]


class RandomDelayScheduler(Scheduler):
    """Uniform random start delays in phases of ``Θ(log n)`` rounds.

    Parameters
    ----------
    phase_constant:
        Multiplier on ``log2 n`` for the phase size.
    delay_stretch:
        Multiplier on the delay range ``congestion / phase_size`` (a
        larger range lowers per-phase loads at the cost of a longer
        schedule — the usual Chernoff constant tradeoff).
    phase_size:
        Explicit override of the phase size in rounds.
    bounded_independence:
        Draw delays ``Θ(log n)``-wise independently from an
        ``O(log² n)``-bit shared seed instead of fully independently —
        the variant Theorem 1.3's randomness budget relies on.
    """

    name = "random-delay[T1.1]"

    def __init__(
        self,
        phase_constant: float = 1.0,
        delay_stretch: float = 1.0,
        phase_size: Optional[int] = None,
        bounded_independence: bool = False,
    ):
        if delay_stretch <= 0:
            raise ValueError("delay_stretch must be positive")
        self.phase_constant = phase_constant
        self.delay_stretch = delay_stretch
        self.phase_size_override = phase_size
        self.bounded_independence = bounded_independence

    def delay_range(self, congestion: int, phase_size: int) -> int:
        """Number of possible start phases, ``Θ(congestion / phase_size)``."""
        return max(1, math.ceil(self.delay_stretch * congestion / phase_size))

    def _sample_delays(
        self, workload: Workload, delay_range: int, seed: int
    ) -> tuple:
        """Returns (delays, shared_bits_used)."""
        k = workload.num_algorithms
        if not self.bounded_independence:
            rng = random.Random(derive_seed(seed, "shared-delays"))
            return [rng.randrange(delay_range) for _ in range(k)], None

        n = workload.network.num_nodes
        independence = max(2, ceil_log2(n) + 2)
        prime = next_prime(max(1024, k + 1, 16 * delay_range))
        bits_needed = seed_bits_required(independence, prime)
        rng = random.Random(derive_seed(seed, "shared-delays-kwise"))
        shared_bits = rng.getrandbits(bits_needed)
        generator = KWiseGenerator.from_bits(prime, independence, shared_bits)
        delays: List[int] = [
            int(generator.uniform(aid) * delay_range) for aid in range(k)
        ]
        return delays, bits_needed

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        recorder = self.recorder
        with recorder.span("measure-params", category="scheduler"):
            params = workload.params()
        n = workload.network.num_nodes
        phase_size = self.phase_size_override or phase_size_log(
            n, self.phase_constant
        )
        delay_range = self.delay_range(params.congestion, phase_size)
        with recorder.span(
            "sample-delays",
            category="scheduler",
            delay_range=delay_range,
            bounded_independence=self.bounded_independence,
        ):
            delays, bits = self._sample_delays(workload, delay_range, seed)
        notes = {"delay_range": delay_range}
        if bits is not None:
            notes["shared_seed_bits"] = bits
        outputs, report = execute_with_delays(
            self, workload, delays, phase_size, notes=notes
        )
        return self._finish(workload, outputs, report)
