"""The full Meta-Theorem A.1 pipeline: Newman reduction + local sharing.

Meta-Theorem A.1's second part: "if the input given to each node can be
described using poly(n) bits, a different technique can be used to reduce
R to O(log n), thus giving a O(T log² n) round algorithm." The technique
is Newman's argument (:mod:`repro.randomness.newman`): the ``2^R``
deterministic algorithms selected by the shared seed contain a
``poly(n)``-size sub-collection that preserves per-node majorities for
*every* input, and nodes can find the same sub-collection by a
deterministic search (local computation is free in the model).

This module chains the two halves end to end:

1. deterministically search for a good seed sub-collection ``F'``
   (every node runs the identical search — no communication);
2. the cluster's ``Θ(log n)``-bit shared randomness now only has to
   select an *index into F'* — so the Lemma 4.3 sharing budget drops
   from ``R`` bits to ``O(log n)``;
3. run the selected algorithms per cluster as in the harness.

The probe-input caveat of :func:`find_good_subcollection` applies: at
paper scale the union bound covers all inputs; here the search verifies
against a caller-supplied probe set (exact when the input space is
enumerable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..congest.network import Network
from ..randomness.newman import SubcollectionResult, find_good_subcollection
from .harness import BellagioResult, run_with_private_randomness

__all__ = ["NewmanPipelineResult", "reduce_seed_space_and_run"]


@dataclass
class NewmanPipelineResult:
    """Outcome of the reduced-randomness pipeline."""

    execution: BellagioResult
    reduction: SubcollectionResult
    #: Shared bits actually needed per cluster after the reduction.
    shared_bits_needed: int


def reduce_seed_space_and_run(
    network: Network,
    make_algorithm: Callable[[int], Any],
    locality: int,
    probe_inputs: Sequence[Any],
    evaluate: Callable[[int, Any], Any],
    canonical: Optional[Callable[[Any], Any]] = None,
    full_seed_count: int = 1 << 16,
    subcollection_size: Optional[int] = None,
    majority_threshold: float = 0.6,
    seed: int = 0,
) -> NewmanPipelineResult:
    """Run a Bellagio algorithm with an O(log n)-bit effective seed space.

    Parameters
    ----------
    make_algorithm:
        ``make_algorithm(shared_seed) -> Algorithm`` — the original
        shared-randomness algorithm (conceptually ``R``-bit seeds; the
        search treats seeds ``0 .. full_seed_count-1`` as the collection
        ``F``).
    probe_inputs / evaluate / canonical:
        The Newman verification oracle: ``evaluate(seed_index, input)``
        must reproduce the per-node quantity whose majority defines the
        Bellagio property (see the tests for a worked instance).
    """
    import math

    if subcollection_size is None:
        subcollection_size = max(
            9, 2 * math.ceil(math.log2(max(len(probe_inputs), 2))) + 1
        )

    reduction = find_good_subcollection(
        run=evaluate,
        num_seeds=full_seed_count,
        inputs=probe_inputs,
        subcollection_size=subcollection_size,
        majority_threshold=majority_threshold,
        canonical=canonical,
        search_seed=seed,
    )

    # The cluster's shared randomness now only picks an index into F'.
    chosen = reduction.seeds

    def make_reduced(cluster_bits: int):
        index = cluster_bits % len(chosen)
        return make_algorithm(chosen[index])

    execution = run_with_private_randomness(
        network,
        make_reduced,
        locality=locality,
        seed=seed,
        seed_bits=max(1, (len(chosen) - 1).bit_length() + 8),
    )
    bits_needed = max(1, (len(chosen) - 1).bit_length())
    return NewmanPipelineResult(
        execution=execution,
        reduction=reduction,
        shared_bits_needed=bits_needed,
    )
