"""Workloads: a set of algorithms to be run together on one network.

A :class:`Workload` packages the DAS problem instance — the network, the
algorithms ``A_1 .. A_k`` (identified by their index, the paper's ``AID``),
and a master seed fixing every node's private random tape for every
algorithm. It lazily computes and caches the solo reference runs, from
which the scheduling parameters (congestion, dilation) and the ground-truth
outputs are derived.

The solo runs double as the paper's assumption that "nodes know
constant-factor approximations of congestion and dilation" — schedulers
read the exact values here; :mod:`repro.core.doubling` removes the
assumption with geometric guessing, as the paper sketches.

Solo runs are pure functions of ``(network, algorithm, AID, master
seed, message_bits)``, so besides the per-instance memoisation they are
shared process-wide through :mod:`repro.parallel.cache` — two workloads
built from the same configuration reuse each other's reference runs.
Pass ``solo_cache=None`` (or set ``REPRO_SOLO_CACHE=0``) to opt out.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..congest.message import default_message_bits
from ..congest.network import Network
from ..congest.pattern import CommunicationPattern
from ..congest.program import Algorithm, make_group
from ..congest.simulator import Simulator, SoloRun
from ..congest.wave import StepGroup
from ..metrics.congestion import WorkloadParams, measure_params
from ..parallel.cache import SoloRunCache, default_cache

__all__ = ["Workload", "OutputMap", "group_outputs"]

#: Scheduled outputs: ``(algorithm id, node) -> value``.
OutputMap = Dict[Tuple[int, int], Any]


def group_outputs(groups: Sequence[StepGroup]) -> OutputMap:
    """The outputs of ``groups[aid]`` for every aid (``None`` for every
    node of a group that never started)."""
    return {
        (aid, node): value
        for aid, group in enumerate(groups)
        for node, value in group.outputs().items()
    }


class Workload:
    """A DAS instance: ``k`` algorithms to schedule on one network.

    ``solo_cache`` selects where solo reference runs are looked up
    before simulating: the string ``"default"`` (resolved lazily to
    :func:`repro.parallel.cache.default_cache`, the process-wide cache),
    an explicit :class:`~repro.parallel.cache.SoloRunCache`, or ``None``
    to always simulate fresh. Caching never changes results — the cache
    key pins every input of the deterministic simulator.

    ``transport`` is the one holder of the message-transport backend
    (see :mod:`repro.core.transport`; ``None`` is the numpy default): the
    solo reference runs and every engine that executes the workload
    read it from here. Because every backend is bit-identical, the
    transport is *not* part of the solo cache key and never changes
    outputs or tape identities; a caller comparing backends builds each
    leg's workload with ``solo_cache=None``, or the second leg reads
    back the first leg's solo runs.

    ``algorithm_ids`` optionally fixes each algorithm's *tape identity*:
    the value salted (together with the master seed and the node id)
    into every node's private random tape. By default the identity is
    the algorithm's index — the paper's AID — which means an
    algorithm's tape depends on its position in the workload. Callers
    that re-batch the same algorithm into differently-shaped workloads
    (notably :mod:`repro.service`, which must serve each job the exact
    outputs of its standalone run regardless of which batch executed
    it) pass stable identities instead, making outputs batch-invariant
    even for randomized algorithms.
    """

    def __init__(
        self,
        network: Network,
        algorithms: Sequence[Algorithm],
        master_seed: int = 0,
        message_bits: Optional[int] = -1,
        solo_cache: Union[SoloRunCache, str, None] = "default",
        algorithm_ids: Optional[Sequence[Any]] = None,
        transport: Any = None,
    ):
        if not algorithms:
            raise ValueError("a workload needs at least one algorithm")
        self.network = network
        self.algorithms: Tuple[Algorithm, ...] = tuple(algorithms)
        self.master_seed = master_seed
        if message_bits == -1:
            message_bits = default_message_bits(network.num_nodes)
        self.message_bits = message_bits
        self.solo_cache = solo_cache
        self.transport = transport
        if algorithm_ids is not None and len(algorithm_ids) != len(self.algorithms):
            raise ValueError(
                f"algorithm_ids must match the number of algorithms "
                f"({len(algorithm_ids)} ids for {len(self.algorithms)} algorithms)"
            )
        self.algorithm_ids: Optional[Tuple[Any, ...]] = (
            tuple(algorithm_ids) if algorithm_ids is not None else None
        )
        self._solo_runs: Optional[List[SoloRun]] = None
        self._params: Optional[WorkloadParams] = None

    # ------------------------------------------------------------------

    @property
    def num_algorithms(self) -> int:
        """The number of algorithms ``k``."""
        return len(self.algorithms)

    @property
    def aids(self) -> range:
        """Algorithm identifiers — their indices ``0 .. k-1``."""
        return range(len(self.algorithms))

    def tape_id(self, aid: int) -> Any:
        """The tape identity of algorithm ``aid`` (defaults to ``aid``).

        Everything that derives a node's private random tape —
        :meth:`host_group` for the execution engines, :meth:`solo_runs`
        for the references — goes through this so explicit
        ``algorithm_ids`` take effect consistently.
        """
        return self.algorithm_ids[aid] if self.algorithm_ids is not None else aid

    def host_group(
        self,
        aid: int,
        nodes: Optional[Sequence[int]] = None,
        limits: Optional[Dict[int, int]] = None,
        on_error: Optional[Callable[[int, Exception], None]] = None,
    ) -> StepGroup:
        """The stepper of one copy of algorithm ``aid`` on ``nodes``
        (default: all), drawing the tapes :meth:`tape_id` names; ``limits``
        and ``on_error`` as in :class:`~repro.congest.program.HostGroup`.

        :func:`~repro.congest.program.make_group` picks it: a
        :class:`~repro.congest.wave.WaveGroup` for a BFS or broadcast
        (no per-node objects, no tapes, ``hosts_built`` 0) unless
        ``on_error`` is given, a ``HostGroup`` otherwise.
        """
        return make_group(
            self.algorithms[aid],
            self.network.nodes if nodes is None else nodes,
            self.network,
            self.master_seed,
            self.tape_id(aid),
            self.message_bits,
            limits,
            on_error,
        )

    def _resolve_cache(self) -> Optional[SoloRunCache]:
        if self.solo_cache == "default":
            return default_cache()
        if isinstance(self.solo_cache, SoloRunCache):
            return self.solo_cache
        return None

    def solo_runs(self) -> List[SoloRun]:
        """Reference solo executions (memoised, and shared via the cache)."""
        if self._solo_runs is None:
            cache = self._resolve_cache()
            if cache is None:
                sim = Simulator(
                    self.network,
                    message_bits=self.message_bits,
                    transport=self.transport,
                )
                self._solo_runs = [
                    sim.run(
                        algorithm,
                        seed=self.master_seed,
                        algorithm_id=self.tape_id(aid),
                    )
                    for aid, algorithm in enumerate(self.algorithms)
                ]
            else:
                self._solo_runs = [
                    cache.get_or_run(
                        self.network,
                        algorithm,
                        algorithm_id=self.tape_id(aid),
                        seed=self.master_seed,
                        message_bits=self.message_bits,
                        transport=self.transport,
                    )
                    for aid, algorithm in enumerate(self.algorithms)
                ]
        return self._solo_runs

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: caches are process-local, never shipped.

        A workload crossing a process boundary (e.g. into a
        :class:`~repro.parallel.runner.ParallelRunner` worker) rebinds
        to the receiving process's default cache; already-computed solo
        runs in ``_solo_runs`` (and the ``_params`` measured from them)
        travel with it, so pre-warming a workload before fan-out avoids
        recomputation in every worker.
        """
        state = dict(self.__dict__)
        if isinstance(state.get("solo_cache"), SoloRunCache):
            state["solo_cache"] = "default"
        return state

    def params(self) -> WorkloadParams:
        """Measured (congestion, dilation, k), memoised like the solo runs."""
        if self._params is None:
            self._params = measure_params(self.solo_runs())
        return self._params

    def patterns(self) -> List[CommunicationPattern]:
        """The communication pattern of each algorithm's solo run."""
        return [run.pattern for run in self.solo_runs()]

    def reference_outputs(self) -> OutputMap:
        """Ground-truth outputs every scheduler must reproduce."""
        outputs: OutputMap = {}
        for aid, run in enumerate(self.solo_runs()):
            for node, value in run.outputs.items():
                outputs[(aid, node)] = value
        return outputs

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------

    def merged(self, other: "Workload") -> "Workload":
        """Combine two workloads on the same network into one.

        The merged workload keeps this workload's master seed and relabels
        the other's algorithms to the AIDs after ours. Note that the
        other workload's algorithms get fresh random tapes under the
        merged seed (AIDs shift), so merge *before* depending on outputs
        of randomized algorithms — unless both sides carry explicit
        ``algorithm_ids``, which travel with their algorithms and keep
        every tape (hence every output) unchanged by the merge.
        """
        if other.network != self.network:
            raise ValueError("workloads must share the same network")
        merged_ids = None
        if self.algorithm_ids is not None or other.algorithm_ids is not None:
            merged_ids = [
                self.tape_id(aid) for aid in range(len(self.algorithms))
            ] + [other.tape_id(aid) for aid in range(len(other.algorithms))]
        return Workload(
            self.network,
            list(self.algorithms) + list(other.algorithms),
            master_seed=self.master_seed,
            message_bits=self.message_bits,
            solo_cache=self.solo_cache,
            algorithm_ids=merged_ids,
            transport=self.transport,
        )

    def subset(self, aids) -> "Workload":
        """A workload containing only the given algorithm indices.

        Like :meth:`merged`, AIDs are re-assigned densely, so randomized
        algorithms draw fresh tapes in the subset — unless explicit
        ``algorithm_ids`` pin the tapes, in which case each chosen
        algorithm keeps its identity (and therefore its outputs).
        """
        aids = list(aids)
        chosen = [self.algorithms[aid] for aid in aids]
        chosen_ids = (
            [self.tape_id(aid) for aid in aids]
            if self.algorithm_ids is not None
            else None
        )
        return Workload(
            self.network,
            chosen,
            master_seed=self.master_seed,
            message_bits=self.message_bits,
            solo_cache=self.solo_cache,
            algorithm_ids=chosen_ids,
            transport=self.transport,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload(n={self.network.num_nodes}, k={self.num_algorithms}, "
            f"seed={self.master_seed})"
        )
