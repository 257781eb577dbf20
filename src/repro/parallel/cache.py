"""Content-addressed caching of solo reference runs.

Every scheduler run starts by consulting the workload's solo reference
executions (for the scheduling parameters ``(congestion, dilation)`` and
the ground-truth outputs), and a parameter sweep re-derives the *same*
solo runs for every scheduler × seed cell that shares a workload
configuration. Those runs are pure functions of

``(network, algorithm, algorithm id, master seed, message_bits)``

— the node random tapes are derived from exactly that tuple — so they can
be cached content-addressed with no effect on results.

:class:`ContentStore` is the two-tier store behind the service's
:class:`~repro.service.registry.RunRegistry`:

* an **in-memory tier** (bounded FIFO dict) shared by every user in
  the process, and
* an optional **on-disk tier** (one pickle per key under a directory)
  that persists across processes.

:class:`SoloRunCache` is that store holding solo runs, in memory only:
a solo run is cheap to recompute, and a disk tier would unpickle
whatever its directory holds.

Keys are hex digests of :func:`network_fingerprint` and
:func:`algorithm_fingerprint` plus the scalar parameters. Fingerprints
are *stable*: built from :func:`repro._util.stable_digest` over a
recursive, address-free rendering of the algorithm's constructor state,
so the same logical algorithm hashes identically across processes and
interpreter restarts. An algorithm whose state cannot be rendered
stably (e.g. it holds a lambda) is simply never cached — correctness
over hit rate.

``REPRO_SOLO_CACHE=0`` disables the process-wide default cache.

Cache activity is observable through the usual telemetry pattern:
attach a :class:`~repro.telemetry.Recorder` and the cache emits
``cache.hit`` / ``cache.miss`` counters; the plain integer
:meth:`SoloRunCache.stats` are always maintained.
"""

from __future__ import annotations

import inspect
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .._util import stable_digest
from ..congest.network import Network
from ..congest.program import Algorithm
from ..congest.simulator import Simulator, SoloRun
from ..telemetry import NULL_RECORDER, Recorder

__all__ = [
    "CACHE_ENV",
    "ContentStore",
    "SoloRunCache",
    "algorithm_fingerprint",
    "default_cache",
    "network_fingerprint",
    "reset_default_cache",
    "set_default_cache",
]

#: Environment variable disabling the default cache when set to ``0``.
CACHE_ENV = "REPRO_SOLO_CACHE"


class _UnstableFingerprint(Exception):
    """Raised when a value has no address-free stable rendering."""


def _stable_render(value: Any, depth: int = 0) -> str:
    """Render ``value`` to a string with no memory addresses in it.

    Mirrors ``repr`` for scalars and containers and falls back to
    ``module.qualname{sorted instance state}`` for objects; raises
    :class:`_UnstableFingerprint` for anything that cannot be rendered
    reproducibly (default ``object`` reprs embed addresses, lambdas and
    local closures are indistinguishable by name).
    """
    if depth > 12:
        raise _UnstableFingerprint("state nesting too deep to fingerprint")
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        opener, closer = ("[", "]") if isinstance(value, list) else ("(", ")")
        inner = ",".join(_stable_render(v, depth + 1) for v in value)
        return f"{opener}{inner}{closer}"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(_stable_render(v, depth + 1) for v in value))
        return "{" + inner + "}"
    if isinstance(value, dict):
        items = sorted(
            (_stable_render(k, depth + 1), _stable_render(v, depth + 1))
            for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, type):
        return f"<class {value.__module__}.{value.__qualname__}>"
    if inspect.isroutine(value):
        qualname = getattr(value, "__qualname__", "")
        if "<" in qualname:  # lambdas / local defs: name does not pin identity
            raise _UnstableFingerprint(f"unfingerprintable callable {qualname!r}")
        return f"<fn {getattr(value, '__module__', '?')}.{qualname}>"
    if isinstance(value, Network):
        return f"<network {network_fingerprint(value)}>"
    state = getattr(value, "__dict__", None)
    if state is None:
        slots = getattr(type(value), "__slots__", None)
        if slots is not None:
            state = {s: getattr(value, s) for s in slots if hasattr(value, s)}
    if state is not None:
        cls = type(value)
        return (
            f"{cls.__module__}.{cls.__qualname__}"
            + _stable_render(dict(state), depth + 1)
        )
    raise _UnstableFingerprint(f"cannot stably render {type(value)!r}")


def network_fingerprint(network: Network) -> str:
    """Stable hex digest of a network's topology (nodes + edge list).

    Computed once per :class:`Network` object: the topology is
    immutable, so the digest is kept on the network.
    """
    digest = network._fingerprint
    if digest is None:
        digest = network._fingerprint = stable_digest(
            "network", network.num_nodes, network.edges
        ).hex()
    return digest


def algorithm_fingerprint(algorithm: Algorithm) -> Optional[str]:
    """Stable hex digest of an algorithm's class and constructor state.

    Returns ``None`` when the state has no address-free rendering (then
    the algorithm is uncacheable and always simulated fresh).
    """
    try:
        rendered = _stable_render(algorithm)
    except _UnstableFingerprint:
        return None
    return stable_digest("algorithm", rendered).hex()


class ContentStore:
    """Two-tier (memory + optional disk) content-addressed store.

    Subclasses set :attr:`value_type` and keep only what differs: how a
    key is derived, and what each lookup or store counts.

    Parameters
    ----------
    directory:
        Optional on-disk tier location. Entries are single pickle files
        named ``<key>.pkl``; writes go to a temp file and are
        ``os.replace``-d into place (no fsync), so concurrent processes
        may share one directory. On load, any failure to open or
        unpickle an entry — and an entry that is not a
        :attr:`value_type` — counts as a miss, so a bit-rotted or
        truncated file is rewritten by the next store.
    recorder:
        Telemetry sink for the subclass's counters (defaults to the
        zero-overhead :data:`~repro.telemetry.NULL_RECORDER`).
    max_memory_entries:
        Bound on the in-memory tier; the oldest entry is evicted first.
    """

    #: What an entry must be to count as a hit.
    value_type: type = object
    #: Integer counter attributes: zeroed on construction and
    #: :meth:`clear`, reported (in this order) by :meth:`stats`.
    counters: Tuple[str, ...] = ()

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        recorder: Recorder = NULL_RECORDER,
        max_memory_entries: int = 1024,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.recorder = recorder
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        for name in self.counters:
            setattr(self, name, 0)

    def get(self, key: str) -> Any:
        """Look a key up in the memory tier, then the disk tier."""
        value = self._memory.get(key)
        if value is None and self.directory is not None:
            value = self._load(key)
        return value

    def _load(self, key: str) -> Any:
        """Read one disk entry into the memory tier (``None``: a miss)."""
        try:
            with (self.directory / f"{key}.pkl").open("rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # Flipped or truncated bytes surface as almost any exception
            # (decode errors, a bogus length's MemoryError, a class
            # that does not exist); so does an entry pickled with an
            # optional dependency this process lacks.
            return None
        if not isinstance(value, self.value_type):
            return None
        self._remember(key, value)
        return value

    def put(self, key: str, value: Any) -> None:
        """Store a value in the memory tier (and the disk tier when set)."""
        self._remember(key, value)
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{key}.pkl"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PickleError):
            tmp.unlink(missing_ok=True)

    def _remember(self, key: str, value: Any) -> None:
        memory = self._memory
        memory[key] = value
        memory.move_to_end(key)
        while len(memory) > self.max_memory_entries:
            memory.popitem(last=False)

    def keys(self) -> List[str]:
        """Every key either tier can currently serve, sorted."""
        known = set(self._memory)
        if self.directory is not None and self.directory.exists():
            known.update(p.stem for p in self.directory.glob("*.pkl"))
        return sorted(known)

    def stats(self) -> Dict[str, int]:
        """The subclass's counters plus the current memory-tier size."""
        stats = {name: getattr(self, name) for name in self.counters}
        stats["memory_entries"] = len(self._memory)
        return stats

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier when ``disk=True``)."""
        self._memory.clear()
        for name in self.counters:
            setattr(self, name, 0)
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = "".join(f", {n}={getattr(self, n)}" for n in self.counters)
        tier = f", dir={self.directory}" if self.directory else ""
        return f"{type(self).__name__}(entries={len(self)}{counts}{tier})"


class SoloRunCache(ContentStore):
    """A memory-only :class:`ContentStore` of solo reference runs.

    Lookups through :meth:`get_or_run` emit ``cache.hit`` /
    ``cache.miss`` counters on the recorder.
    """

    value_type = SoloRun
    counters = ("hits", "misses")

    def __init__(
        self, recorder: Recorder = NULL_RECORDER, max_memory_entries: int = 1024
    ):
        super().__init__(None, recorder, max_memory_entries)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def key_for(
        self,
        network: Network,
        algorithm: Algorithm,
        algorithm_id: Any = None,
        seed: int = 0,
        message_bits: Optional[int] = None,
    ) -> Optional[str]:
        """Content-addressed key for one solo run (``None``: uncacheable).

        The key covers everything the simulation is a function of: the
        topology, the algorithm's class + constructor state, the
        ``algorithm_id`` (it salts the per-node random tapes), the master
        seed, and the message-size budget.
        """
        algo_fp = algorithm_fingerprint(algorithm)
        if algo_fp is None:
            return None
        try:
            aid_part = _stable_render(algorithm_id)
        except _UnstableFingerprint:
            return None
        return stable_digest(
            "solo-run",
            network_fingerprint(network),
            algo_fp,
            aid_part,
            seed,
            message_bits,
        ).hex()

    # ------------------------------------------------------------------
    # the main entry point
    # ------------------------------------------------------------------

    def get_or_run(
        self,
        network: Network,
        algorithm: Algorithm,
        algorithm_id: Any = None,
        seed: int = 0,
        message_bits: Optional[int] = -1,
        transport: Any = None,
    ) -> SoloRun:
        """Return the cached solo run, simulating (and storing) on a miss.

        Mirrors :meth:`~repro.congest.simulator.Simulator.run` semantics
        exactly — a hit is bit-identical to a fresh simulation because
        the key pins every input of the deterministic simulator.
        ``transport`` selects the backend used on a miss; it is *not*
        part of the key because every backend is bit-identical.
        """
        if message_bits == -1:
            from ..congest.message import default_message_bits

            message_bits = default_message_bits(network.num_nodes)
        key = self.key_for(
            network,
            algorithm,
            algorithm_id=algorithm_id,
            seed=seed,
            message_bits=message_bits,
        )
        if key is not None:
            run = self.get(key)
            if run is not None:
                self.hits += 1
                if self.recorder.enabled:
                    self.recorder.counter("cache.hit")
                return run
        self.misses += 1
        if self.recorder.enabled:
            self.recorder.counter("cache.miss")
        sim = Simulator(network, message_bits=message_bits, transport=transport)
        run = sim.run(algorithm, seed=seed, algorithm_id=algorithm_id)
        if key is not None:
            self.put(key, run)
        return run


# ---------------------------------------------------------------------------
# the process-wide default cache
# ---------------------------------------------------------------------------

_default_cache: Optional[SoloRunCache] = None
_default_config: Optional[tuple] = None


def default_cache() -> Optional[SoloRunCache]:
    """The process-wide cache workloads use unless told otherwise.

    Configured from the environment on first use (and reconfigured when
    the environment changes): ``REPRO_SOLO_CACHE=0`` yields ``None``
    (caching off); the default is an enabled cache.
    """
    global _default_cache, _default_config
    if _default_config is not None and _default_config[0] == "override":
        return _default_cache
    enabled = os.environ.get(CACHE_ENV, "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "",
    )
    if (enabled,) != _default_config:
        _default_cache = SoloRunCache() if enabled else None
        _default_config = (enabled,)
    return _default_cache


def set_default_cache(cache: Optional[SoloRunCache]) -> Optional[SoloRunCache]:
    """Replace the process-wide default cache; returns the previous one.

    Mainly for tests and benchmarks that need an isolated cache; pass
    ``None`` to disable caching for workloads built afterwards. The
    override sticks until the next call (environment changes no longer
    rebuild the default).
    """
    global _default_cache, _default_config
    previous = _default_cache
    _default_cache = cache
    _default_config = ("override", id(cache))
    return previous


def reset_default_cache() -> None:
    """Drop any override and return the default cache to env control."""
    global _default_cache, _default_config
    _default_cache = None
    _default_config = None
