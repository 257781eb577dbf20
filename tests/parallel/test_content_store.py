"""Corrupt entries are misses, for every content store.

A bit-rotted or truncated ``<key>.pkl`` must never crash a lookup:
:class:`~repro.parallel.cache.ContentStore` counts any failure to load
an entry as a miss, and the next store rewrites it. Checked for both
stores built on it, the service's :class:`RunRegistry` and the
:class:`SoloRunCache`.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS
from repro.congest import SoloRun, default_message_bits, topology
from repro.parallel import SoloRunCache
from repro.service import RunArtifact, RunRegistry

NET = topology.grid_graph(3, 3)

ARTIFACT = RunArtifact(
    fingerprint="f" * 8,
    outputs={0: 1, 1: "two", 2: (3, 4.5)},
    solo_rounds=3,
    scheduler="random-delay",
    batch_size=2,
    meta={"batch": "b0001"},
)


class _Registry:
    store, value_type = RunRegistry, RunArtifact
    #: ``put`` writes whatever the lookup found.
    always_writes = True

    @staticmethod
    def fill(registry):
        registry.put(ARTIFACT)
        return ARTIFACT.fingerprint, ARTIFACT

    @staticmethod
    def same(a, b):
        return a == b


class _Cache:
    store, value_type = SoloRunCache, SoloRun
    #: ``get_or_run`` re-simulates (and writes) only on a miss.
    always_writes = False

    @staticmethod
    def fill(cache):
        run = cache.get_or_run(NET, BFS(0, hops=3), seed=5)
        bits = default_message_bits(NET.num_nodes)
        return cache.key_for(NET, BFS(0, hops=3), seed=5, message_bits=bits), run

    @staticmethod
    def same(a, b):
        return (
            a.outputs == b.outputs
            and a.rounds == b.rounds
            and list(a.trace.events()) == list(b.trace.events())
        )


@pytest.fixture(
    scope="module", params=[_Registry, _Cache], ids=["registry", "cache"]
)
def entry(request, tmp_path_factory):
    """A store kind with the key, bytes and value of one untouched entry."""
    case = request.param
    directory = tmp_path_factory.mktemp("pristine")
    key, value = case.fill(case.store(directory))
    return case, key, (directory / f"{key}.pkl").read_bytes(), value


#: 1–3 bytes XOR-ed at random offsets, then maybe a truncation.
DAMAGE = st.tuples(
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(1, 255)),
        min_size=1,
        max_size=3,
    ),
    st.none() | st.integers(min_value=0),
)


@given(damage=DAMAGE)
@settings(max_examples=100, deadline=None)
def test_damaged_entry_is_a_miss_and_rewritten(entry, damage):
    case, key, pristine, value = entry
    flips, cut = damage
    data = bytearray(pristine)
    for offset, mask in flips:
        data[offset % len(data)] ^= mask
    if cut is not None:
        del data[cut % len(data):]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{key}.pkl"
        path.write_bytes(bytes(data))
        store = case.store(directory)
        found = store.get(key)
        assert found is None or isinstance(found, case.value_type)
        case.fill(store)
        if found is None or case.always_writes:
            assert path.read_bytes() == pristine
            assert case.same(case.store(directory).get(key), value)
