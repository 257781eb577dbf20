"""Corrupt entries are misses, for every content store.

A bit-rotted or truncated ``<key>.pkl`` must never crash a lookup:
:class:`~repro.parallel.cache.ContentStore` counts any failure to load
an entry as a miss, and the next store rewrites it. Checked on the
store that keeps a disk tier, the service's :class:`RunRegistry`.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import RunArtifact, RunRegistry

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

    @staticmethod
    def fill(registry):
        registry.put(ARTIFACT)
        return ARTIFACT.fingerprint, ARTIFACT

    @staticmethod
    def same(a, b):
        return a == b


@pytest.fixture(
    scope="module", params=[_Registry], ids=["registry"]
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
        assert path.read_bytes() == pristine
        assert case.same(case.store(directory).get(key), value)
