"""The random topologies: ``random_regular`` and ``gnp_connected``.

Both samplers are ports of networkx 3.x's ``random_regular_graph``
(Steger–Wormald stub pairing) and ``gnp_random_graph`` that consume the
``random.Random`` stream exactly as networkx does. Two kinds of check:

* differential (skipped without networkx): every sample equals
  networkx's, edge for edge, over grids that include failed pairing
  attempts and connectivity resamples;
* golden (no networkx needed): the edge lists of every network spec the
  fuzzer draws (``regular:n∈{6,8},degree=3,seed 0..7`` and
  ``gnp:n 5..8,p∈{0.5,0.7,0.9},seed 0..7``) are pinned in
  ``golden/random_topologies.json``, so a fuzz scenario's graph, and
  with it its fingerprints and corpus entries, cannot drift.

``python tests/congest/test_random_topologies.py`` rewrites the golden
file from networkx's graphs.
"""

import json
import random
from pathlib import Path

import pytest

from repro.congest import topology
from repro.errors import NetworkError
from repro.service.specs import parse_network

GOLDEN = Path(__file__).parent / "golden" / "random_topologies.json"

#: Every network spec the fuzzer's ``_network_spec`` can draw for these
#: two kinds.
FUZZ_SPECS = [
    f"regular:n={n},degree=3,seed={seed}" for n in (6, 8) for seed in range(8)
] + [
    f"gnp:n={n},p={p},seed={seed}"
    for n in range(5, 9)
    for p in ("0.5", "0.7", "0.9")
    for seed in range(8)
]


def _canonical(graph):
    return sorted((min(u, v), max(u, v)) for u, v in graph.edges())


class TestAgainstNetworkx:
    @pytest.fixture(autouse=True)
    def _nx(self):
        self.nx = pytest.importorskip("networkx")

    def test_regular_edges_equal_networkx_including_failed_attempts(
        self, monkeypatch
    ):
        failed = []
        suitable = topology._suitable

        def counted(edges, rejected):
            ok = suitable(edges, rejected)
            failed.append(not ok)
            return ok

        monkeypatch.setattr(topology, "_suitable", counted)
        for n in range(2, 25):
            for degree in range(0, min(n, 6)):
                if n * degree % 2:
                    continue
                for seed in range(6):
                    port = topology.regular_edges(n, degree, random.Random(seed))
                    reference = self.nx.random_regular_graph(degree, n, seed=seed)
                    assert sorted(port) == _canonical(reference), (n, degree, seed)
        # The grid exercises pairing attempts that fail and start over.
        assert sum(failed) > 100

    def test_gnp_edges_equal_networkx(self):
        for n in range(1, 31):
            for p in (0.05, 0.2, 0.5, 0.9, 1.0):
                for seed in range(6):
                    port = topology.gnp_edges(n, p, random.Random(seed))
                    reference = self.nx.gnp_random_graph(n, p, seed=seed)
                    assert port == _canonical(reference), (n, p, seed)

    def _first_connected(self, sample, attempts):
        for attempt in range(attempts):
            graph = sample(attempt)
            if self.nx.is_connected(graph):
                return attempt, _canonical(graph)
        return attempts, None

    def test_random_regular_equals_networkx_until_connected(self):
        resampled = 0
        cases = [(8, 3, seed) for seed in range(20)] + [
            (n, degree, seed)
            for n in range(5, 31, 5)
            for degree in (3, 4, 5)
            for seed in range(4)
            if n > degree and n * degree % 2 == 0
        ]
        for n, degree, seed in cases:
            attempt, edges = self._first_connected(
                lambda a: self.nx.random_regular_graph(degree, n, seed=seed + a), 64
            )
            resampled += attempt > 0
            net = topology.random_regular(n, degree, seed=seed)
            assert list(net.edges) == edges, (n, degree, seed)
        # regular:n=8,degree=3,seed=15 is two K4s on its first attempt.
        assert resampled >= 1

    def test_gnp_connected_equals_networkx_until_connected(self):
        resampled = 0
        for n in range(1, 25, 3):
            for p in (0.1, 0.2, 0.5, 0.9):
                for seed in range(5):
                    attempt, edges = self._first_connected(
                        lambda a: self.nx.gnp_random_graph(n, p, seed=seed + a), 256
                    )
                    resampled += attempt > 0
                    if edges is None:
                        with pytest.raises(NetworkError):
                            topology.gnp_connected(n, p, seed=seed)
                        continue
                    net = topology.gnp_connected(n, p, seed=seed)
                    assert list(net.edges) == edges, (n, p, seed)
        assert resampled > 10


def test_fuzz_specs_match_their_goldens():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(FUZZ_SPECS)
    for spec in FUZZ_SPECS:
        net = parse_network(spec)
        assert [list(edge) for edge in net.edges] == golden[spec], spec


def _write_golden():
    import networkx as nx

    golden = {}
    for spec in FUZZ_SPECS:
        kind, _, rest = spec.partition(":")
        fields = dict(field.split("=") for field in rest.split(","))
        seed = int(fields["seed"])
        for attempt in range(256):
            if kind == "regular":
                graph = nx.random_regular_graph(
                    int(fields["degree"]), int(fields["n"]), seed=seed + attempt
                )
            else:
                graph = nx.gnp_random_graph(
                    int(fields["n"]), float(fields["p"]), seed=seed + attempt
                )
            if nx.is_connected(graph):
                break
        golden[spec] = [list(edge) for edge in _canonical(graph)]
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(spec)}: {json.dumps(edges)}" for spec, edges in golden.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _write_golden()
