"""Spec parsing for the service CLI: networks, algorithms, round-trips."""

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.service import job_fingerprint, parse_algorithm, parse_network


class TestNetworks:
    def test_grid(self):
        net = parse_network("grid:4x5")
        assert net.num_nodes == 20

    def test_path(self):
        assert parse_network("path:8").num_nodes == 8

    def test_ring(self):
        net = parse_network("ring:6")
        assert net.num_nodes == 6
        assert all(len(net.neighbors(v)) == 2 for v in net.nodes)

    def test_complete(self):
        net = parse_network("complete:5")
        assert net.num_edges == 10

    def test_tree(self):
        assert parse_network("tree:3").num_nodes == 15

    def test_case_and_whitespace_tolerated(self):
        assert parse_network("  GRID:3x3 ").num_nodes == 9

    @pytest.mark.parametrize(
        "spec", ["mesh:3", "grid:3", "grid:axb", "path:", "grid"]
    )
    def test_bad_specs_raise_with_context(self, spec):
        with pytest.raises(ValueError):
            parse_network(spec)


class TestAlgorithms:
    def test_bfs(self):
        algo = parse_algorithm("bfs:source=2,hops=5")
        assert isinstance(algo, BFS)

    def test_broadcast(self):
        algo = parse_algorithm("broadcast:source=0,token=77,hops=3")
        assert isinstance(algo, HopBroadcast)

    def test_pathtoken(self):
        algo = parse_algorithm("pathtoken:path=0-1-2-3,token=9")
        assert isinstance(algo, PathToken)

    @pytest.mark.parametrize(
        "spec",
        [
            "bfs:source=2",  # missing hops
            "bfs:hops",  # not key=value
            "sort:source=0",  # unknown kind
            "pathtoken:path=0,token=1",  # single-node path
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError, match="spec|key=value|kind"):
            parse_algorithm(spec)


class TestRoundTrip:
    def test_reparsed_specs_share_a_fingerprint(self):
        # the registry contract for the CLI: a spec parsed in two
        # different processes addresses the same artifact
        first = job_fingerprint(
            parse_network("grid:5x5"), parse_algorithm("bfs:source=3,hops=4"), 0, 64
        )
        second = job_fingerprint(
            parse_network("grid:5x5"), parse_algorithm("bfs:source=3,hops=4"), 0, 64
        )
        assert first is not None and first == second


class TestExtendedNetworks:
    """The fuzz-era kinds: every generator-producible topology."""

    @pytest.mark.parametrize(
        "spec,nodes",
        [
            ("star:6", 6),
            ("hypercube:3", 8),
            ("torus:3x4", 12),
            ("layered:3x2", 10),
            ("lollipop:4x2", 6),
            ("regular:n=8,degree=3,seed=1", 8),
            ("gnp:n=7,p=0.5,seed=2", 7),
        ],
    )
    def test_kinds_build(self, spec, nodes):
        assert parse_network(spec).num_nodes == nodes

    def test_seeded_kinds_are_reproducible(self):
        a = parse_network("gnp:n=8,p=0.6,seed=3")
        b = parse_network("gnp:n=8,p=0.6,seed=3")
        assert a.edges == b.edges

    @pytest.mark.parametrize(
        "spec,field",
        [
            ("regular:n=8,degre=3", "degre"),
            ("gnp:n=8,p=0.5,sed=1", "sed"),
        ],
    )
    def test_unknown_fields_named_in_error(self, spec, field):
        with pytest.raises(ValueError, match=field):
            parse_network(spec)

    def test_missing_required_field_named(self):
        with pytest.raises(ValueError, match="degree"):
            parse_network("regular:n=8")


class TestExtendedAlgorithms:
    def test_network_free_kinds_build(self):
        for spec in (
            "flooding:source=0,token=7",
            "gossip:source=1,rounds=3",
            "leader:deadline=6",
            "mis:nodes=9,phases=8",
            "sourcedetect:sources=0-3-5,hops=2,topk=2",
        ):
            assert parse_algorithm(spec) is not None

    def test_network_bound_kinds_need_the_network(self):
        net = parse_network("grid:3x3")
        for spec in (
            "coloring:palette=5",
            "agg:root=0,height=4,op=min",
        ):
            assert parse_algorithm(spec, network=net) is not None
            with pytest.raises(ValueError, match="network"):
                parse_algorithm(spec)

    def test_agg_ops(self):
        net = parse_network("path:4")
        for op in ("sum", "min", "max"):
            parse_algorithm(f"agg:root=0,height=3,op={op}", network=net)
        with pytest.raises(ValueError, match="avg"):
            parse_algorithm("agg:root=0,height=3,op=avg", network=net)

    @pytest.mark.parametrize(
        "spec,field",
        [
            ("bfs:source=0,hopz=3", "hopz"),
            ("flooding:source=0,token=1,color=2", "color"),
            ("mis:nodes=4,budget=2", "budget"),
        ],
    )
    def test_unknown_fields_named_in_error(self, spec, field):
        with pytest.raises(ValueError, match=field):
            parse_algorithm(spec)

    def test_every_kind_fingerprints(self):
        # Registry addressing: every speakable algorithm must have a
        # stable content fingerprint (this is why agg's sum op is
        # operator.add, not a lambda).
        from repro.service.specs import ALGORITHM_KINDS

        net = parse_network("grid:3x3")
        specs = {
            "bfs": "bfs:source=0,hops=2",
            "broadcast": "broadcast:source=0,token=1,hops=2",
            "pathtoken": "pathtoken:path=0-1-2,token=1",
            "flooding": "flooding:source=0,token=1",
            "gossip": "gossip:source=0,rounds=2",
            "leader": "leader:deadline=4",
            "mis": "mis:nodes=9",
            "coloring": "coloring:palette=5",
            "agg": "agg:root=0,height=4,op=sum",
            "sourcedetect": "sourcedetect:sources=0-4,hops=2,topk=1",
            "tokenbroadcast": "tokenbroadcast:nodes=0-4,deadline=8",
        }
        assert set(specs) == set(ALGORITHM_KINDS)
        for spec in specs.values():
            algo = parse_algorithm(spec, network=net)
            first = job_fingerprint(net, algo, 0, 64)
            again = job_fingerprint(
                net, parse_algorithm(spec, network=net), 0, 64
            )
            assert first is not None and first == again, spec


class TestFaultPlans:
    def test_round_trip(self):
        from repro.service import format_fault_plan, parse_fault_plan

        spec = (
            "faults:seed=3,drop=0.05,delay=0.1,maxdelay=2,"
            "edgedrop=0-1@0.5,outages=0-1@2-4+1-2@5-6,crashes=4@2+5@3"
        )
        plan = parse_fault_plan(spec)
        assert format_fault_plan(plan) == spec
        assert parse_fault_plan(format_fault_plan(plan)) == plan

    def test_null_plan(self):
        from repro.service import format_fault_plan, parse_fault_plan

        plan = parse_fault_plan("faults:seed=9")
        assert plan.is_null
        assert format_fault_plan(plan) == "faults:seed=9"

    def test_unknown_field_named(self):
        from repro.service import parse_fault_plan

        with pytest.raises(ValueError, match="dorp"):
            parse_fault_plan("faults:dorp=0.1")

    def test_requires_faults_prefix(self):
        from repro.service import parse_fault_plan

        with pytest.raises(ValueError, match="faults"):
            parse_fault_plan("chaos:drop=0.1")


class TestSchedulersAndTransports:
    def test_every_scheduler_kind_builds_fresh_instances(self):
        from repro.service import parse_scheduler
        from repro.service.specs import SCHEDULER_KINDS

        for name in SCHEDULER_KINDS:
            first = parse_scheduler(name)
            second = parse_scheduler(name)
            assert first is not second

    def test_unknown_scheduler_rejected(self):
        from repro.service import parse_scheduler

        with pytest.raises(ValueError, match="greedy-ilp"):
            parse_scheduler("greedy-ilp")

    def test_eager_is_not_a_kind(self):
        # Every kind returns the solo outputs; the eager ablation does
        # not, so it has no spec name.
        from repro.service import parse_scheduler
        from repro.service.specs import SCHEDULER_KINDS

        assert SCHEDULER_KINDS == (
            "sequential", "round-robin", "random-delay", "sparse-phase",
            "doubling", "private",
        )
        with pytest.raises(ValueError) as info:
            parse_scheduler("eager")
        assert "/".join(SCHEDULER_KINDS) in str(info.value)
