"""Tests for schedule artifacts (capture / serialize / replay)."""

import pytest

from repro.core import RandomDelayScheduler, SequentialScheduler, Workload
from repro.core.artifact import ScheduleArtifact, capture_delay_schedule
from repro.errors import ScheduleError
from repro.experiments import mixed_workload


@pytest.fixture(scope="module")
def captured(grid6):
    work = mixed_workload(grid6, 6, seed=19)
    result = RandomDelayScheduler().run(work, seed=3)
    artifact = capture_delay_schedule(work, result)
    return work, result, artifact


class TestCapture:
    def test_capture_fields(self, captured):
        work, result, artifact = captured
        assert artifact.scheduler == "random-delay[T1.1]"
        assert artifact.delays == result.report.notes["delays"]
        assert artifact.expected_length == result.report.length_rounds
        assert artifact.matches(work)

    def test_non_delay_scheduler_rejected(self, grid4):
        work = mixed_workload(grid4, 3, seed=1)
        result = SequentialScheduler().run(work)
        with pytest.raises(ScheduleError):
            capture_delay_schedule(work, result)


class TestSerialization:
    def test_json_roundtrip(self, captured):
        _, _, artifact = captured
        again = ScheduleArtifact.from_json(artifact.to_json())
        assert again == artifact

    def test_file_roundtrip(self, captured, tmp_path):
        _, _, artifact = captured
        path = tmp_path / "schedule.json"
        artifact.save(path)
        assert ScheduleArtifact.load(path) == artifact

    def test_unknown_version_rejected(self, captured):
        _, _, artifact = captured
        import json

        data = json.loads(artifact.to_json())
        data["version"] = 99
        with pytest.raises(ScheduleError):
            ScheduleArtifact.from_json(json.dumps(data))

    def test_malformed_documents_name_what_is_wrong(self, captured):
        _, _, artifact = captured
        import json

        data = json.loads(artifact.to_json())
        with pytest.raises(ScheduleError, match="JSON object, not list"):
            ScheduleArtifact.from_json(json.dumps([data]))
        with pytest.raises(ScheduleError, match="unknown fields.*'seed'"):
            ScheduleArtifact.from_json(json.dumps({**data, "seed": 3}))
        del data["phase_size"]
        with pytest.raises(ScheduleError, match="missing fields.*'phase_size'"):
            ScheduleArtifact.from_json(json.dumps(data))


class TestReplay:
    def test_replay_reproduces_everything(self, captured):
        work, result, artifact = captured
        replayed = artifact.replay(work)
        assert replayed.correct
        assert replayed.report.length_rounds == result.report.length_rounds
        assert replayed.report.max_phase_load == result.report.max_phase_load
        assert replayed.outputs == result.outputs

    def test_replay_rejects_wrong_workload(self, captured, grid4):
        _, _, artifact = captured
        other = mixed_workload(grid4, 6, seed=19)
        with pytest.raises(ScheduleError):
            artifact.replay(other)

    def test_strict_replay_detects_tampering(self, captured):
        work, _, artifact = captured
        import dataclasses

        tampered = dataclasses.replace(artifact, expected_length=1)
        with pytest.raises(ScheduleError):
            tampered.replay(work, strict=True)

    def test_non_strict_replay_tolerates(self, captured):
        work, _, artifact = captured
        import dataclasses

        relaxed = dataclasses.replace(artifact, expected_length=1)
        result = relaxed.replay(work, strict=False)
        assert result.correct


class TestTopologyBinding:
    def test_same_shape_different_topology_rejected(self, captured):
        """(k, n, m) can coincide while topologies differ; the embedded
        network JSON catches the swap."""
        from repro.congest import Network

        work, _, artifact = captured
        net = work.network
        # rewire one edge while keeping n, m constant
        edges = list(net.edges)
        u, v = edges[0]
        replacement = None
        for a in net.nodes:
            for b in net.nodes:
                if a < b and not net.has_edge(a, b) and (a, b) != (u, v):
                    candidate = edges[1:] + [(a, b)]
                    try:
                        replacement = Network(candidate, num_nodes=net.num_nodes)
                        break
                    except Exception:
                        continue
            if replacement:
                break
        assert replacement is not None
        from repro.experiments import mixed_workload  # same recipe, new net
        other = mixed_workload(replacement, work.num_algorithms, seed=19)
        assert not artifact.matches(other)

    def test_cross_process_style_roundtrip(self, captured, tmp_path):
        """Serialize everything, reconstruct the network from the artifact
        alone, rebuild the workload, replay."""
        from repro.congest import Network
        from repro.experiments import mixed_workload

        work, _, artifact = captured
        path = tmp_path / "a.json"
        artifact.save(path)
        loaded = ScheduleArtifact.load(path)
        net = Network.from_json(loaded.network_json)
        rebuilt = mixed_workload(net, loaded.num_algorithms, seed=19)
        result = loaded.replay(rebuilt)
        assert result.correct


class TestArtifactMaterialization:
    def test_artifact_delays_materialize_to_recorded_length(self, captured):
        """The artifact's accounting length is realizable as an explicit
        wire-level schedule of exactly that many rounds."""
        from repro.core import materialize_phase_schedule

        work, _, artifact = captured
        schedule = materialize_phase_schedule(
            work.patterns(), artifact.delays, artifact.phase_size
        )
        schedule.validate_capacity()
        assert schedule.makespan == artifact.expected_length


class TestDoublingReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rejected_guesses_do_not_break_replay(self, grid6, seed):
        """A doubling report charges its rejected guesses' rounds, which
        replay does not run: the artifact records the accepted guess's
        own length, so the strict replay passes."""
        from repro.algorithms import BFS, HopBroadcast
        from repro.core import DoublingScheduler

        algorithms = [BFS(0)] + [HopBroadcast(0, f"t{i}", 5) for i in range(30)]
        work = Workload(grid6, algorithms)
        result = DoublingScheduler().run(work, seed=seed)
        assert result.report.notes["wasted_rounds"] > 0
        replayed = capture_delay_schedule(work, result).replay(work)
        assert replayed.correct
        assert replayed.outputs == result.outputs
        assert replayed.report.length_rounds == (
            result.report.length_rounds - result.report.notes["wasted_rounds"]
        )
