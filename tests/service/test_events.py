"""Tests for the job-lifecycle event log and derived latency stats."""

import atexit
import json

import pytest

from repro.algorithms import BFS
from repro.congest import topology
from repro.parallel import SoloRunCache
from repro.service import (
    EventLog,
    JobEvent,
    JobJournal,
    LatencyAccumulator,
    SchedulerService,
    latency_stats,
    read_events,
    read_journal,
)


class _Clock:
    """Deterministic monotone clock for latency assertions."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestEventLog:
    def test_emit_validates_kind(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("teleported", "j0001")

    def test_events_accumulate_in_memory(self):
        log = EventLog(clock=_Clock())
        log.emit("submitted", "j0001", fingerprint="abc", queue_depth=0)
        log.emit("admitted", "j0001", queue_depth=0)
        assert len(log) == 2
        assert [e.kind for e in log.events] == ["submitted", "admitted"]
        assert log.events[0].ts < log.events[1].ts

    def test_spool_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "events.jsonl"
        with EventLog(path, clock=_Clock()) as log:
            log.emit("submitted", "j0001", fingerprint="abc", queue_depth=1)
            log.emit(
                "batched", "j0001", batch="b0001", queue_depth=0, batch_jobs=2
            )
            log.emit("done", "j0001", batch="b0001", batch_size=2)
        loaded = read_events(path)
        assert loaded == log.events
        assert loaded[1].attrs == {"batch_jobs": 2}
        assert loaded[1].batch == "b0001"

    def test_read_tolerates_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps(
            JobEvent(kind="submitted", job_id="j0001", ts=1.0).as_dict()
        )
        path.write_text(f"{good}\n\n{{\"kind\": \"done\", \"job_i")
        events = read_events(path)
        assert len(events) == 1
        assert events[0].job_id == "j0001"

    def test_spool_flushes_in_blocks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, clock=_Clock(), flush_every=2)
        log.emit("submitted", "j0001")
        log.emit("admitted", "j0001")
        log.emit("batched", "j0001", batch="b0001")
        # two events crossed the flush threshold; the third is buffered
        assert len(read_events(path)) == 2
        log.flush()
        assert len(read_events(path)) == 3
        log.emit("done", "j0001", batch="b0001")
        log.close()
        assert read_events(path) == log.events

    def test_flush_every_validates(self):
        with pytest.raises(ValueError):
            EventLog(flush_every=0)

    def test_as_dict_omits_empty_fields(self):
        record = JobEvent(kind="submitted", job_id="j0001", ts=1.0).as_dict()
        assert record == {"kind": "submitted", "job_id": "j0001", "ts": 1.0}


class _Events:
    """The event log under the shared append-log contract."""

    @staticmethod
    def open(path, fsync="batch", flush_every=32):
        return EventLog(path, clock=_Clock(), flush_every=flush_every, fsync=fsync)

    @staticmethod
    def write(log):
        log.emit("submitted", "j0001")

    @staticmethod
    def count(path):
        return len(read_events(path))


class _Journal:
    """The job journal under the same contract."""

    @staticmethod
    def open(path, fsync="batch", flush_every=1):
        # The journal's flush cadence is fixed at one record.
        return JobJournal(path, fsync=fsync, clock=_Clock())

    @staticmethod
    def write(log):
        log.append("submit", job=f"j{log.seq + 1:04d}")

    @staticmethod
    def count(path):
        return len(read_journal(path)[0])


class TestDurability:
    """The append-log contract; :class:`TestJournalDurability` reruns
    every check with the journal as the log."""

    log = _Events

    def test_fsync_always_lands_every_event(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = self.log.open(path, flush_every=100, fsync="always")
        self.log.write(log)
        # No close, no flush: the line must already be on disk.
        assert self.log.count(path) == 1
        self.log.write(log)
        assert self.log.count(path) == 2
        log.close()

    def test_fsync_never_skips_periodic_flushes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = self.log.open(path, flush_every=1, fsync="never")
        for _ in range(8):
            self.log.write(log)
        # flush_every is ignored under "never"; only close flushes.
        assert self.log.count(path) < 8 or path.stat().st_size == 0
        log.close()
        assert self.log.count(path) == 8

    def test_fsync_validates(self, tmp_path):
        with pytest.raises(ValueError):
            self.log.open(tmp_path / "log.jsonl", fsync="sometimes")

    def test_atexit_hook_registered_and_removed(self, tmp_path):
        registered = []
        log = self.log.open(tmp_path / "log.jsonl")
        real_register = atexit.register
        real_unregister = atexit.unregister
        atexit.register = lambda fn: registered.append(fn) or fn
        atexit.unregister = lambda fn: registered.remove(fn)
        try:
            self.log.write(log)
            assert registered == [log.close]
            log.close()
            assert registered == []
        finally:
            atexit.register = real_register
            atexit.unregister = real_unregister

    def test_close_is_idempotent(self, tmp_path):
        log = self.log.open(tmp_path / "log.jsonl")
        self.log.write(log)
        log.close()
        log.close()  # second close (e.g. atexit after shutdown) is a no-op


class TestJournalDurability(TestDurability):
    log = _Journal


def test_line_bytes_are_pinned(tmp_path):
    """Both logs' on-disk lines, byte for byte, under a fixed clock."""
    with EventLog(tmp_path / "events.jsonl", clock=lambda: 1.5) as log:
        log.emit("submitted", "j0001", fingerprint="ab12", queue_depth=0)
        log.emit("batched", "j0001", batch="b0001", queue_depth=0, batch_jobs=2)
        log.emit("done", "j0001", batch="b0001", completion_round=7)
    with JobJournal(tmp_path / "journal.jsonl", clock=lambda: 1.5) as journal:
        journal.append(
            "submit",
            job="j0001",
            fingerprint="ab12",
            payload={"net": "ring:6", "algo": "bfs:source=0,hops=2"},
        )
        journal.append("batch", batch="b0001", jobs=["j0001"])
        journal.append("done", job="j0001", from_registry=False)
    assert (tmp_path / "events.jsonl").read_text().splitlines() == [
        '{"kind":"submitted","job_id":"j0001","ts":1.5,"fingerprint":"ab12",'
        '"queue_depth":0}',
        '{"kind":"batched","job_id":"j0001","ts":1.5,"batch":"b0001",'
        '"queue_depth":0,"attrs":{"batch_jobs":2}}',
        '{"kind":"done","job_id":"j0001","ts":1.5,"batch":"b0001",'
        '"attrs":{"completion_round":7}}',
    ]
    assert (tmp_path / "journal.jsonl").read_text().splitlines() == [
        '{"crc":"3051c6d3","fingerprint":"ab12","job":"j0001","kind":"submit",'
        '"payload":{"algo":"bfs:source=0,hops=2","net":"ring:6"},"seq":1,'
        '"ts":1.5}',
        '{"batch":"b0001","crc":"2eedb73a","jobs":["j0001"],"kind":"batch",'
        '"seq":2,"ts":1.5}',
        '{"crc":"f88ff136","from_registry":false,"job":"j0001","kind":"done",'
        '"seq":3,"ts":1.5}',
    ]


class TestLatencyStats:
    def _event(self, kind, job_id, ts, **kwargs):
        return JobEvent(kind=kind, job_id=job_id, ts=ts, **kwargs)

    def test_queue_and_e2e_latency(self):
        events = [
            self._event("submitted", "j0001", 0.0),
            self._event("submitted", "j0002", 1.0),
            self._event("batched", "j0001", 2.0, batch="b0001"),
            self._event("batched", "j0002", 2.0, batch="b0001"),
            self._event("done", "j0001", 10.0, batch="b0001"),
            self._event("failed", "j0002", 10.0, batch="b0001"),
        ]
        stats = latency_stats(events)
        assert stats["completed"] == 1
        assert stats["failed"] == 1
        assert stats["events"] == 6
        assert stats["window_s"] == pytest.approx(10.0)
        assert stats["jobs_per_sec"] == pytest.approx(0.1)
        queue = stats["queue_latency_s"]
        assert queue["count"] == 2
        assert queue["min"] == pytest.approx(1.0)
        assert queue["max"] == pytest.approx(2.0)
        e2e = stats["e2e_latency_s"]
        assert e2e["count"] == 2
        assert e2e["p50"] <= e2e["p90"] <= e2e["p99"]

    def test_only_first_batched_counts_for_queue_latency(self):
        events = [
            self._event("submitted", "j0001", 0.0),
            self._event("batched", "j0001", 1.0, batch="b0001"),
            self._event("retried", "j0001", 5.0, batch="b0001"),
            self._event("batched", "j0001", 9.0, batch="b0002"),
            self._event("done", "j0001", 10.0, batch="b0002"),
        ]
        stats = latency_stats(events)
        assert stats["queue_latency_s"]["count"] == 1
        assert stats["queue_latency_s"]["max"] == pytest.approx(1.0)

    def test_registry_hits_skip_queue_latency(self):
        events = [
            self._event("submitted", "j0001", 0.0),
            self._event("done", "j0001", 0.5, attrs={"from_registry": True}),
        ]
        stats = latency_stats(events)
        assert stats["queue_latency_s"]["count"] == 0
        assert stats["e2e_latency_s"]["count"] == 1
        assert stats["completed"] == 1

    def test_empty_stream(self):
        stats = latency_stats([])
        assert stats["events"] == 0
        assert stats["jobs_per_sec"] == 0.0
        assert stats["queue_latency_s"]["count"] == 0

    def test_quarantined_and_rejected_are_terminal(self):
        """Regression: every TERMINAL_KINDS member closes the lifecycle.

        ``latency_stats`` used to recognise only done/failed, so a
        stream ending in ``quarantined`` (or ``rejected``) left the job
        out of the e2e histogram and — worse — out of the observed
        window, inflating ``jobs_per_sec``.
        """
        events = [
            self._event("submitted", "j0001", 0.0),
            self._event("submitted", "j0002", 0.0),
            self._event("submitted", "j0003", 1.0),
            self._event("rejected", "j0003", 1.5),
            self._event("batched", "j0001", 2.0, batch="b0001"),
            self._event("batched", "j0002", 2.0, batch="b0001"),
            self._event("done", "j0001", 4.0, batch="b0001"),
            # the stream's *last* event is a quarantine
            self._event("quarantined", "j0002", 20.0),
        ]
        stats = latency_stats(events)
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        assert stats["quarantined"] == 1
        assert stats["rejected"] == 1
        # all three jobs closed an e2e latency ...
        assert stats["e2e_latency_s"]["count"] == 3
        assert stats["e2e_latency_s"]["max"] == pytest.approx(20.0)
        # ... and the window runs to the final terminal event
        assert stats["window_s"] == pytest.approx(20.0)
        assert stats["jobs_per_sec"] == pytest.approx(1 / 20.0)

    def test_completion_rounds_exact_and_mergeable(self):
        rounds = [40, 10, 30, 10, 20, 50, 10, 60, 30, 90]
        events = [
            self._event("done", f"j{i:04d}", 1.0, attrs={"completion_round": r})
            for i, r in enumerate(rounds)
        ]
        # registry hits and failures carry no completion round
        events.append(self._event("done", "j0100", 1.0, attrs={"from_registry": True}))
        events.append(self._event("failed", "j0101", 1.0))
        whole = LatencyAccumulator.from_events(events).completion_stats()
        assert whole == {"count": 10, "mean": 35.0, "p50": 30, "p90": 60}
        merged = LatencyAccumulator.from_events(events[:4])
        merged.merge(LatencyAccumulator.from_events(events[4:]))
        assert merged.completion_stats() == whole
        assert LatencyAccumulator().completion_stats() == {
            "count": 0, "mean": 0.0, "p50": 0, "p90": 0
        }


def _events(service):
    """The event log of the one shard of a one-network service."""
    (shard,) = service.shards.values()
    return shard.events


class TestServiceIntegration:
    def _serve(self, **kwargs):
        network = topology.grid_graph(4, 4)
        service = SchedulerService(
            batch_size=2, solo_cache=SoloRunCache(), **kwargs
        )
        service.submit_many(
            network, [BFS(0, hops=3), BFS(5, hops=3), BFS(10, hops=3)]
        )
        service.shutdown(drain=True)
        return service

    def test_lifecycle_events_emitted_in_order(self, tmp_path):
        service = self._serve(directory=tmp_path)
        log = _events(service)
        path = log.path
        kinds = [e.kind for e in log.events]
        assert kinds.count("submitted") == 3
        assert kinds.count("admitted") == 3
        assert kinds.count("batched") == 3
        assert kinds.count("done") == 3
        for job_id in ("j0001", "j0002", "j0003"):
            job_kinds = [
                e.kind for e in log.events if e.job_id == job_id
            ]
            assert job_kinds == ["submitted", "admitted", "batched", "done"]
        # the spool file holds the exact same stream
        assert read_events(path) == log.events

    def test_stats_latency_block(self):
        service = self._serve()
        stats = service.stats()
        latency = stats["latency"]
        assert latency["completed"] == 3
        assert latency["e2e_latency_s"]["count"] == 3
        assert (
            latency["e2e_latency_s"]["p50"]
            <= latency["e2e_latency_s"]["p99"]
        )
        assert latency["jobs_per_sec"] > 0
        assert stats["events"] == len(_events(service))

    def test_registry_hit_emits_done_with_marker(self):
        network = topology.grid_graph(4, 4)
        service = SchedulerService(batch_size=2, solo_cache=SoloRunCache())
        service.submit(network, BFS(0, hops=3))
        service.drain()
        job = service.submit(network, BFS(0, hops=3))
        assert job.result.from_registry
        hit = _events(service).events[-1]
        assert hit.kind == "done"
        assert hit.attrs.get("from_registry") is True

    def test_events_none_disables_everything(self):
        service = self._serve(events=None)
        assert _events(service) is None
        stats = service.stats()
        assert stats["latency"] is None
        assert stats["events"] == 0

    def test_invalid_events_argument(self):
        with pytest.raises(ValueError):
            SchedulerService(events="not-a-mode")

    def test_quarantined_last_job_closes_latency_window(self, tmp_path):
        """Regression: a serve whose *last* job is quarantined.

        The poison job's ``quarantined`` event is the final event of the
        stream; it must close that job's e2e latency and extend the
        throughput window (the pre-fix replay ignored it entirely, so
        the window ended at the previous ``done`` and the quarantined
        job simply vanished from the stats).
        """
        from repro.faults import InjectedCrash, armed, disarm
        from repro.service import JobState

        network = topology.grid_graph(4, 4)
        disarm()
        try:
            attempts = 0
            while attempts < 2:
                service = SchedulerService.recover(
                    directory=tmp_path,
                    poison_threshold=2,
                    solo_cache=SoloRunCache(),
                )
                if not service.jobs():
                    service.submit(network, BFS(0, hops=3))
                try:
                    with armed("batch.post_journal", hit=1):
                        service.drain()
                except InjectedCrash:
                    attempts += 1
        finally:
            disarm()

        recovered = SchedulerService.recover(
            directory=tmp_path,
            poison_threshold=2,
            solo_cache=SoloRunCache(),
        )
        [job] = recovered.jobs()
        assert job.state is JobState.QUARANTINED
        events = _events(recovered).events
        assert events[-1].kind == "quarantined"

        stats = latency_stats(events)
        assert stats["quarantined"] == 1
        assert stats["completed"] == 0
        latency = recovered.stats()["latency"]
        assert latency["quarantined"] == 1
        recovered.shutdown(drain=False)
