"""The service CLI: submit spools, serve drains, status reports."""

import json

import pytest

from repro.__main__ import main
from repro.service import parse_scheduler
from repro.service.framing import frame
from repro.service.specs import SCHEDULER_KINDS
from repro.service.spool import SPOOL_LOG, SpoolReader


def _spooled(base):
    return [line.key for line in SpoolReader(base).read_new()]


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        code, out = _run(capsys, "--version")
        assert code == 0
        assert out.strip() == f"repro {repro.__version__}"

    @pytest.mark.parametrize("flag", ["-V", "version"])
    def test_aliases(self, capsys, flag):
        code, out = _run(capsys, flag)
        assert code == 0 and out.startswith("repro ")


class TestSubmit:
    def test_submit_spools_a_record(self, tmp_path, capsys):
        code, out = _run(
            capsys,
            "submit",
            "--dir", str(tmp_path),
            "--net", "grid:4x4",
            "--algo", "bfs:source=0,hops=3",
        )
        assert code == 0 and "spooled s0001" in out
        record = {
            "id": "s0001",
            "net": "grid:4x4",
            "algo": "bfs:source=0,hops=3",
            "seed": 0,
        }
        log = (tmp_path / SPOOL_LOG).read_text()
        assert log == frame(record) + "\n"
        assert [line.record for line in SpoolReader(tmp_path).read_new()] == [
            record
        ]

    def test_submit_count_allocates_sequential_ids(self, tmp_path, capsys):
        _run(
            capsys,
            "submit", "--dir", str(tmp_path),
            "--net", "path:6", "--algo", "bfs:source=0,hops=2",
            "--count", "3",
        )
        assert _spooled(tmp_path) == ["s0001", "s0002", "s0003"]

    def test_bad_spec_rejected_before_spooling(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            main([
                "submit", "--dir", str(tmp_path),
                "--net", "blob:9", "--algo", "bfs:source=0,hops=2",
            ])
        assert not (tmp_path / SPOOL_LOG).exists()


class TestServeAndStatus:
    def _spool(self, capsys, tmp_path, algo, count=1):
        _run(
            capsys,
            "submit", "--dir", str(tmp_path),
            "--net", "grid:4x4", "--algo", algo,
            "--count", str(count),
        )

    def test_serve_drains_and_status_reports_done(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, "bfs:source=0,hops=3", count=3)
        self._spool(capsys, tmp_path, "broadcast:source=5,token=42,hops=3")

        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0
        assert "4 done / 0 failed" in out
        assert "in 1 batches" in out  # all four jobs share one network
        # the log is left as written; results persist in state.json
        assert _spooled(tmp_path) == ["s0001", "s0002", "s0003", "s0004"]
        state = json.loads((tmp_path / "state.json").read_text())
        assert set(state["jobs"]) == {"s0001", "s0002", "s0003", "s0004"}
        assert all(e["state"] == "done" for e in state["jobs"].values())

        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert code == 0
        assert out.count("done") >= 4

        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--job", "s0002")
        assert code == 0 and "state: done" in out

    def test_status_lists_spool_ids_in_number_order(self, tmp_path, capsys):
        state = {
            "jobs": {
                key: {"state": "done", "algo": "bfs:source=0,hops=1"}
                for key in ("s10000", "s9999", "s10001")
            }
        }
        (tmp_path / "state.json").write_text(json.dumps(state))
        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert code == 0
        rows = [line.split()[0] for line in out.splitlines() if line.startswith("s")]
        assert rows == ["s9999", "s10000", "s10001"]

    def test_resubmitted_spec_served_from_registry(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, "bfs:source=1,hops=3")
        _run(capsys, "serve", "--dir", str(tmp_path))

        # same spec again, fresh process-equivalent service: disk registry hit
        self._spool(capsys, tmp_path, "bfs:source=1,hops=3")
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "registry" in out
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["jobs"]["s0002"]["from_registry"] is True
        # ids continued across serve runs instead of clobbering s0001
        assert state["jobs"]["s0001"]["state"] == "done"

    def test_budget_rejection_surfaces_in_status(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, "bfs:source=0,hops=6")
        code, out = _run(
            capsys, "serve", "--dir", str(tmp_path), "--budget", "2"
        )
        assert code == 0 and "rejected" in out
        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert "rejected" in out

    def test_parked_job_freed_by_resume_with_bigger_budget(
        self, tmp_path, capsys
    ):
        """A parked job is re-decided by serve --resume, not stranded."""
        self._spool(capsys, tmp_path, "bfs:source=0,hops=6")
        code, out = _run(
            capsys, "serve", "--dir", str(tmp_path), "--budget", "2", "--park"
        )
        assert code == 0 and "1 parked" in out
        # The parked job is pending in the journal: a plain serve
        # refuses and points at --resume.
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 1 and "--resume" in out
        # Resuming without the tight budget re-runs admission: the job
        # is admitted, drained, and settled like any other.
        code, out = _run(capsys, "serve", "--dir", str(tmp_path), "--resume")
        assert code == 0 and "1 done" in out
        code, out = _run(
            capsys, "status", "--dir", str(tmp_path), "--job", "s0001"
        )
        assert code == 0 and "state: done" in out
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "nothing to serve" in out

    @pytest.mark.parametrize("name", SCHEDULER_KINDS)
    def test_every_scheduler_choice_runs_its_scheduler(
        self, tmp_path, capsys, name
    ):
        self._spool(capsys, tmp_path, "bfs:source=0,hops=2", count=2)
        code, out = _run(
            capsys, "serve", "--dir", str(tmp_path), "--scheduler", name
        )
        assert code == 0 and "2 done" in out
        state = json.loads((tmp_path / "state.json").read_text())
        ran = {entry["scheduler"] for entry in state["jobs"].values()}
        assert ran == {parse_scheduler(name).name}

    def test_serve_empty_spool_is_a_noop(self, tmp_path, capsys):
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "nothing to serve" in out

    def test_status_unknown_job(self, tmp_path, capsys):
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--job", "s0009")
        assert code == 1 and "unknown job" in out

    def test_status_spooled_before_serve(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, "bfs:source=0,hops=2")
        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert code == 0 and "spooled" in out


class TestObservabilityCli:
    """serve persists stats; status --json / --metrics expose them."""

    def _serve(self, capsys, tmp_path, count=3):
        _run(
            capsys,
            "submit", "--dir", str(tmp_path),
            "--net", "grid:4x4", "--algo", "bfs:source=0,hops=3",
            "--count", str(count),
        )
        return _run(capsys, "serve", "--dir", str(tmp_path))

    def test_serve_spools_events_and_reports_latency(self, tmp_path, capsys):
        code, out = self._serve(capsys, tmp_path)
        assert code == 0
        assert "e2e latency p50=" in out and "jobs/s" in out
        # Events spool per shard; one network here means one shard log.
        spools = sorted((tmp_path / "shards").glob("*/events.jsonl"))
        assert len(spools) == 1
        events = spools[0].read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in events]
        assert kinds.count("submitted") == 3
        assert kinds.count("done") == 3

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        self._serve(capsys, tmp_path)
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["jobs"]) == {"s0001", "s0002", "s0003"}
        stats = payload["stats"]
        assert stats["jobs"]["done"] == 3
        latency = stats["latency"]
        assert latency["e2e_latency_s"]["count"] == 3
        assert latency["e2e_latency_s"]["p50"] <= latency["e2e_latency_s"]["p99"]
        assert latency["jobs_per_sec"] > 0

    def test_status_json_before_any_serve(self, tmp_path, capsys):
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["jobs"] == {} and payload["stats"] is None

    def test_status_metrics_prometheus_text(self, tmp_path, capsys):
        self._serve(capsys, tmp_path)
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--metrics")
        assert code == 0
        assert "# TYPE repro_service_jobs_done counter" in out
        assert "repro_service_jobs_done 3" in out
        assert "# TYPE repro_service_e2e_latency_s summary" in out
        assert 'repro_service_e2e_latency_s{quantile="0.99"}' in out
        assert "repro_service_jobs_per_sec" in out

    def test_serve_summary_prints_completion_rounds(self, tmp_path, capsys):
        code, out = self._serve(capsys, tmp_path)
        assert code == 0
        state = json.loads((tmp_path / "state.json").read_text())
        completion = state["stats"]["completion_rounds"]
        assert completion["count"] == 3
        summary = next(line for line in out.splitlines() if " done / " in line)
        assert (
            f"completion rounds mean {completion['mean']:.1f} / "
            f"p90 {completion['p90']};" in summary
        )
        # All from the registry: nothing executed, nothing to report.
        _run(
            capsys,
            "submit", "--dir", str(tmp_path),
            "--net", "grid:4x4", "--algo", "bfs:source=0,hops=3",
        )
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "registry" in out
        assert "completion rounds" not in out

    def test_status_metrics_completion_rounds_summary(self, tmp_path, capsys):
        self._serve(capsys, tmp_path)
        completion = json.loads((tmp_path / "state.json").read_text())["stats"][
            "completion_rounds"
        ]
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--metrics")
        assert code == 0
        assert "# TYPE repro_service_completion_rounds summary" in out
        assert (
            f'repro_service_completion_rounds{{quantile="0.9"}} '
            f"{completion['p90']}\n" in out
        )
        assert "repro_service_completion_rounds_count 3\n" in out
        total = round(completion["mean"] * 3)
        assert f"repro_service_completion_rounds_sum {total}\n" in out

    def test_status_metrics_without_stats(self, tmp_path, capsys):
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--metrics")
        assert code == 1 and "no persisted stats" in out

    def test_metrics_subcommand_reads_state(self, tmp_path, capsys):
        self._serve(capsys, tmp_path)
        code, out = _run(capsys, "metrics", "--dir", str(tmp_path))
        assert code == 0
        assert "repro_service_jobs_done 3" in out

    def test_metrics_subcommand_missing_source(self, tmp_path, capsys):
        code, out = _run(capsys, "metrics", str(tmp_path / "nope.json"))
        assert code == 1 and "no metrics source" in out


class TestCrashRecoveryCli:
    """serve --resume recovers a killed serve from the journal."""

    def _spool(self, capsys, tmp_path, count):
        _run(
            capsys,
            "submit", "--dir", str(tmp_path),
            "--net", "grid:4x4", "--algo", "bfs:source=0,hops=3",
            "--count", str(count),
        )

    def _crash_serve(self, capsys, tmp_path, point, hit=1, *extra):
        """Run serve with a crash point armed in raise mode; swallow it."""
        import os

        from repro.faults import InjectedCrash, disarm
        from repro.faults.crashpoints import CRASH_MODE_ENV, CRASH_POINT_ENV

        disarm()  # reset hit counters left by earlier tests
        os.environ[CRASH_POINT_ENV] = f"{point}:{hit}"
        os.environ[CRASH_MODE_ENV] = "raise"
        try:
            with pytest.raises(InjectedCrash):
                main(["serve", "--dir", str(tmp_path), *extra])
        finally:
            os.environ.pop(CRASH_POINT_ENV, None)
            os.environ.pop(CRASH_MODE_ENV, None)
            disarm()
        capsys.readouterr()

    def test_serve_writes_and_compacts_journal(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, 2)
        code, _ = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0
        journals = sorted((tmp_path / "shards").glob("*/journal.jsonl"))
        assert len(journals) == 1  # one network -> one shard segment
        # a clean serve ends compacted: one checkpoint record
        lines = journals[0].read_text().splitlines()
        assert len(lines) == 1 and '"checkpoint"' in lines[0]

    def test_serve_refuses_dirty_journal_without_resume(
        self, tmp_path, capsys
    ):
        self._spool(capsys, tmp_path, 3)
        self._crash_serve(capsys, tmp_path, "complete.pre_journal", hit=2)
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 1
        assert "--resume" in out and "unfinished" in out

    def test_serve_resume_finishes_the_job(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, 3)
        self._crash_serve(capsys, tmp_path, "batch.post_journal", hit=1)
        code, out = _run(capsys, "serve", "--dir", str(tmp_path), "--resume")
        assert code == 0
        assert "recovered" in out
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["jobs"]["done"] == 3
        assert all(
            entry["state"] == "done" for entry in payload["jobs"].values()
        )
        # terminal jobs are settled on resume, same as a clean serve
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "nothing to serve" in out

    def test_resume_after_acknowledged_completion_hits_registry(
        self, tmp_path, capsys
    ):
        self._spool(capsys, tmp_path, 1)
        # Crash between registry.put and the journal's done record: the
        # completion was acknowledged, resume must not re-execute it.
        self._crash_serve(capsys, tmp_path, "complete.pre_journal", hit=1)
        code, out = _run(capsys, "serve", "--dir", str(tmp_path), "--resume")
        assert code == 0
        state = json.loads((tmp_path / "state.json").read_text())
        entry = state["jobs"]["s0001"]
        assert entry["state"] == "done"
        assert entry["from_registry"] is True

    def test_status_fails_on_quarantined_jobs(self, tmp_path, capsys):
        # Three serves die with the batch journaled; the fourth
        # quarantines both jobs (poison_threshold 3), and status must
        # report that as a failure, as serve does.
        self._spool(capsys, tmp_path, 2)
        self._crash_serve(capsys, tmp_path, "batch.post_journal")
        for _ in range(2):
            self._crash_serve(
                capsys, tmp_path, "batch.post_journal", 1, "--resume"
            )
        code, _ = _run(capsys, "serve", "--dir", str(tmp_path), "--resume")
        assert code == 1
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 1
        states = {e["state"] for e in json.loads(out)["jobs"].values()}
        assert states == {"quarantined"}
        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert code == 1 and "2 job(s) quarantined" in out
        code, _ = _run(capsys, "status", "--dir", str(tmp_path), "--job", "s0001")
        assert code == 1

    def test_resume_without_pending_work_is_clean(self, tmp_path, capsys):
        self._spool(capsys, tmp_path, 1)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        code, out = _run(capsys, "serve", "--dir", str(tmp_path), "--resume")
        assert code == 0 and "nothing to serve" in out

    def test_crashpoints_subcommand_lists_points(self, capsys):
        from repro.service import CRASH_POINTS

        code, out = _run(capsys, "crashpoints")
        assert code == 0
        assert out.split() == list(CRASH_POINTS)

    def test_submit_spool_files_written_atomically(self, tmp_path, capsys):
        # One log, every line whole and framed, no temp debris beside it.
        self._spool(capsys, tmp_path, 3)
        self._spool(capsys, tmp_path, 2)
        assert [p.name for p in tmp_path.iterdir()] == [SPOOL_LOG]
        assert (tmp_path / SPOOL_LOG).read_bytes().endswith(b"\n")
        lines = SpoolReader(tmp_path).read_new()
        assert [line.error for line in lines] == [None] * 5
