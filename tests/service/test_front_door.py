"""The CLI front door does work proportional to what is new.

``submit`` appends its jobs to one CRC-framed log, ``spool.jsonl``,
with one ``write`` and one ``fsync`` under a lock, numbering them after
the log's last id (no ``state.json`` parse once the log exists).
``serve`` reads each byte of the log once and builds one ``Network`` per
spec string, a network is fingerprinted once per object, and one bad
spool line is refused without ending the serve.
"""

import json
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import repro.__main__ as cli
import repro.service
from repro._util import stable_digest
from repro.__main__ import main
from repro.fuzz.scenario import TOPOLOGY_KINDS, ScenarioGenerator
from repro.parallel.cache import network_fingerprint
from repro.service import ServeLoop, parse_network, spool
from repro.service.framing import frame
from repro.service.spool import SPOOL_LOG, SpoolReader

ALGO = "bfs:source=0,hops=2"


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _submit(capsys, base, net="ring:6", algo=ALGO, count=1):
    code, out = _run(
        capsys, "submit", "--dir", str(base), "--net", net, "--algo", algo,
        "--count", str(count),
    )
    assert code == 0
    return out


def _lines(base):
    return (Path(base) / SPOOL_LOG).read_bytes().splitlines(keepends=True)


def _spooled(base):
    """The ids of the log's servable lines, in log order."""
    lines = SpoolReader(base).read_new()
    assert all(line.error is None for line in lines)
    return [line.key for line in lines]


def _jobs(base):
    return json.loads((Path(base) / "state.json").read_text())["jobs"]


def _replace_line(base, index, new):
    lines = _lines(base)
    lines[index] = new
    (Path(base) / SPOOL_LOG).write_bytes(b"".join(lines))


def _offset(base, index):
    return sum(len(line) for line in _lines(base)[:index])


# A submit that waits at a gate, so all the workers allocate at once.
_GATED_SUBMIT = """
import sys, time
from pathlib import Path
from repro.__main__ import main
gate, index = Path(sys.argv[1]), sys.argv[2]
(gate / f"ready-{index}").touch()
deadline = time.monotonic() + 60
while not (gate / "go").exists():
    if time.monotonic() > deadline:
        sys.exit("the gate never opened")
    time.sleep(0.001)
sys.exit(main(sys.argv[3:]))
"""


class TestAllocation:
    @pytest.mark.slow
    def test_concurrent_submits_never_share_an_id(self, tmp_path):
        base, gate = tmp_path / "svc", tmp_path / "gate"
        gate.mkdir()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _GATED_SUBMIT, str(gate), str(index),
                    "submit", "--dir", str(base), "--net", "ring:6",
                    "--algo", ALGO, "--count", "16",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env,
            )
            for index in range(8)
        ]
        try:
            deadline = time.monotonic() + 60
            while len(list(gate.glob("ready-*"))) < len(workers):
                assert time.monotonic() < deadline, "workers never got ready"
                assert all(w.poll() is None for w in workers)
                time.sleep(0.01)
            (gate / "go").touch()
            results = [w.communicate(timeout=60) for w in workers]
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.communicate()
        assert [w.returncode for w in workers] == [0] * 8, results
        # 128 framed lines, ids distinct and consecutive in log order.
        assert _spooled(base) == [f"s{n:04d}" for n in range(1, 129)]
        assert sorted(os.listdir(base)) == [SPOOL_LOG]
        # Every worker reported its own contiguous block of 16.
        blocks = sorted(out.split("[")[1].split("]")[0] for out, _err in results)
        assert blocks == [
            f"s{n:04d}..s{n + 15:04d}" for n in range(1, 129, 16)
        ]

    def test_ids_continue_after_serve_and_after_the_log_is_deleted(
        self, tmp_path, capsys
    ):
        _submit(capsys, tmp_path, count=3)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        assert _spooled(tmp_path) == ["s0001", "s0002", "s0003"]  # kept
        assert "spooled s0004" in _submit(capsys, tmp_path)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        # With the log gone, ids start after state.json's highest...
        (tmp_path / SPOOL_LOG).unlink()
        assert "spooled s0005" in _submit(capsys, tmp_path)
        # ...and with state.json gone too, the log alone remembers.
        (tmp_path / "state.json").unlink()
        assert "spooled s0006" in _submit(capsys, tmp_path)

    @pytest.mark.parametrize("counter", [None, b"", b"not a number\n"])
    def test_lost_counter_is_rebuilt_from_spool_and_state(
        self, tmp_path, capsys, counter
    ):
        """The log's last id is the counter; a log without one falls back
        to ``state.json``, and an id-less tail line is read past."""
        _submit(capsys, tmp_path, count=3)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        log = tmp_path / SPOOL_LOG
        log.unlink()
        if counter is not None:
            log.write_bytes(counter)
        assert "[s0004..s0005]" in _submit(capsys, tmp_path, count=2)
        with log.open("ab") as fh:
            fh.write(b'["no id here"]\n')
        assert "spooled s0006" in _submit(capsys, tmp_path)

    def test_submit_appends_one_framed_line_per_job(self, tmp_path, capsys):
        _submit(capsys, tmp_path, count=2)
        _submit(capsys, tmp_path, count=120)
        expected = [
            (frame({"algo": ALGO, "id": f"s{n:04d}", "net": "ring:6",
                     "seed": 0}) + "\n").encode()
            for n in range(1, 123)
        ]
        assert _lines(tmp_path) == expected
        assert sorted(os.listdir(tmp_path)) == [SPOOL_LOG]

    def test_one_fsync_per_submit_and_no_file_per_job(
        self, tmp_path, capsys, monkeypatch
    ):
        events = []
        real_fsync = os.fsync

        def fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def no_rename(*args, **kwargs):
            raise AssertionError("submit renamed a file")

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", no_rename)
        monkeypatch.setattr(os, "rename", no_rename)
        monkeypatch.setattr(
            cli, "print", lambda *a, **k: events.append("print"), raising=False
        )
        # Creating the log also fsyncs its directory entry, once.
        _submit(capsys, tmp_path, count=4)
        assert events == ["fsync", "fsync", "print"]
        for count in (1, 5, 1):
            events.clear()
            _submit(capsys, tmp_path, count=count)
            assert events == ["fsync", "print"]
        assert sorted(os.listdir(tmp_path)) == [SPOOL_LOG]
        assert len(_spooled(tmp_path)) == 11

    def test_warm_submit_reads_no_state_and_globs_no_spool(
        self, tmp_path, capsys, monkeypatch
    ):
        _submit(capsys, tmp_path, count=50)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        (tmp_path / SPOOL_LOG).unlink()  # lost: state.json seeds the ids

        calls = Counter()
        real_read_state, real_glob = cli._read_state, Path.glob

        def read_state(base):
            calls["state"] += 1
            return real_read_state(base)

        def glob(self, pattern):
            calls["glob"] += 1
            return real_glob(self, pattern)

        monkeypatch.setattr(cli, "_read_state", read_state)
        monkeypatch.setattr(Path, "glob", glob)
        assert "spooled s0051" in _submit(capsys, tmp_path)
        assert calls == {"state": 1}  # the initialiser, once
        calls.clear()
        assert "spooled s0052" in _submit(capsys, tmp_path)
        assert "[s0053..s0055]" in _submit(capsys, tmp_path, count=3)
        assert calls == {}

    def test_bad_spec_reserves_nothing(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            main(["submit", "--dir", str(tmp_path), "--net", "blob:9",
                  "--algo", ALGO])
        assert not (tmp_path / SPOOL_LOG).exists()

    def test_torn_tail_is_repaired_by_the_next_submit(self, tmp_path, capsys):
        _submit(capsys, tmp_path, count=2)
        # A submit killed mid-write: half a record, no newline.
        with (tmp_path / SPOOL_LOG).open("ab") as fh:
            fh.write(b'{"algo":"bfs:source=0,hops=2","crc":"0","id":"s00')
        assert "[s0003..s0004]" in _submit(capsys, tmp_path, count=2)
        assert _spooled(tmp_path) == ["s0001", "s0002", "s0003", "s0004"]
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "4 done" in out and "0 rejected" in out
        assert [e["state"] for e in _jobs(tmp_path).values()] == ["done"] * 4

    @pytest.mark.parametrize(
        "leftover", ["spool.seq", "spool/s0001.json"], ids=["seq", "file"]
    )
    def test_old_layout_is_refused(self, tmp_path, capsys, leftover):
        path = tmp_path / leftover
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("1\n")
        for argv in (
            ["submit", "--dir", str(tmp_path), "--net", "ring:6", "--algo", ALGO],
            ["serve", "--dir", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            message = str(exc.value)
            assert message.startswith(argv[0] + ":")
            assert str(tmp_path / leftover.replace("s0001.json", "*.json")) in message
        assert not (tmp_path / SPOOL_LOG).exists()


class _StopAfterThreePolls(ServeLoop):
    """The real loop, following, stopped once it has polled three times.

    Between polls another submit appends to the log, so each poll has
    new lines to read.
    """

    directory = None

    def __init__(self, service, poll, **kwargs):
        self.polls = 0

        def counted():
            submitted = poll()
            self.polls += 1
            if self.polls < 3:
                spool.append(
                    self.directory,
                    {"net": "grid:4x4", "algo": "bfs:source=0,hops=6"},
                    2,
                    last_id=lambda: 0,
                )
            else:
                self.request_stop()
            return submitted

        super().__init__(service, poll=counted, **kwargs)


class TestPolling:
    def test_three_polls_read_each_spool_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # Over budget and parked: the records stay unsettled.
        _submit(capsys, tmp_path, net="grid:4x4", algo="bfs:source=0,hops=6",
                count=4)
        monkeypatch.setattr(_StopAfterThreePolls, "directory", tmp_path)
        monkeypatch.setattr(repro.service, "ServeLoop", _StopAfterThreePolls)
        parsed, read = Counter(), []
        real_parse, real_read = SpoolReader._parse, SpoolReader.read_new

        def parse(self, raw, offset, settled):
            parsed[offset] += 1
            return real_parse(self, raw, offset, settled)

        def read_new(self, settled=frozenset()):
            start = self.offset
            lines = real_read(self, settled)
            read.append((start, self.offset))
            return lines

        monkeypatch.setattr(SpoolReader, "_parse", parse)
        monkeypatch.setattr(SpoolReader, "read_new", read_new)
        code, out = _run(
            capsys, "serve", "--dir", str(tmp_path), "--budget", "2", "--park",
            "--follow", "--poll-interval", "0.01",
        )
        assert code == 0 and "8 parked" in out
        # Every line parsed once, every byte read once, in order.
        assert sorted(parsed) == [_offset(tmp_path, i) for i in range(8)]
        assert set(parsed.values()) == {1}
        size = (tmp_path / SPOOL_LOG).stat().st_size
        assert read[0][0] == 0 and read[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(read, read[1:]))
        ids = [f"s{n:04d}" for n in range(1, 9)]
        assert _spooled(tmp_path) == ids
        assert [_jobs(tmp_path)[i]["state"] for i in ids] == ["parked"] * 8

    def test_one_network_per_spec(self, tmp_path, capsys, monkeypatch):
        for net in ("ring:6", "grid:3x3"):
            _submit(capsys, tmp_path, net=net, count=10)
        built = []

        def counting(spec):
            built.append(spec)
            return parse_network(spec)

        monkeypatch.setattr(repro.service, "parse_network", counting)
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "20 done" in out
        assert sorted(built) == ["grid:3x3", "ring:6"]


class TestBadSpoolRecords:
    def test_bad_records_are_rejected_and_the_rest_served(
        self, tmp_path, capsys
    ):
        _submit(capsys, tmp_path, count=6)
        good = {"net": "ring:6", "algo": ALGO, "seed": 0}
        torn_at = _offset(tmp_path, 1)
        _replace_line(tmp_path, 1, b"{not json\n")
        _replace_line(
            tmp_path, 2, (frame({"id": "s0003", "net": "ring:6"}) + "\n").encode()
        )
        _replace_line(
            tmp_path, 3,
            (frame({**good, "id": "s0004", "net": "blob:9"}) + "\n").encode(),
        )
        _replace_line(
            tmp_path, 4,
            (frame({**good, "id": "s0005", "algo": "bfs:sauce=0"}) + "\n").encode(),
        )
        unframed = (f"spool@{torn_at}", "Expecting property name")
        # status lists what it cannot frame or parse, and never raises;
        # bad specs are serve's to find.
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 0
        listed = json.loads(out)["jobs"]
        assert {key: entry["state"] for key, entry in listed.items()} == {
            "s0001": "spooled", unframed[0]: "rejected", "s0003": "rejected",
            "s0004": "spooled", "s0005": "spooled", "s0006": "spooled",
        }
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "2 done" in out and "4 rejected" in out
        jobs = _jobs(tmp_path)
        assert [jobs[s]["state"] for s in ("s0001", "s0006")] == ["done"] * 2
        for key, fragment in [
            unframed,
            ("s0003", "lacks algo"),
            ("s0004", "unknown network kind 'blob'"),
            ("s0005", "unknown field 'sauce'"),
        ]:
            assert jobs[key]["state"] == "rejected"
            assert fragment in jobs[key]["reason"]
            assert any(
                key in line and "rejected" in line for line in out.splitlines()
            )
        assert listed[unframed[0]]["reason"] == jobs[unframed[0]]["reason"]
        assert listed["s0003"]["reason"] == jobs["s0003"]["reason"]
        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert code == 0 and out.count("rejected") == 4
        # Settled: the next serve finds nothing new.
        assert "nothing to serve" in _run(capsys, "serve", "--dir", str(tmp_path))[1]
        # The ids of refused records are not handed out again.
        assert "spooled s0007" in _submit(capsys, tmp_path)

    def test_crc_mismatch_line_is_rejected_and_the_rest_served(
        self, tmp_path, capsys
    ):
        _submit(capsys, tmp_path, count=3)
        # Bit-rot that still parses: the CRC is what catches it.
        _replace_line(
            tmp_path, 1, _lines(tmp_path)[1].replace(b"hops=2", b"hops=9")
        )
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "2 done" in out and "1 rejected" in out
        jobs = _jobs(tmp_path)
        assert jobs["s0002"] == {"state": "rejected", "reason": "CRC mismatch"}
        assert [jobs[s]["state"] for s in ("s0001", "s0003")] == ["done"] * 2

    def test_record_named_for_another_id_is_rejected(self, tmp_path, capsys):
        _submit(capsys, tmp_path, count=2)
        _replace_line(tmp_path, 1, _lines(tmp_path)[0])
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        jobs = _jobs(tmp_path)
        assert jobs["s0001"]["state"] == "done"
        repeat = jobs[f"spool@{_offset(tmp_path, 1)}"]
        assert repeat["state"] == "rejected"
        assert "'s0001' is already taken" in repeat["reason"]
        assert "s0002" not in jobs

    def test_unterminated_tail_is_skipped_and_retried(self, tmp_path, capsys):
        _submit(capsys, tmp_path, count=3)
        record = (
            frame({"algo": ALGO, "id": "s0004", "net": "ring:6", "seed": 0})
            + "\n"
        ).encode()
        log = tmp_path / SPOOL_LOG
        with log.open("ab") as fh:
            fh.write(record[:20])  # a submit still writing
        # status does not list a line that is not written yet...
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 0
        assert sorted(json.loads(out)["jobs"]) == ["s0001", "s0002", "s0003"]
        # ...nor does serve record it.
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "3 done" in out
        assert sorted(_jobs(tmp_path)) == ["s0001", "s0002", "s0003"]
        # Once the write completes, the next serve picks it up.
        with log.open("ab") as fh:
            fh.write(record[20:])
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "1 done" in out
        assert _jobs(tmp_path)["s0004"]["state"] == "done"


class TestFingerprintMemo:
    @pytest.mark.parametrize("index", range(len(TOPOLOGY_KINDS)))
    def test_memo_equals_the_digest_and_is_not_pickled(self, index):
        network = parse_network(ScenarioGenerator(0).generate(index).network)
        plain = stable_digest("network", network.num_nodes, network.edges).hex()
        before = pickle.dumps(network)
        assert network_fingerprint(network) == plain
        assert network_fingerprint(network) == plain  # the memoised answer
        assert network._fingerprint == plain
        # Process-local: the pickle does not carry it, the copy recomputes.
        assert pickle.dumps(network) == before
        copy = pickle.loads(pickle.dumps(network))
        assert copy._fingerprint is None
        assert network_fingerprint(copy) == plain
