"""The CLI front door does work proportional to what is new.

``submit`` allocates ids from the ``spool.seq`` counter (no spool glob,
no ``state.json`` parse once the counter exists), ``serve`` reads each
spool file once and builds one ``Network`` per spec string, a network is
fingerprinted once per object — and one bad spool record is refused
without ending the serve.
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
from repro.service import ServeLoop, parse_network

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


def _spooled(base):
    return sorted(p.stem for p in (Path(base) / "spool").glob("*.json"))


def _count_spool_reads(monkeypatch, base):
    """Count ``Path.read_text`` calls per spool file under ``base``."""
    reads = Counter()
    real = Path.read_text

    def read_text(self, *args, **kwargs):
        if self.parent == Path(base) / "spool":
            reads[self.stem] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    return reads


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
        assert _spooled(base) == [f"s{n:04d}" for n in range(1, 129)]
        for stem in _spooled(base):
            record = json.loads((base / "spool" / f"{stem}.json").read_text())
            assert record["id"] == stem
        # Every worker reported its own contiguous block of 16.
        blocks = sorted(out.split("[")[1].split("]")[0] for out, _err in results)
        assert blocks == [
            f"s{n:04d}..s{n + 15:04d}" for n in range(1, 129, 16)
        ]

    def test_ids_continue_after_serve_emptied_the_spool(self, tmp_path, capsys):
        _submit(capsys, tmp_path, count=3)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        assert _spooled(tmp_path) == []
        assert "spooled s0004" in _submit(capsys, tmp_path)
        # ...and with state.json gone too: the counter alone remembers.
        (tmp_path / "state.json").unlink()
        assert "spooled s0005" in _submit(capsys, tmp_path)

    @pytest.mark.parametrize("counter", [None, b"", b"not a number\n"])
    def test_lost_counter_is_rebuilt_from_spool_and_state(
        self, tmp_path, capsys, counter
    ):
        """A directory from an older version has no ``spool.seq``."""
        _submit(capsys, tmp_path, count=3)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        _submit(capsys, tmp_path)  # s0004 waits in the spool
        seq = tmp_path / "spool.seq"
        seq.unlink()
        if counter is not None:
            seq.write_bytes(counter)
        assert "[s0005..s0006]" in _submit(capsys, tmp_path, count=2)
        assert int(seq.read_text()) == 6
        # state.json alone: s0001..s0003 are served, the spool is empty.
        for path in (tmp_path / "spool").glob("*.json"):
            path.unlink()
        seq.unlink()
        assert "spooled s0004" in _submit(capsys, tmp_path)

    def test_counter_is_one_fixed_width_line_beside_the_spool(
        self, tmp_path, capsys
    ):
        _submit(capsys, tmp_path, count=2)
        first = (tmp_path / "spool.seq").read_bytes()
        _submit(capsys, tmp_path, count=120)
        second = (tmp_path / "spool.seq").read_bytes()
        assert (int(first), int(second)) == (2, 122)
        assert len(first) == len(second) and second.endswith(b"\n")

    def test_warm_submit_reads_no_state_and_globs_no_spool(
        self, tmp_path, capsys, monkeypatch
    ):
        _submit(capsys, tmp_path, count=50)
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        (tmp_path / "spool.seq").unlink()  # as an older version left it

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
        assert calls == {"state": 1, "glob": 1}  # the initialiser, once
        calls.clear()
        assert "spooled s0052" in _submit(capsys, tmp_path)
        assert "[s0053..s0055]" in _submit(capsys, tmp_path, count=3)
        assert calls == {}

    def test_bad_spec_reserves_nothing(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            main(["submit", "--dir", str(tmp_path), "--net", "blob:9",
                  "--algo", ALGO])
        assert not (tmp_path / "spool.seq").exists()


class _StopAfterThreePolls(ServeLoop):
    """The real loop, following, stopped once it has polled three times."""

    def __init__(self, service, poll, **kwargs):
        self.polls = 0

        def counted():
            submitted = poll()
            self.polls += 1
            if self.polls == 3:
                self.request_stop()
            return submitted

        super().__init__(service, poll=counted, **kwargs)


class TestPolling:
    def test_three_polls_read_each_spool_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # Over budget and parked: the records stay in the spool.
        _submit(capsys, tmp_path, net="grid:4x4", algo="bfs:source=0,hops=6",
                count=4)
        monkeypatch.setattr(repro.service, "ServeLoop", _StopAfterThreePolls)
        reads = _count_spool_reads(monkeypatch, tmp_path)
        code, out = _run(
            capsys, "serve", "--dir", str(tmp_path), "--budget", "2", "--park",
            "--follow", "--poll-interval", "0.01",
        )
        assert code == 0 and "4 parked" in out
        assert _spooled(tmp_path) == ["s0001", "s0002", "s0003", "s0004"]
        assert reads == {stem: 1 for stem in _spooled(tmp_path)}

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
        spool = tmp_path / "spool"
        good = json.loads((spool / "s0001.json").read_text())
        (spool / "s0002.json").write_text("{not json")
        (spool / "s0003.json").write_text(
            json.dumps({"id": "s0003", "net": "ring:6"})
        )
        (spool / "s0004.json").write_text(
            json.dumps({**good, "id": "s0004", "net": "blob:9"})
        )
        (spool / "s0005.json").write_text(
            json.dumps({**good, "id": "s0005", "algo": "bfs:sauce=0"})
        )
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "2 done" in out and "4 rejected" in out
        assert _spooled(tmp_path) == []
        jobs = json.loads((tmp_path / "state.json").read_text())["jobs"]
        assert [jobs[s]["state"] for s in ("s0001", "s0006")] == ["done"] * 2
        for stem, fragment in [
            ("s0002", "Expecting property name"),
            ("s0003", "lacks algo"),
            ("s0004", "unknown network kind 'blob'"),
            ("s0005", "unknown field 'sauce'"),
        ]:
            assert jobs[stem]["state"] == "rejected"
            assert fragment in jobs[stem]["reason"]
            assert any(
                stem in line and "rejected" in line for line in out.splitlines()
            )
        code, out = _run(capsys, "status", "--dir", str(tmp_path))
        assert code == 0 and out.count("rejected") == 4
        # The ids of refused records are not handed out again.
        assert "spooled s0007" in _submit(capsys, tmp_path)

    def test_record_named_for_another_id_is_rejected(self, tmp_path, capsys):
        _submit(capsys, tmp_path, count=2)
        spool = tmp_path / "spool"
        (spool / "s0002.json").write_text((spool / "s0001.json").read_text())
        assert _run(capsys, "serve", "--dir", str(tmp_path))[0] == 0
        jobs = json.loads((tmp_path / "state.json").read_text())["jobs"]
        assert jobs["s0001"]["state"] == "done"
        assert jobs["s0002"]["state"] == "rejected"
        assert "does not match its file name" in jobs["s0002"]["reason"]

    def test_vanished_record_is_skipped_and_retried(
        self, tmp_path, capsys, monkeypatch
    ):
        _submit(capsys, tmp_path, count=3)
        real = Path.read_text
        missed = []

        def read_text(self, *args, **kwargs):
            if self.name == "s0002.json" and not missed:
                missed.append(self)
                raise FileNotFoundError(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        # status tolerates the same race in its own spool scan...
        code, out = _run(capsys, "status", "--dir", str(tmp_path), "--json")
        assert code == 0 and sorted(json.loads(out)["jobs"]) == ["s0001", "s0003"]
        # ...and serve picks the record up on its next poll.
        missed.clear()
        code, out = _run(capsys, "serve", "--dir", str(tmp_path))
        assert code == 0 and "3 done" in out and missed


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
