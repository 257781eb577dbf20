"""Tests of the ledger itself: ``pytest benchmarks/perf -q`` (not tier-1).

The span arithmetic is unit-tested on a fake clock; the declarations are
checked against the limits of ``BENCHMARK.json``; and every workload is
run once at its smoke size through ``run.py``, so a renamed metric, a
workload that stops verifying, or a metric printed but not declared
fails here before anyone spends ten minutes measuring.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# span self time
# ---------------------------------------------------------------------------


def test_nested_spans_subtract_direct_children_only():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    with spans.span("rep"):
        clock.now = 1.0
        with spans.span("outer"):
            clock.now = 2.0
            with spans.span("inner"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 10.0
    by_name = {span.name: span for span in spans.spans}
    own = spans.self_times()
    assert by_name["rep"].duration == 10.0
    assert by_name["inner"].parent == by_name["outer"].index
    assert own[by_name["inner"].index] == 3.0
    assert own[by_name["outer"].index] == 2.0  # 5 - inner's 3
    assert own[by_name["rep"].index] == 5.0  # 10 - outer's 5, not - inner


def test_sibling_spans_sum_and_share_a_parent():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    spans.rep = 7
    with spans.span("rep") as root:
        for length in (1.0, 2.0, 4.0):
            with spans.span("layer"):
                clock.now += length
            clock.now += 0.5  # unattributed gap
    assert spans.totals(7) == {"rep": 8.5, "layer": 7.0}
    assert spans.totals(8) == {}
    assert all(s.parent == root.index for s in spans.spans if s.name == "layer")
    assert spans.self_times()[root.index] == 1.5
    assert {span.rep for span in spans.spans} == {7}


def test_zero_length_spans_cost_nothing():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    with spans.span("rep") as root:
        with spans.span("empty"):
            pass
        clock.now = 3.0
    assert spans.spans[1].duration == 0.0
    assert spans.self_times() == [3.0, 0.0]
    assert root.parent is None


def test_trace_file_round_trips(tmp_path):
    clock = FakeClock()
    spans = SpanRecorder(clock)
    with spans.span("rep"):
        with spans.span("layer"):
            clock.now = 2.0
        clock.now = 3.0
    path = tmp_path / "trace.jsonl"
    spans.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"id": 0, "name": "rep", "start": 0.0, "end": 3.0, "parent": None,
         "rep": 0, "self": 1.0},
        {"id": 1, "name": "layer", "start": 0.0, "end": 2.0, "parent": 0,
         "rep": 0, "self": 2.0},
    ]


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


def test_declared_names_and_limits():
    workloads, end_to_end, per_layer = (
        ledger.workloads(), ledger.end_to_end(), ledger.per_layer()
    )
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = list(workloads) + list(end_to_end) + list(per_layer)
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(end_to_end) | set(per_layer)) == len(end_to_end) + len(per_layer)
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"
    assert all(0 < spec["bound"] <= 0.25 for spec in end_to_end.values())
    assert all(len(why) <= 200 for why in workloads.values())


def test_every_per_layer_metric_declares_what_it_moves():
    workloads, end_to_end = ledger.workloads(), ledger.end_to_end()
    assert set(ledger.MOVES) == set(ledger.per_layer())
    for name, (metric, where) in ledger.MOVES.items():
        assert metric in end_to_end, name
        assert where and set(where) <= set(workloads), name


# ---------------------------------------------------------------------------
# every workload once, at smoke size
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "BENCH_smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "1",
         "--seed", "5", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    return done, out


def test_smoke_run_verifies_every_workload(smoke):
    done, out = smoke
    assert done.returncode == 0, done.stdout[-2000:]
    document = json.loads(done.stdout.splitlines()[-1])
    assert document == json.loads(out.read_text())
    assert list(document["workloads"]) == list(ledger.workloads())
    for name, entry in document["workloads"].items():
        assert entry["failures"] == [], name
        assert entry["per_layer"]["failed_frac"]["value"] == 0, name
        assert entry["per_layer"]["bench.unattributed_frac"]["value"] < 0.5, name
        assert all(e["value"] > 0 for e in entry["end_to_end"].values()), name
    assert (out.parent / "trace-serve_cold.jsonl").exists()
    assert not (HERE / ".tmp").exists()  # nothing left behind


def test_names_printed_are_the_names_declared(smoke):
    done, _out = smoke
    printed = {}
    for line in done.stdout.splitlines():
        match = re.fullmatch(r"(\w+)\.(\S+) = \S+ (\S+)", line)
        if match:
            workload, metric, unit = match.groups()
            printed.setdefault(workload, {})[metric] = unit
    declared = {
        name: spec["unit"]
        for name, spec in {**ledger.end_to_end(), **ledger.per_layer()}.items()
    }
    assert set(printed) == set(ledger.workloads())
    for workload, metrics in printed.items():
        assert metrics == declared, workload


def test_contract_line_of_one_pass():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "phase_batch", "--seed", "9", "--seconds", "0.2", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(ledger.end_to_end())
