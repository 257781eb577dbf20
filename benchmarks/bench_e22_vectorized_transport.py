"""E22 — vectorized transport: >=2.5x end-to-end on large grids, bit-identical.

The transport split (PR 8) moved message buffering, trace recording and
load accounting out of the engines and behind the
:class:`~repro.core.Transport` seam, with a numpy struct-of-arrays
backend next to the object-per-message golden reference. This bench
gates the two claims that motivated it:

* **bit-identity** — on the same workload, the numpy backend produces
  exactly the outputs, trace events, load/congestion indices and
  ``max_message_bits`` of the reference backend (asserted on a full
  event-by-event comparison at 48x48, and on every aggregate index at
  the large sizes);
* **end-to-end speedup on large grids** — the full solo pipeline
  (execute + cache serialization round-trip + scheduling-parameter
  measurement, i.e. exactly what the service's solo-cache path does per
  workload) runs **>=2.5x faster** under the numpy backend on a large
  torus grid (asserted). The reference backend's per-message dict and
  Counter updates thrash ever-larger hash tables as the grid grows,
  while the columnar backend appends sequentially and defers index
  construction to vectorized kernels. If the first large size measures
  under the gate, the bench escalates to a larger grid (the claim is
  about large grids, not one magic size).

The gate was set at 5x when the reference transport still sized every
payload once per message, and the lead measured 7.2x at 128x128. Since
payload sizing moved into the sending ``NodeContext`` (one size per
``send`` / ``send_all`` call, whatever the backend), the reference
backend no longer pays that per message, and the lead left is what the
columnar layout alone buys.
Six runs of this bench on one 2-core Intel Xeon box (Python 3.11,
numpy 2.4), before the gate was re-derived:

==========  =====================================
grid        numpy speedup per run
==========  =====================================
64x64       2.98 2.67 2.58 2.67 3.41 3.22
96x96       3.03 3.28 2.98 3.54 3.12 2.63
128x128     3.24 3.09 2.08 3.26 3.41 2.98
160x160     3.31 3.63 3.99 3.56 3.63 3.57
==========  =====================================

A run passes when ``max(ratio at 128x128, ratio at 160x160)`` reaches
``GATE`` (the larger grid is measured only when the first falls short).
The worst such maximum over the six runs is 3.31 (run one, 3.24 and
3.31); ``GATE`` = 2.5 sits about 25 % below it. The one 128x128 ratio
under ``GATE`` (2.08) escalated to 3.99. The margin comes from that one
box; no CI runner was measured.

A phase-engine leg (RandomDelayScheduler on a mid-size torus) is also
compared across backends — outputs asserted identical, speedup reported
and asserted only to be no slower (program stepping, which the
transport split deliberately leaves in Python, dominates that engine).

Timed sections run with the allocator's GC paused and each leg's
results dropped before the next leg runs, so neither leg scans the
other's live objects.
"""

import gc
import pickle
import time

import pytest

from repro.congest import topology
from repro.congest.program import Algorithm, NodeProgram
from repro.congest.simulator import Simulator
from repro.core import RandomDelayScheduler, Workload
from repro.metrics.congestion import measure_params

from conftest import emit

#: End-to-end speedup the large-grid pipeline must reach (derivation in
#: the module docstring).
GATE = 2.5

#: Grid sizes for the scaling table; the gate applies from GATE_SIZE up.
SIZES = (64, 96, 128)
GATE_SIZE = 128

#: Escalation size when the gate size measures below GATE (see module
#: docstring): the claim is retried once on a larger grid.
ESCALATION_SIZE = 160

#: Algorithm rounds per solo run (messages = 4 * rows^2 * ROUNDS).
ROUNDS = 30


class Multicast(Algorithm):
    """Broadcast-heavy straw algorithm: every node floods every round.

    This is the simultaneous-multicast workload shape from the
    motivation (arXiv:2001.00072): maximal traffic per round, trivial
    local computation, so the measured cost is message handling — the
    thing the transport split vectorizes.
    """

    def __init__(self, token: int, rounds: int):
        self.token = token
        self.rounds = rounds

    def make_program(self, node, ctx):
        token, rounds = self.token, self.rounds

        class _Program(NodeProgram):
            def on_start(self, c):
                c.send_all((token, 0))

            def on_round(self, c, inbox):
                if c.round >= rounds:
                    self.halt()
                    return
                c.send_all((token, len(inbox) & 1))

            def output(self):
                return token

        return _Program()

    def max_rounds(self, network):
        return self.rounds + 4


def _pipeline(network, transport):
    """One end-to-end solo pipeline; returns (seconds, run, params).

    Mirrors the service's solo-cache path: execute the algorithm, pickle
    the :class:`SoloRun` (cache store), unpickle it (cache hit), measure
    the scheduling parameters from the deserialized trace.
    """
    sim = Simulator(network, transport=transport)
    algorithm = Multicast(3, ROUNDS)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run = sim.run(algorithm, seed=1)
        blob = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
        cached = pickle.loads(blob)
        params = measure_params([cached])
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, cached, params


def _aggregates(run):
    """Every trace-level index (cheap to compare, derived from all events)."""
    trace = run.trace
    return {
        "outputs": run.outputs,
        "rounds": run.rounds,
        "completion_round": run.completion_round,
        "max_message_bits": run.max_message_bits,
        "num_messages": trace.num_messages,
        "last_round": trace.last_round,
        "directed_loads": trace.directed_loads(),
        "edge_round_counts": trace.edge_round_counts(),
        "max_edge_rounds": trace.max_edge_rounds(),
    }


def _measure_size(rows):
    """Run both backends at one grid size; returns (ratio, row, ok)."""
    network = topology.torus_graph(rows, rows)
    ref_time, ref_run, ref_params = _pipeline(network, "reference")
    ref_agg = _aggregates(ref_run)
    del ref_run
    np_time, np_run, np_params = _pipeline(network, "numpy")
    np_agg = _aggregates(np_run)
    msgs = np_agg["num_messages"]
    del np_run
    gc.collect()

    assert np_params == ref_params
    assert np_agg == ref_agg, f"aggregate indices diverged at {rows}x{rows}"
    ratio = ref_time / np_time
    row = [
        f"{rows}x{rows}",
        msgs,
        f"{ref_time * 1e3:.0f}",
        f"{np_time * 1e3:.0f}",
        f"{ratio:.2f}x",
    ]
    return ratio, row


def _assert_bit_identical_small():
    """Event-by-event identity on a size where O(M) comparison is cheap."""
    network = topology.torus_graph(48, 48)
    runs = {}
    for transport in ("reference", "numpy"):
        sim = Simulator(network, transport=transport)
        runs[transport] = sim.run(Multicast(3, 10), seed=7)
    ref, vec = runs["reference"], runs["numpy"]
    assert vec.outputs == ref.outputs
    assert vec.max_message_bits == ref.max_message_bits
    assert list(vec.trace.events()) == list(ref.trace.events())
    for round_index in range(0, ref.trace.last_round + 2):
        assert vec.trace.events_at(round_index) == ref.trace.events_at(
            round_index
        )
    assert vec.trace.directed_loads() == ref.trace.directed_loads()
    assert vec.trace.edge_rounds() == ref.trace.edge_rounds()


def _phase_engine_leg():
    """RandomDelayScheduler across backends; returns (speedup, row)."""
    network = topology.torus_graph(32, 32)
    algorithms = [Multicast(3, 12), Multicast(5, 12), Multicast(9, 12)]
    times = {}
    results = {}
    for transport in ("reference", "numpy"):
        workload = Workload(network, list(algorithms), transport=transport)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            results[transport] = RandomDelayScheduler().run(workload, seed=11)
            times[transport] = time.perf_counter() - start
        finally:
            gc.enable()
    ref, vec = results["reference"], results["numpy"]
    assert vec.outputs == ref.outputs
    assert vec.report.length_rounds == ref.report.length_rounds
    assert vec.report.load_histogram == ref.report.load_histogram
    speedup = times["reference"] / times["numpy"]
    row = [
        "phase-engine 32x32 k=3",
        ref.report.messages_sent,
        f"{times['reference'] * 1e3:.0f}",
        f"{times['numpy'] * 1e3:.0f}",
        f"{speedup:.2f}x",
    ]
    return speedup, row


@pytest.mark.benchmark(group="e22")
def test_e22_vectorized_transport(benchmark, results_dir):
    _assert_bit_identical_small()

    rows = []
    ratios = {}
    for size in SIZES:
        ratio, row = _measure_size(size)
        ratios[size] = ratio
        rows.append(row)

    gate_size = GATE_SIZE
    gate_ratio = ratios[GATE_SIZE]
    if gate_ratio < GATE:
        # The ratio widens with grid size; retry once at a size where
        # the reference's hash-table thrashing must dominate.
        gate_size = ESCALATION_SIZE
        gate_ratio, row = _measure_size(ESCALATION_SIZE)
        ratios[ESCALATION_SIZE] = gate_ratio
        rows.append(row)

    phase_speedup, phase_row = _phase_engine_leg()
    rows.append(phase_row)

    emit(
        results_dir,
        "e22_vectorized_transport",
        ["leg", "messages", "reference_ms", "numpy_ms", "wall_speedup"],
        rows,
        notes=(
            "End-to-end solo pipeline (run + pickle round-trip + "
            "measure_params) per transport backend on torus grids, "
            f"{ROUNDS} rounds of a full simultaneous multicast. Outputs "
            "and every trace index are asserted bit-identical per size; "
            f"the {gate_size}x{gate_size} pipeline must be >={GATE:g}x "
            "faster under the numpy backend. The phase-engine leg is "
            "asserted no slower (program stepping dominates there)."
        ),
        extra={
            "wall_speedup": gate_ratio,
            "gate": GATE,
            "gate_size": gate_size,
            "phase_wall_speedup": phase_speedup,
            "ratios": {f"{s}x{s}": r for s, r in ratios.items()},
        },
    )

    assert gate_ratio >= GATE, (
        f"numpy transport end-to-end speedup {gate_ratio:.2f}x < "
        f"{GATE:g}x on the {gate_size}x{gate_size} torus"
    )
    assert phase_speedup >= 0.9, (
        f"numpy transport slowed the phase engine down: "
        f"{phase_speedup:.2f}x"
    )

    benchmark.pedantic(
        _pipeline,
        args=(topology.torus_graph(64, 64), "numpy"),
        rounds=1,
        iterations=1,
    )
