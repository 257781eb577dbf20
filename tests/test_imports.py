"""numpy and networkx are imported only where they run.

Every ``python -m repro submit`` is a fresh process, so an import that
a run never uses is paid on every job. Each test here runs a fresh
interpreter and reads ``sys.modules`` after the work: a small run, the
CLI modules and a resolved transport load neither package, while a
trace big enough for the numpy kernels and a networkx-backed topology
load the one they use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT = """
import json, sys
print(json.dumps({name: name in sys.modules for name in ("numpy", "networkx")}))
"""


def _loaded_after(code):
    """Run ``code`` in a fresh interpreter; which heavy packages it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.slow
def test_cli_import_and_transport_resolution_load_neither():
    loaded = _loaded_after(
        "import repro, repro.__main__\n"
        "from repro.core.transport import resolve_transport\n"
        "assert resolve_transport('auto').name == 'numpy'\n"
    )
    assert loaded == {"numpy": False, "networkx": False}


@pytest.mark.slow
def test_small_service_serve_loads_neither():
    loaded = _loaded_after(
        "from repro.service import JobState, SchedulerService\n"
        "from repro.service.specs import parse_algorithm, parse_network\n"
        "network = parse_network('grid:6x6')\n"
        "service = SchedulerService(batch_size=4)\n"
        "jobs = service.submit_many(network, [\n"
        "    parse_algorithm(f'bfs:source={s},hops=4', network) for s in range(4)\n"
        "])\n"
        "service.drain()\n"
        "assert all(job.state is JobState.DONE for job in jobs)\n"
    )
    assert loaded == {"numpy": False, "networkx": False}


@pytest.mark.slow
def test_trace_above_threshold_loads_numpy_and_matches_reference():
    """Recording, adopting and pickling a trace above the threshold load
    no numpy; its first index query does."""
    loaded = _loaded_after(
        "import pickle, sys\n"
        "from repro.algorithms import Flooding\n"
        "from repro.congest import topology\n"
        "from repro.congest.simulator import Simulator\n"
        "from repro.congest.trace import ExecutionTrace\n"
        "from repro.core.transport_numpy import NUMPY_MIN_MESSAGES, ArrayTrace\n"
        "n, array, reference = 64, ArrayTrace(), ExecutionTrace()\n"
        "for r in range(1, 7):\n"
        "    for v in range(n):\n"
        "        for u in ((v + 1) % n, (v - 1) % n):\n"
        "            array.record(r, v, u)\n"
        "            reference.record(r, v, u)\n"
        "array = pickle.loads(pickle.dumps(array))\n"
        "flood = Simulator(topology.torus_graph(16, 16)).run(Flooding(0, 't'), seed=1)\n"
        "adopted = pickle.loads(pickle.dumps(flood.trace))\n"
        "assert type(adopted) is ArrayTrace\n"
        "assert min(array.num_messages, adopted.num_messages) >= NUMPY_MIN_MESSAGES\n"
        "assert 'numpy' not in sys.modules\n"
        "assert array.edge_round_counts() == reference.edge_round_counts()\n"
        "assert array.max_edge_rounds() == reference.max_edge_rounds()\n"
        "expected = ExecutionTrace()\n"
        "for event in adopted.events():\n"
        "    expected.record(*event)\n"
        "assert adopted.edge_round_counts() == expected.edge_round_counts()\n"
    )
    assert loaded["numpy"] is True


@pytest.mark.slow
def test_random_regular_loads_networkx():
    loaded = _loaded_after(
        "from repro.congest import topology\n"
        "assert topology.random_regular(8, 3, seed=0).num_nodes == 8\n"
    )
    assert loaded["networkx"] is True
