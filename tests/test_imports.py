"""A process imports only what it runs.

Every ``python -m repro submit`` is a fresh process, so an import that
a run never uses is paid on every job. Each test here runs a fresh
interpreter and reads ``sys.modules`` after the work:

* numpy and networkx: a small run, the CLI modules, a resolved
  transport and the random topologies (sampled in the repo, also
  through a real ``submit``) load neither package, while a trace big
  enough for the numpy kernels loads numpy;
* the package itself: every package ``__init__`` is lazy, so
  ``import repro`` loads no subpackage, ``submit`` loads no engine,
  journal or job model, ``status`` no engine, simulator, solo cache or
  congestion measure — and every public name,
  ``__all__`` entry and subpackage still resolves by attribute.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT = """
import json, sys
print(json.dumps({name: name in sys.modules for name in ("numpy", "networkx")}))
"""


def _loaded_after(code, *args):
    """Run ``code`` in a fresh interpreter; which heavy packages it loaded.
    ``code`` sees ``args`` in ``sys.argv[1:]``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *args],
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


def _modules_after(code, *args):
    """Run ``code`` in a fresh interpreter; the ``repro`` modules and
    ``importlib.metadata`` it loaded. ``code`` sees ``args`` in
    ``sys.argv[1:]`` and must not print to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] == 'repro' or m == 'importlib.metadata')),\n"
        "    file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code + report, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.strip().splitlines()[-1]))


#: Runs ``python -m repro <sys.argv[1:]>`` in-process, so that the
#: report above reads the command's own ``sys.modules``.
_CLI = (
    "import runpy, sys\n"
    "sys.argv = ['repro', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exit:\n"
    "    assert not exit.code, exit.code\n"
)

#: What ``submit`` must not load: the engines, the solo simulator, the
#: job model, journal and service, the fuzzer, and the metadata search.
SUBMIT_FORBIDDEN = (
    "repro.core",
    "repro.clustering",
    "repro.congest.simulator",
    "repro.parallel",
    "repro.service.journal",
    "repro.service.events",
    "repro.service.jobs",
    "repro.service.service",
    "repro.fuzz",
    "importlib.metadata",
)

#: What ``status`` must not load: the engines, the solo simulator, the
#: solo cache and the congestion measures.
STATUS_FORBIDDEN = (
    "repro.core",
    "repro.clustering",
    "repro.congest.simulator",
    "repro.parallel.cache",
    "repro.metrics.congestion",
)


def _under(modules, names):
    """The modules that are one of ``names`` or inside one of them."""
    return sorted(
        module
        for module in modules
        for name in names
        if module == name or module.startswith(name + ".")
    )


def test_import_repro_loads_no_subpackage_and_no_metadata():
    loaded = _modules_after(
        "import sys\n"
        "import repro\n"
        "alone = {m for m in sys.modules if m.split('.')[0] == 'repro'}\n"
        "assert alone == {'repro', 'repro._lazy'}, alone\n"
        "assert repro.__version__\n"
    )
    # The version comes from pyproject.toml, not from a metadata search.
    assert loaded == {"repro", "repro._lazy", "repro._version"}


def test_submit_loads_no_engine_journal_or_job_model(tmp_path):
    loaded = _modules_after(
        _CLI, "submit", "--dir", str(tmp_path), "--net", "grid:6x6",
        "--algo", "bfs:source=0,hops=4",
    )
    assert (tmp_path / "spool.jsonl").exists()
    assert "repro.service.spool" in loaded
    assert _under(loaded, SUBMIT_FORBIDDEN) == []


def test_status_loads_no_engine(tmp_path):
    submit = _modules_after(
        _CLI, "submit", "--dir", str(tmp_path), "--net", "grid:6x6",
        "--algo", "bfs:source=0,hops=4", "--count", "2",
    )
    assert _under(submit, SUBMIT_FORBIDDEN) == []
    loaded = _modules_after(_CLI, "status", "--dir", str(tmp_path))
    assert "repro.service.spool" in loaded
    assert _under(loaded, STATUS_FORBIDDEN) == []


@pytest.mark.slow
def test_random_topologies_load_no_networkx(tmp_path):
    loaded = _loaded_after(
        "from repro.congest import topology\n"
        "assert topology.random_regular(8, 3, seed=0).num_nodes == 8\n"
        "assert topology.gnp_connected(8, 0.5, seed=0).num_nodes == 8\n"
    )
    assert loaded["networkx"] is False
    for net in ("regular:n=8,degree=3,seed=0", "gnp:n=8,p=0.5,seed=0"):
        loaded = _loaded_after(
            _CLI, "submit", "--dir", str(tmp_path), "--net", net,
            "--algo", "bfs:source=0,hops=4",
        )
        assert loaded == {"numpy": False, "networkx": False}, net
    assert len((tmp_path / "spool.jsonl").read_text().splitlines()) == 2


def _packages():
    import repro

    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


#: Checks one package in a fresh interpreter: ``dir`` lists every public
#: name and subpackage before any is resolved, the package's own table
#: resolves each of them (not an earlier import's side effect), and a
#: star import binds all of ``__all__``.
_PUBLIC_NAMES = """
import importlib, pkgutil, sys, types
name = sys.argv[1]
package = importlib.import_module(name)
subpackages = [i.name for i in pkgutil.iter_modules(package.__path__) if i.ispkg]
names = [*package.__all__, *subpackages]
listed = set(dir(package))
assert not [n for n in names if n not in listed], [n for n in names if n not in listed]
for attr in names:
    value = package.__getattr__(attr)
    assert getattr(package, attr) is value, attr
    if isinstance(value, types.ModuleType):
        assert value.__name__ == f"{name}.{attr}", (attr, value.__name__)
    else:
        assert attr not in subpackages, attr
namespace = {}
exec(f"from {name} import *", namespace)
assert set(package.__all__) <= set(namespace), set(package.__all__) - set(namespace)
"""


def test_every_package_is_walked():
    assert len(_packages()) == 16


@pytest.mark.parametrize("package", _packages())
def test_every_public_name_survives_laziness(package):
    _modules_after(_PUBLIC_NAMES, package)
