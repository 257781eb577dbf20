"""Package version resolution and provenance stamping."""

import re

import pytest

import repro
from repro import _version
from repro._version import resolve_version
from repro.algorithms import BFS
from repro.congest import topology
from repro.core import SequentialScheduler, Workload


def _project_version(text):
    """The ``version`` of ``text``'s ``[project]`` table, read independently
    of ``repro._version``: the table runs to the next header line."""
    table = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return re.search(
        r"^version\s*=\s*[\"']([^\"']+)[\"']", table.group(1), re.M
    ).group(1)


class TestResolution:
    def test_version_attribute_exists(self):
        assert isinstance(repro.__version__, str) and repro.__version__

    def test_matches_pyproject(self):
        from pathlib import Path

        pyproject = (
            Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        assert repro.__version__ == _project_version(pyproject.read_text())

    def test_resolver_is_idempotent(self):
        assert resolve_version() == repro.__version__


class TestPyprojectScope:
    """Only the ``[project]`` table of a pyproject named ``repro`` counts."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('[project]\nname = "repro"\nversion = "2.3.4"\n', "2.3.4"),
            # Key order inside the table does not matter.
            ("[project]\nversion = '2.3.4'\nname = 'repro'\n", "2.3.4"),
            # A version in an earlier table is not the project's.
            (
                '[tool.other]\nversion = "9.9"\n\n'
                '[project]\nname = "repro"\nversion = "2.3.4"\n',
                "2.3.4",
            ),
            # Nor is one in a later table.
            (
                '[project]\nname = "repro"\n\n[tool.other]\nversion = "9.9"\n',
                None,
            ),
            # An array value does not end the table.
            (
                '[project]\nname = "repro"\ndependencies = [\n'
                '    "numpy",\n]\nversion = "2.3.4"\n',
                "2.3.4",
            ),
            # A vendored copy inside another project reports nothing.
            ('[project]\nname = "other"\nversion = "9.9"\n', None),
            ('[project]\nversion = "9.9"\n', None),
            ('version = "9.9"\nname = "repro"\n', None),
        ],
    )
    def test_reads_only_the_repro_project_table(self, tmp_path, text, expected):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(text)
        assert _version._from_pyproject(pyproject) == expected

    def test_missing_file_reads_nothing(self, tmp_path):
        assert _version._from_pyproject(tmp_path / "pyproject.toml") is None

    def test_another_projects_pyproject_falls_through_to_metadata(
        self, tmp_path, monkeypatch
    ):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[project]\nname = "other"\nversion = "9.9"\n')
        monkeypatch.setattr(_version, "_PYPROJECT", pyproject)
        monkeypatch.setattr(_version, "_from_metadata", lambda: "3.1.4")
        assert resolve_version() == "3.1.4"
        monkeypatch.setattr(_version, "_from_metadata", lambda: None)
        assert resolve_version() == _version._FALLBACK

    def test_pyproject_comes_before_metadata(self, monkeypatch):
        monkeypatch.setattr(_version, "_from_metadata", lambda: "3.1.4")
        assert resolve_version() == repro.__version__


class TestProvenance:
    def test_schedule_report_is_stamped(self):
        net = topology.path_graph(6)
        result = SequentialScheduler().run(Workload(net, [BFS(0, hops=2)]))
        assert result.report.version == repro.__version__

    def test_dataclass_serialization_carries_version(self):
        from dataclasses import asdict

        net = topology.path_graph(6)
        report = SequentialScheduler().run(
            Workload(net, [BFS(0, hops=2)])
        ).report
        assert asdict(report)["version"] == repro.__version__
