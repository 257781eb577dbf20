"""Single source of the package version, for provenance stamping.

The authoritative number lives in ``pyproject.toml``; an installed
distribution also carries it as package metadata. This module resolves
the version once, at import time. It reads the adjacent
``pyproject.toml`` first (source-tree usage, ``PYTHONPATH=src`` — the
repository's own test invocation, and editable installs), because that
costs one small file read where ``importlib.metadata`` searches every
entry of ``sys.path``. The metadata lookup is the fallback, for wheels
installed without the source tree. So ``repro.__version__``,
``python -m repro --version``, :class:`~repro.metrics.schedule.ScheduleReport`
stamps, and :mod:`repro.service` registry artifacts all agree.

Only the ``[project]`` table of a pyproject whose ``name`` is
``"repro"`` counts: a copy of ``src/repro`` vendored into another
project must not report that project's version.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

__all__ = ["resolve_version"]

#: Last-resort version when neither pyproject nor metadata is readable
#: (e.g. a vendored copy of ``src/repro`` without the project root).
_FALLBACK = "0.0.0+unknown"

_PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

#: A table header starts its line; an indented ``[`` continues an array.
_TABLE = re.compile(r"^\[")
_PROJECT = re.compile(r"^\[\s*project\s*\]\s*(#.*)?$")
_KEY = re.compile(r'^\s*(name|version)\s*=\s*["\']([^"\']+)["\']')


def _from_metadata() -> Optional[str]:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        return None


def _from_pyproject(pyproject: Path) -> Optional[str]:
    """The ``[project]`` version of ``pyproject`` when it names ``repro``."""
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError:
        return None
    fields = {}
    in_project = False
    for line in text.splitlines():
        if _TABLE.match(line):
            in_project = bool(_PROJECT.match(line))
        elif in_project:
            match = _KEY.match(line)
            if match:
                fields.setdefault(match.group(1), match.group(2))
    return fields.get("version") if fields.get("name") == "repro" else None


def resolve_version() -> str:
    """Resolve the package version (pyproject, else metadata, else stub)."""
    return _from_pyproject(_PYPROJECT) or _from_metadata() or _FALLBACK


__version__ = resolve_version()
