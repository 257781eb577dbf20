"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import topology


@pytest.fixture()
def object_path(monkeypatch):
    """Step BFS and HopBroadcast (hence Flooding) through their
    ``NodeProgram`` objects instead of wave groups, for tests that check
    what the programs and their hosts do."""
    for family in (BFS, HopBroadcast):
        monkeypatch.setattr(family, "wave", lambda self: None)


@pytest.fixture(scope="session")
def grid6():
    """A 6x6 grid: the workhorse mid-size network (n=36, D=10)."""
    return topology.grid_graph(6, 6)


@pytest.fixture(scope="session")
def grid4():
    """A 4x4 grid for faster tests."""
    return topology.grid_graph(4, 4)


@pytest.fixture(scope="session")
def path10():
    """A path on 10 nodes (extreme diameter)."""
    return topology.path_graph(10)


@pytest.fixture(scope="session")
def cycle12():
    """A cycle on 12 nodes."""
    return topology.cycle_graph(12)


@pytest.fixture(scope="session")
def expander():
    """A random 3-regular graph on 24 nodes (low diameter)."""
    return topology.random_regular(24, 3, seed=7)


@pytest.fixture(scope="session")
def star8():
    """A star on 8 nodes (hub congestion)."""
    return topology.star_graph(8)
