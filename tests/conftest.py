"""Shared fixtures: named graphs and a session-wide cache of search reports
so the acceptance criteria and unit tests do not repeat the heavy searches."""

from __future__ import annotations

import pytest
from hypothesis import settings

from nilgraph.catalog import CATALOG
from nilgraph.graphs import Graph, complete_graph, cycle_graph, empty_graph, path_graph
from nilgraph.spectra import compute_spectrum_report

# Property tests draw the same examples on every run and write no example
# database, so the suite stays deterministic.
settings.register_profile("nilgraph", derandomize=True, database=None, deadline=None)
settings.load_profile("nilgraph")


@pytest.fixture(scope="session")
def named_graphs() -> dict:
    return {
        "K1": empty_graph(1),
        "K2": complete_graph(2),
        "N22": empty_graph(2),
        "N32": empty_graph(3),
        "K3": complete_graph(3),
        "P3": path_graph(3),
        "K2_plus_point": Graph.from_edges(3, [(0, 1)]),
        "P3_plus_point": Graph.from_edges(4, [(0, 1), (1, 2)]),
        "one_edge": Graph.from_edges(4, [(0, 1)]),
        "two_edges": Graph.from_edges(4, [(0, 1), (2, 3)]),
        "star": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        "paw": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
        "C4": cycle_graph(4),
        "P4": path_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "P5": path_graph(5),
    }


class ReportCache:
    def __init__(self):
        self._cache = {}

    def get(self, g: Graph, bound: int):
        key = (g.n, tuple(sorted(g.edges)), bound)
        if key not in self._cache:
            self._cache[key] = compute_spectrum_report(g, bound)
        return self._cache[key]


@pytest.fixture(scope="session")
def reports() -> ReportCache:
    return ReportCache()


@pytest.fixture(scope="session")
def catalog_entries():
    return CATALOG
