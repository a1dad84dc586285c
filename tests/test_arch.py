"""Tests for architecture graphs."""

import copy
import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.arch import library
from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.experiments import fig7_spread
from repro.experiments.common import fitting_mesh, used_physical_qubits
from repro.experiments.fig7_spread import _subgraph_pool
from repro.injection.spec import CodeSpec, build_arch
from repro.injection.store import task_key
from repro.transpile import transpile
from repro.arch import (
    ArchitectureGraph,
    REGISTRY,
    almaden,
    brooklyn,
    by_name,
    cairo,
    cambridge,
    complete,
    heavy_hex,
    johannesburg,
    linear,
    mesh,
)
from oracles.graphs import diameter, distance, edges, is_connected, subgraph


class TestBasicGraphs:
    def test_linear_structure(self):
        g = linear(5)
        assert g.num_qubits == 5
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_mesh_structure(self):
        g = mesh(3, 4)
        assert g.num_qubits == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.degree(0) == 2   # corner
        assert g.degree(5) == 4   # interior

    def test_complete_structure(self):
        g = complete(6)
        assert g.num_edges == 15
        assert diameter(g) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureGraph([(0, 0)])

    def test_isolated_qubits_allowed(self):
        g = ArchitectureGraph([(0, 1)], num_qubits=4)
        assert g.num_qubits == 4
        assert not is_connected(g)

    def test_edge_past_the_register_rejected(self):
        with pytest.raises(ValueError, match="outside qubits"):
            ArchitectureGraph([(0, 5), (1, 2)], num_qubits=3)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="outside qubits"):
            ArchitectureGraph([(-1, 2)])
        with pytest.raises(ValueError, match="outside qubits"):
            ArchitectureGraph([(-1, 2)], num_qubits=3)

    def test_duplicate_edges_collapse(self):
        g = ArchitectureGraph([(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.num_qubits == 3
        assert g.num_edges == 2
        assert edges(g) == [(0, 1), (1, 2)]
        assert g.degree(1) == 2
        assert g.neighbors(1) == [0, 2]


class TestDeviceGraphs:
    @pytest.mark.parametrize("factory,expected_qubits", [
        (almaden, 20), (johannesburg, 20), (cairo, 27),
        (cambridge, 28), (brooklyn, 65),
    ])
    def test_device_qubit_counts(self, factory, expected_qubits):
        g = factory()
        assert g.num_qubits == expected_qubits
        assert is_connected(g)

    def test_heavy_hex_low_degree(self):
        g = heavy_hex(3)
        assert is_connected(g)
        assert max(g.degree(q) for q in range(g.num_qubits)) <= 3

    def test_heavy_hex_rejects_small(self):
        with pytest.raises(ValueError):
            heavy_hex(1)

    def test_degree_ordering_matches_families(self):
        """Mesh is better connected than the heavy-hex devices, which
        is the property Observation VIII relies on."""
        assert mesh(5, 6).average_degree() > cairo().average_degree()
        assert mesh(5, 4).average_degree() > cambridge().average_degree()
        assert complete(18).average_degree() > mesh(5, 4).average_degree()


class TestDistances:
    def test_distance_matrix_symmetric(self):
        g = mesh(3, 3)
        m = g.distance_matrix()
        np.testing.assert_array_equal(m, m.T)

    def test_manhattan_distance_on_mesh(self):
        g = mesh(3, 3)
        assert distance(g, 0, 8) == 4  # corner to corner
        assert distance(g, 0, 4) == 2

    def test_distances_from(self):
        g = linear(4)
        d = g.distances_from(0)
        assert d == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}

    def test_disconnected_distance_infinite(self):
        g = ArchitectureGraph([(0, 1)], num_qubits=3)
        assert np.isinf(distance(g, 0, 2))
        assert 2 not in g.distances_from(0)

    def test_shortest_path_endpoints(self):
        g = mesh(2, 3)
        path = g.shortest_path(0, 5)
        assert path[0] == 0
        assert path[-1] == 5
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)

    def test_diameter_linear(self):
        assert diameter(linear(7)) == 6

    def test_diameter_disconnected_rejected(self):
        g = ArchitectureGraph([(0, 1)], num_qubits=3)
        with pytest.raises(ValueError):
            diameter(g)


class TestSubgraphSampling:
    """Fig. 7's erased clusters (``fig7_spread._subgraph_pool``):
    connected, of the asked size, distinct, inside the qubits the
    transpiled circuit uses."""

    CODE = CodeSpec("xxzz", (3, 3))
    ARCH = fitting_mesh(CODE.build().num_qubits)

    def pool(self, size, count=20, seed=0):
        return _subgraph_pool(self.CODE, self.ARCH, size, count, seed)

    def test_sampled_subgraph_is_connected(self):
        graph = build_arch(self.ARCH)
        used = set(used_physical_qubits(self.CODE, self.ARCH))
        pool = self.pool(5)
        assert pool and len(set(pool)) == len(pool)
        for cluster in pool:
            assert len(cluster) == 5 and set(cluster) <= used
            assert is_connected(subgraph(graph, cluster))

    def test_sample_size_one(self):
        used = used_physical_qubits(self.CODE, self.ARCH)
        pool = self.pool(1, count=len(used))
        assert all(len(c) == 1 for c in pool)
        assert len(set(pool)) == len(pool)
        assert set(q for c in pool for q in c) <= set(used)

    def test_sample_whole_graph(self):
        used = used_physical_qubits(self.CODE, self.ARCH)
        assert self.pool(len(used), count=3) == [tuple(sorted(used))]

    def test_fig7_pool_unchanged(self):
        """Fig. 7's campaign, and so every cluster in it, keeps its task
        keys."""
        keys = [task_key(t)
                for t in fig7_spread.build_campaign(shots=16)._seeded()]
        assert len(keys) == 178
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "7d6b1721ae6646196cc19f50b1ea4d3fe76955f347ee43ca02fb208ef97da7ea")


def networkx_twin(factory, *args):
    """``factory(*args)`` and a NetworkX graph built from the same edge
    list the way the constructor once built its own: nodes
    ``0..n-1``, then the edges in the order given."""
    nx = pytest.importorskip("networkx")
    calls = []

    class Recording(ArchitectureGraph):
        def __init__(self, edges, num_qubits=None, *rest, **kwargs):
            edges = list(edges)
            calls.append(edges)
            super().__init__(edges, num_qubits, *rest, **kwargs)

    with mock.patch.object(library, "ArchitectureGraph", Recording):
        graph = factory(*args)
    twin = nx.Graph()
    twin.add_nodes_from(range(graph.num_qubits))
    twin.add_edges_from(calls[-1])
    return graph, twin


#: Every library family, at the sizes the experiments use.
LIBRARY = [(linear, 7), (mesh, 2, 3), (mesh, 5, 4), (mesh, 5, 6),
           (complete, 6), (almaden,), (johannesburg,), (cairo,),
           (cambridge,), (brooklyn,), (heavy_hex, 3), (heavy_hex, 5)]


@pytest.mark.parametrize("factory_args", LIBRARY,
                         ids=lambda fa: "-".join([fa[0].__name__,
                                                  *map(str, fa[1:])]))
class TestAgainstNetworkx:
    """The plain-adjacency graph answers as the NetworkX graph it
    replaced: the routing SWAPs, and with them every count, depend on
    which shortest path comes back."""

    def test_shortest_path_every_ordered_pair(self, factory_args):
        import networkx as nx

        graph, twin = networkx_twin(*factory_args)
        for a in range(graph.num_qubits):
            for b in range(graph.num_qubits):
                assert graph.shortest_path(a, b) \
                    == nx.shortest_path(twin, a, b), (a, b)

    def test_edges_distances_and_shape(self, factory_args):
        import networkx as nx

        graph, twin = networkx_twin(*factory_args)
        assert edges(graph) == [tuple(sorted(e)) for e in twin.edges()]
        assert graph.num_edges == twin.number_of_edges()
        want = np.full((graph.num_qubits,) * 2, np.inf)
        for src, lengths in nx.all_pairs_shortest_path_length(twin):
            for dst, d in lengths.items():
                want[src, dst] = d
        np.testing.assert_array_equal(graph.distance_matrix(), want)
        assert is_connected(graph) == nx.is_connected(twin)
        assert diameter(graph) == nx.diameter(twin)
        for q in range(graph.num_qubits):
            assert graph.neighbors(q) == sorted(twin.neighbors(q))
            assert graph.degree(q) == twin.degree[q]


#: The (code, arch) pairs the end-to-end benchmark transpiles.
E2E_ROUTES = [(RepetitionCode(5), (mesh, 5, 2)), (XXZZCode(3, 3), (mesh, 5, 4))]
E2E_ROUTES += [(RepetitionCode(d), arch) for d in (3, 5, 7, 9)
               for arch in ((mesh, 5, 4), (almaden,), (johannesburg,),
                            (cairo,))]


@pytest.mark.parametrize("code,factory_args", E2E_ROUTES)
def test_transpile_equals_networkx_backed_run(code, factory_args):
    """Transpiling onto the graph gives the circuit, SWAPs and layouts
    that a graph answering distances and shortest paths from NetworkX
    gives."""
    import networkx as nx

    graph, twin = networkx_twin(*factory_args)
    backed = copy.copy(graph)
    backed.shortest_path = lambda a, b: nx.shortest_path(twin, a, b)
    backed._dist_cache = np.full((graph.num_qubits,) * 2, np.inf)
    for src, lengths in nx.all_pairs_shortest_path_length(twin):
        for dst, d in lengths.items():
            backed._dist_cache[src, dst] = d
    circuit = build_memory_experiment(code, rounds=2).circuit
    ours, theirs = transpile(circuit, graph), transpile(circuit, backed)
    assert ours.swap_count == theirs.swap_count
    assert list(ours.circuit) == list(theirs.circuit)
    assert ours.initial_layout == theirs.initial_layout
    assert ours.final_layout == theirs.final_layout


class TestShortestPathEdges:
    def test_same_qubit(self):
        assert mesh(2, 2).shortest_path(3, 3) == [3]

    def test_no_path_raises(self):
        g = ArchitectureGraph([(0, 1)], num_qubits=3)
        with pytest.raises(ValueError, match="no path"):
            g.shortest_path(0, 2)

    def test_unknown_qubit_raises(self):
        with pytest.raises(ValueError, match="qubit 9"):
            linear(3).shortest_path(0, 9)


class TestRegistry:
    def test_by_name_with_args(self):
        g = by_name("mesh", 2, 3)
        assert g.num_qubits == 6

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            by_name("torus")

    def test_registry_covers_paper_architectures(self):
        for name in ["linear", "mesh", "complete", "almaden",
                     "johannesburg", "cairo", "cambridge", "brooklyn"]:
            assert name in REGISTRY

    def test_induced_subgraph(self):
        g = mesh(2, 3)
        sub = subgraph(g, [0, 1, 2])
        assert sub.num_qubits == 3
        assert sub.num_edges == 2
