"""Tests for detector-graph construction."""

import heapq

import numpy as np
import pytest

from repro.codes import RepetitionCode, XXZZCode
from repro.decoders import BOUNDARY, ERASED_WEIGHT, DetectorGraph
from oracles.syndromes import detection_events, dual_detection_events
from oracles.decoders import distance_between, parity_between


class TestRepetitionGraph:
    def test_node_count(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        assert g.num_plaquettes == 4
        assert g.num_nodes == 8

    def test_space_edges_chain(self):
        g = DetectorGraph(RepetitionCode(5), rounds=1)
        space = [e for e in g.edges if e.qubit is not None]
        # End data qubits -> boundary, interior -> pairs.
        boundary_edges = [e for e in space if e.v == BOUNDARY]
        assert len(boundary_edges) == 2
        assert len(space) == 5  # one per data qubit

    def test_all_edges_flip_logical(self):
        """Every data qubit sits on the whole-register parity readout."""
        g = DetectorGraph(RepetitionCode(5), rounds=1)
        assert all(e.logical_flip for e in g.edges if e.qubit is not None)

    def test_time_edges(self):
        g = DetectorGraph(RepetitionCode(5), rounds=3)
        time = [e for e in g.edges if e.qubit is None]
        assert len(time) == 4 * 2
        assert not any(e.logical_flip for e in time)

    def test_no_undetectable_qubits(self):
        g = DetectorGraph(RepetitionCode(7), rounds=2)
        assert g.undetectable == []


class TestXXZZGraph:
    def test_dual_basis_graphs(self):
        code = XXZZCode(3, 3)
        gz = DetectorGraph(code, rounds=2, basis="Z")
        gx = DetectorGraph(code, rounds=2, basis="X")
        assert gz.num_plaquettes == 4
        assert gx.num_plaquettes == 4

    def test_phase_flip_code_has_undetectable_bitflips(self):
        """xxzz-(1,3) has no Z checks: every data X error is invisible,
        which is why the paper's Fig. 6 shows it at ~50%."""
        g = DetectorGraph(XXZZCode(1, 3), rounds=2, basis="Z")
        assert g.num_plaquettes == 0
        assert len(g.undetectable) == 3

    def test_logical_flip_edges_follow_support(self):
        code = XXZZCode(3, 3)
        g = DetectorGraph(code, rounds=1, basis="Z")
        support = set(code.logical_z_support)
        for e in g.edges:
            if e.qubit is not None:
                assert e.logical_flip == (e.qubit in support)

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            DetectorGraph(XXZZCode(3, 3), 2, basis="Y")


class TestDetectionEvents:
    def test_first_round_absolute(self):
        g = DetectorGraph(RepetitionCode(3), rounds=2)
        syn = np.zeros((1, 2, 2), dtype=np.uint8)
        syn[0, 0, 1] = 1
        det = detection_events(syn)
        assert det[0, 0, 1] == 1
        assert det[0, 1, 1] == 1  # difference propagates

    def test_stable_syndrome_no_event_after_round0(self):
        g = DetectorGraph(RepetitionCode(3), rounds=2)
        syn = np.ones((1, 2, 2), dtype=np.uint8)
        det = detection_events(syn)
        assert det[0, 0].sum() == 2   # round 0 fires vs reference
        assert det[0, 1].sum() == 0   # no change between rounds

    def test_dual_events_suppress_round0(self):
        g = DetectorGraph(XXZZCode(3, 3), rounds=2, basis="X")
        syn = np.random.default_rng(0).integers(
            0, 2, (4, 2, 4)).astype(np.uint8)
        det = dual_detection_events(syn)
        assert (det[:, 0, :] == 0).all()


class TestPaths:
    def test_distance_to_boundary(self):
        g = DetectorGraph(RepetitionCode(5), rounds=1)
        # End plaquettes are one error from the boundary.
        assert distance_between(g, 0) == 1
        assert distance_between(g, 3) == 1
        # Middle plaquettes are two errors away.
        assert distance_between(g, 1) == 2

    def test_pairwise_distance(self):
        g = DetectorGraph(RepetitionCode(5), rounds=1)
        assert distance_between(g, 0, 1) == 1
        assert distance_between(g, 0, 3) == 3

    def test_time_distance(self):
        g = DetectorGraph(RepetitionCode(5), rounds=2)
        assert distance_between(g, g.node_id(0, 0), g.node_id(1, 0)) == 1

    def test_parity_along_path(self):
        g = DetectorGraph(RepetitionCode(5), rounds=1)
        # Plaquette 0 to boundary: one data error -> one logical flip.
        assert parity_between(g, 0) == 1
        # Plaquette 0 to plaquette 1: one data error.
        assert parity_between(g, 0, 1) == 1

    def test_parity_time_edge_zero(self):
        g = DetectorGraph(RepetitionCode(3), rounds=2)
        assert parity_between(g, g.node_id(0, 0), g.node_id(1, 0)) == 0


def _numpy_paths(graph):
    """``DetectorGraph._build_paths`` as it was written on numpy arrays
    (every neighbour read and written through ``dist[src, v]``): the
    oracle for the list-based rewrite, which must return the same
    arrays bit for bit."""
    n = graph.num_nodes
    bidx = n
    if graph.unit_weights:
        adj = [[] for _ in range(n + 1)]
        for e in graph.edges:
            u = e.u if e.u != BOUNDARY else bidx
            v = e.v if e.v != BOUNDARY else bidx
            adj[u].append((v, e.logical_flip))
            adj[v].append((u, e.logical_flip))
        dist = np.full((n, n + 1), np.inf)
        parity = np.zeros((n, n + 1), dtype=np.uint8)
        for src in range(n):
            dist[src, src] = 0
            queue = [src]
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                for v, flip in adj[u]:
                    if not np.isfinite(dist[src, v]):
                        dist[src, v] = dist[src, u] + 1
                        parity[src, v] = parity[src, u] ^ int(flip)
                        if v != bidx:
                            queue.append(v)
        return dist, parity
    wadj = [[] for _ in range(n + 1)]
    for e in graph.edges:
        u = e.u if e.u != BOUNDARY else bidx
        v = e.v if e.v != BOUNDARY else bidx
        wadj[u].append((v, e.weight, e.logical_flip))
        wadj[v].append((u, e.weight, e.logical_flip))
    dist = np.full((n, n + 1), np.inf)
    parity = np.zeros((n, n + 1), dtype=np.uint8)
    for src in range(n):
        dist[src, src] = 0
        heap = [(0.0, src)]
        done = np.zeros(n + 1, dtype=bool)
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == bidx:
                continue
            for v, w, flip in wadj[u]:
                nd = d + w
                if nd < dist[src, v]:
                    dist[src, v] = nd
                    parity[src, v] = parity[src, u] ^ int(flip)
                    heapq.heappush(heap, (nd, v))
    return dist, parity


class TestBuildPathsOracle:
    """The list-based BFS / Dijkstra visit and push in the numpy
    version's order, so distances and parities agree bit for bit —
    ties, unreachable entries and float sums included."""

    @pytest.mark.parametrize("weights", ["unit", "dyadic", "decimal"])
    @pytest.mark.parametrize("hooks", [False, True])
    @pytest.mark.parametrize("code", [
        lambda d: RepetitionCode(d), lambda d: XXZZCode(d, d)],
        ids=["rep", "xxzz"])
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_same_arrays_as_numpy_version(self, d, code, hooks, weights):
        graph = DetectorGraph(code(d), rounds=3 if d == 7 else d,
                              hook_edges=hooks)
        if weights != "unit":
            # Erased, fractional and heavy edges; the decimal ones sum
            # inexactly, so a changed relaxation order would show.
            choices = ([ERASED_WEIGHT, 0.25, 0.5, 1.0, 1.0, 2.0]
                       if weights == "dyadic" else [0.1, 0.2, 0.3, 0.7, 1.0])
            drawn = np.random.default_rng(d).choice(choices,
                                                    size=len(graph.edges))
            by_edge = dict(zip(map(id, graph.edges), drawn.tolist()))
            graph = graph.reweighted(lambda e: by_edge[id(e)])
        want_dist, want_parity = _numpy_paths(graph)
        got_dist, got_parity = graph._build_paths()
        assert got_dist.dtype == want_dist.dtype
        assert got_parity.dtype == want_parity.dtype
        np.testing.assert_array_equal(got_dist, want_dist)
        np.testing.assert_array_equal(got_parity, want_parity)
        assert got_dist.tobytes() == want_dist.tobytes()
