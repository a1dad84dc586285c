"""Cross-validation: union-find vs MWPM on randomized low-weight
syndromes, and the batch matcher kernel vs the reference recursion.

Measured contracts (exhaustive weight-1 scans and weight-2 scans /
3000-sample sweeps on the d=3/d=5 rotated-XXZZ and repetition graphs):

* **MWPM** corrects *every* error of weight ``<= (d-1)//2`` — it is an
  exact minimum-weight matcher, and below half the distance the true
  pairing is the unique minimum class.
* **Union-find** matches that guarantee at weight 1, but its
  round-synchronized growth can over-merge neighbouring clusters and
  mis-peel a small fraction of weight-2 sets (~0.6% on rep-5 /
  xxzz-5) — the documented "accuracy slightly below MWPM by design"
  trade-off, pinned here so a regression (or a silent fix) is visible.
* **Batch kernel** — ``MWPMDecoder._decode_patterns`` (the native DP,
  or with the library hidden the bottom-up lattice DP vectorised
  across a bucket of patterns) returns the parity, and
  ``_dp_match_batch`` the cost, of the memoised recursion
  ``_dp_match`` *bit for bit, ties included*: for every defect count
  1..16, random and clustered defects, unit / hook / reweighted graphs,
  single-count, mixed-count (dummy-padded) and one-pattern batches.
* **Native DP** — up to 16 defects, ``_blossom.c``'s ``repro_dp_match``
  returns the cost and parity of ``_dp_match`` and of
  ``_dp_match_batch`` bit for bit, for every defect count 0..16 in one
  call, on tie-heavy small-integer tables with unreachable entries and
  rows and on repetition / XXZZ d = 3/5/7 graphs, unit / hook /
  reweighted; a process with it never builds a ``_lattice``, and one
  without it decodes every pattern to the same parity.
* **Native blossom** — past 16 defects, ``_blossom.c`` returns the very
  matching NetworkX's ``max_weight_matching`` returns (the same set of
  pairs) and ``_nx_match``'s parity: 17..30 defects on repetition and
  XXZZ d = 3/5/7 graphs, unit / hook / reweighted, and on tie-heavy
  small-integer tables with unreachable entries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codes import RepetitionCode, XXZZCode
from repro.decoders import (
    BOUNDARY,
    ERASED_WEIGHT,
    DetectorGraph,
    MWPMDecoder,
    UnionFindDecoder,
)
from repro import obs
from repro.decoders import _native, matching
from repro.injection import build_sweep

_SETTINGS = dict(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

#: (label, code factory, distance) — graphs cached per label below.
CODES = [
    ("xxzz-3", lambda: XXZZCode(3, 3), 3),
    ("xxzz-5", lambda: XXZZCode(5, 5), 5),
    ("rep-3", lambda: RepetitionCode(3), 3),
    ("rep-5", lambda: RepetitionCode(5), 5),
]

_CACHE = {}


def _graph(label):
    if label not in _CACHE:
        factory, d = next((f, d) for (l, f, d) in CODES if l == label)
        code = factory()
        # rounds >= d keeps the time-like distance at least d too, so
        # measurement-error sets enjoy the same correction radius.
        _CACHE[label] = (DetectorGraph(code, rounds=d), d)
    return _CACHE[label]


def _pattern_from_edges(graph, edge_indices):
    """Detector pattern + true logical parity of an explicit error set."""
    bits = np.zeros(graph.num_nodes, dtype=np.uint8)
    parity = 0
    for ei in edge_indices:
        e = graph.edges[ei]
        for node in (e.u, e.v):
            if node != BOUNDARY:
                bits[node] ^= 1
        parity ^= int(e.logical_flip)
    return bits, parity


class TestUnionFindVsMwpm:
    @settings(**_SETTINGS)
    @given(label=st.sampled_from([c[0] for c in CODES]),
           seed=st.integers(0, 100_000))
    def test_single_errors_decoded_identically(self, label, seed):
        """Any single space/time/boundary error: both decoders recover
        the exact logical parity (verified exhaustively offline; sampled
        here)."""
        graph, _ = _graph(label)
        rng = np.random.default_rng(seed)
        ei = int(rng.integers(len(graph.edges)))
        bits, truth = _pattern_from_edges(graph, [ei])
        mwpm = MWPMDecoder(graph, use_final_data=False)
        uf = UnionFindDecoder(graph, use_final_data=False)
        assert mwpm.decode_detectors(bits) == truth, (label, ei)
        assert uf.decode_detectors(bits) == truth, (label, ei)

    @settings(**_SETTINGS)
    @given(label=st.sampled_from(["xxzz-5", "rep-5"]),
           seed=st.integers(0, 100_000))
    def test_mwpm_corrects_within_radius(self, label, seed):
        """MWPM recovers every random error of weight <= (d-1)//2."""
        graph, d = _graph(label)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, (d - 1) // 2 + 1))
        edges = rng.choice(len(graph.edges), size=k, replace=False)
        bits, truth = _pattern_from_edges(graph, edges)
        mwpm = MWPMDecoder(graph, use_final_data=False)
        assert mwpm.decode_detectors(bits) == truth, (label, sorted(edges))

    @pytest.mark.parametrize("label", ["xxzz-5", "rep-5"])
    def test_uf_weight2_agreement_rate(self, label):
        """Union-find vs MWPM on a fixed sample of weight-2 error sets:
        agreement must stay >= 98% (measured ~99.4%), and every
        disagreement is a case where MWPM — not union-find — holds the
        ground truth.  A deterministic seed keeps this stable while
        still pinning the known sub-MWPM accuracy of the UF growth."""
        graph, _ = _graph(label)
        mwpm = MWPMDecoder(graph, use_final_data=False)
        uf = UnionFindDecoder(graph, use_final_data=False)
        rng = np.random.default_rng(1234)
        disagreements = 0
        trials = 400
        for _ in range(trials):
            edges = rng.choice(len(graph.edges), size=2, replace=False)
            bits, truth = _pattern_from_edges(graph, edges)
            corr_m = mwpm.decode_detectors(bits)
            corr_u = uf.decode_detectors(bits)
            assert corr_m == truth, (label, sorted(edges))
            assert corr_u in (0, 1)
            disagreements += corr_u != corr_m
        assert disagreements / trials <= 0.02, (label, disagreements)

    @settings(**_SETTINGS)
    @given(label=st.sampled_from(["xxzz-3", "rep-5"]),
           seed=st.integers(0, 100_000))
    def test_heavier_syndromes_stay_consistent(self, label, seed):
        """Beyond the guarantee radius the decoders may legitimately
        disagree with the sampled truth, but each must still return a
        valid parity bit and decode the empty pattern to identity."""
        graph, d = _graph(label)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(d, d + 3))
        edges = rng.choice(len(graph.edges), size=min(k, len(graph.edges)),
                           replace=False)
        bits, _ = _pattern_from_edges(graph, edges)
        for dec in (MWPMDecoder(graph, use_final_data=False),
                    UnionFindDecoder(graph, use_final_data=False)):
            assert dec.decode_detectors(bits) in (0, 1)
            assert dec.decode_detectors(np.zeros_like(bits)) == 0


#: (label, code factory, rounds) for the kernel-vs-recursion property.
BATCH_CODES = [
    ("xxzz-5x5", lambda: XXZZCode(5, 5), 6),
    ("xxzz-3x3", lambda: XXZZCode(3, 3), 4),
    ("xxzz-3x5", lambda: XXZZCode(3, 5), 4),
    ("rep-7", lambda: RepetitionCode(7), 5),
]


#: (label, code factory, rounds) for the native-blossom identity: at
#: least 30 detectors each, so every defect count 17..30 fits.
BLOSSOM_CODES = [
    ("rep-3", lambda: RepetitionCode(3), 15),
    ("rep-5", lambda: RepetitionCode(5), 8),
    ("rep-7", lambda: RepetitionCode(7), 5),
    ("xxzz-3", lambda: XXZZCode(3, 3), 8),
    ("xxzz-5", lambda: XXZZCode(5, 5), 3),
    ("xxzz-7", lambda: XXZZCode(7, 7), 2),
]


def _batch_graph(label, weights):
    key = (label, weights)
    if key not in _CACHE:
        factory, rounds = next((f, r) for (l, f, r)
                               in BATCH_CODES + BLOSSOM_CODES if l == label)
        graph = DetectorGraph(factory(), rounds=rounds,
                              hook_edges=weights == "hook")
        if weights == "reweighted":
            # Erased, fractional and heavy edges: Dijkstra tables with
            # near-ties that unit graphs never produce.
            rng = np.random.default_rng(len(graph.edges))
            drawn = rng.choice([ERASED_WEIGHT, 0.25, 0.5, 1.0, 1.0, 2.0],
                               size=len(graph.edges))
            by_edge = dict(zip(map(id, graph.edges), drawn))
            graph = graph.reweighted(lambda e: by_edge[id(e)])
        _CACHE[key] = graph
    return _CACHE[key]


def _reference_parity(graph, bits):
    """One pattern through the per-pattern engines, as every commit
    before the batch kernel decoded it."""
    events = tuple(int(i) for i in np.nonzero(bits)[0])
    if not events:
        return 0
    match = (matching._dp_match if len(events) <= matching._DP_LIMIT
             else matching._nx_match)
    return match(events, graph.distances, graph.parities,
                 graph.num_nodes)[1]


def _defect_patterns(graph, rng):
    """Two patterns per defect count 1..16 — one of uniformly random
    defects, one clustered around a random node (the strike shape) —
    plus the empty pattern and, where the graph is large enough, two
    beyond ``_DP_LIMIT`` (the blossom route)."""
    n = graph.num_nodes
    counts = [0] + 2 * list(range(1, matching._DP_LIMIT + 1))
    counts += [k for k in (17, 19) if k <= n]
    patterns = np.zeros((len(counts), n), dtype=np.uint8)
    for row, k in enumerate(counts):
        if row % 2:
            chosen = rng.choice(n, size=k, replace=False)
        else:
            centre = int(rng.integers(n))
            chosen = np.argsort(graph.distances[centre, :n]
                                + 2.0 * rng.random(n))[:k]
        patterns[row, chosen] = 1
    return patterns


class TestBatchMatcherVsRecursion:
    @pytest.mark.parametrize("weights", ["unit", "hook", "reweighted"])
    @pytest.mark.parametrize("label", [c[0] for c in BATCH_CODES])
    def test_parities_bit_identical(self, blossom_executor, label, weights):
        graph = _batch_graph(label, weights)
        decoder = MWPMDecoder(graph, use_final_data=False,
                              cache_decodes=False)
        patterns = _defect_patterns(graph, np.random.default_rng(2024))
        want = np.array([_reference_parity(graph, bits)
                         for bits in patterns], dtype=np.uint8)
        # Mixed counts: the padded bucket, the exact-count buckets and
        # the blossom route, all in one call.
        np.testing.assert_array_equal(
            decoder._decode_patterns(patterns), want)
        counts = patterns.sum(axis=1)
        for k in np.unique(counts):
            np.testing.assert_array_equal(
                decoder._decode_patterns(patterns[counts == k]),
                want[counts == k], err_msg=f"single-count batch k={k}")
        for bits, parity in zip(patterns, want):
            assert decoder._decode_patterns(bits[None, :])[0] == parity
            assert decoder._decode_pattern(bits) == parity

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_kernel_cost_parity_and_ties_on_degenerate_tables(self, k):
        """Small-integer weights make most minima ties, unreachable
        nodes make whole option rows infinite: the kernel must still
        return the recursion's cost and parity exactly — alone, and
        padded with dummy events."""
        rng = np.random.default_rng(k)
        n, pad = 24, 2
        dist = rng.integers(1, 4, size=(n, n + 1)).astype(float)
        dist[rng.random((n, n + 1)) < 0.15] = np.inf
        dist[:, :n] = np.minimum(dist[:, :n], dist[:, :n].T)
        dist[:3] = np.inf                   # events nothing can reach
        parity = rng.integers(0, 2, size=(n, n + 1), dtype=np.uint8)
        events = np.sort(np.stack([rng.choice(n, size=k, replace=False)
                                   for _ in range(40)]), axis=1)
        want = [matching._dp_match(tuple(int(e) for e in row), dist,
                                   parity, n) for row in events]

        cost = np.full((len(events), k + pad, 1 + k + pad), np.inf)
        flip = np.zeros(cost.shape, dtype=np.uint8)
        cost[:, :k, 0] = dist[events, n] + matching._BOUNDARY_BIAS
        cost[:, k:, 0] = 0.0                # dummies: free to retire
        flip[:, :k, 0] = parity[events, n]
        cost[:, :k, 1:1 + k] = dist[events[:, :, None], events[:, None, :]]
        flip[:, :k, 1:1 + k] = parity[events[:, :, None],
                                      events[:, None, :]]
        for width in (k, k + pad):
            got_cost, got_flip = matching._dp_match_batch(
                cost[:, :width, :1 + width], flip[:, :width, :1 + width])
            assert got_cost.tolist() == [c for c, _ in want], width
            assert got_flip.tolist() == [p for _, p in want], width


def _native_match(events, dist, parity):
    """The native blossom on one pattern: ``(pairs, parity)``, pairs as
    a set of frozensets of ``_nx_pairs``' node labels."""
    kernel = _native.blossom()
    events = np.asarray(events, dtype=np.int64)
    mates, out = kernel.match(np.array([0, events.size], dtype=np.int64),
                              events, dist, parity, dist.shape[0],
                              matching._BOUNDARY_BIAS)

    def node(code):
        return ("eb"[code % 2], int(code) // 2)

    return ({frozenset((node(c), node(m))) for c, m in enumerate(mates)},
            int(out[0]))


def assert_native_equals_networkx(events, dist, parity):
    events = tuple(int(e) for e in events)
    want = {frozenset(pair) for pair in
            matching._nx_pairs(events, dist, dist.shape[0])}
    pairs, got_parity = _native_match(events, dist, parity)
    assert pairs == want, events
    assert got_parity == matching._nx_match(events, dist, parity,
                                            dist.shape[0])[1], events


@pytest.fixture(scope="module")
def blossom_kernel():
    if _native.blossom() is None:
        pytest.skip("native blossom kernel unavailable: "
                    + _native.blossom_unavailable_reason())


class TestNativeBlossomVsNetworkx:
    """The native blossom returns NetworkX's matching — the same set of
    pairs, not one of equal weight — and so its parity, on every
    pattern past ``_DP_LIMIT``.  NetworkX is the oracle."""

    @settings(**_SETTINGS)
    @given(label=st.sampled_from([c[0] for c in BLOSSOM_CODES]),
           weights=st.sampled_from(["unit", "hook", "reweighted"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_detector_graphs(self, blossom_kernel, label, weights, seed):
        graph = _batch_graph(label, weights)
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        k = int(rng.integers(matching._DP_LIMIT + 1, 31))
        uniform = rng.choice(n, size=k, replace=False)
        centre = int(rng.integers(n))
        clustered = np.argsort(graph.distances[centre, :n]
                               + 2.0 * rng.random(n))[:k]
        for events in (uniform, clustered):
            assert_native_equals_networkx(np.sort(events), graph.distances,
                                          graph.parities)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(matching._DP_LIMIT + 1, 30))
    def test_degenerate_tables(self, blossom_kernel, seed, k):
        """Small-integer distances (ties everywhere), unreachable pairs
        and boundaries (no edge, or an edge of weight ``-inf``) and an
        asymmetric parity table, where a pair's orientation decides the
        parity it contributes."""
        rng = np.random.default_rng(seed)
        n = 40
        dist = rng.integers(1, 4, size=(n, n + 1)).astype(float)
        dist[rng.random((n, n + 1)) < 0.15] = np.inf
        dist[:, :n] = np.minimum(dist[:, :n], dist[:, :n].T)
        dist[:3] = np.inf
        parity = rng.integers(0, 2, size=(n, n + 1), dtype=np.uint8)
        assert_native_equals_networkx(
            np.sort(rng.choice(n, size=k, replace=False)), dist, parity)

    def test_batch_of_mixed_widths_is_per_pattern(self, blossom_kernel):
        """One call over patterns of several widths answers each as a
        call of its own would."""
        graph = _batch_graph("xxzz-5", "hook")
        rng = np.random.default_rng(7)
        patterns = np.zeros((6, graph.num_nodes), dtype=np.uint8)
        for row, k in zip(patterns, (17, 30, 21, 0, 18, 25)):
            row[rng.choice(graph.num_nodes, size=k, replace=False)] = 1
        ptr, events = _native.csr_rows(patterns)
        _, parities = _native.blossom().match(
            ptr, events, graph.distances, graph.parities, graph.num_nodes,
            matching._BOUNDARY_BIAS)
        for bits, got in zip(patterns, parities):
            events = np.flatnonzero(bits)
            want = _native_match(events, graph.distances,
                                 graph.parities)[1] if events.size else 0
            assert got == want

    def test_malformed_input_is_refused_before_the_call(self, blossom_kernel):
        graph = _batch_graph("rep-7", "unit")
        kernel = _native.blossom()
        n = graph.num_nodes

        def match(ptr, events, bcol=n):
            return kernel.match(np.array(ptr), np.array(events),
                                graph.distances, graph.parities, bcol,
                                matching._BOUNDARY_BIAS)

        assert match([0, 2], [0, 1])[1].shape == (1,)
        for ptr, events, bcol in (([0, 2], [0, n], n), ([0, 2], [-1, 1], n),
                                  ([0, 3], [0, 1], n), ([1, 2], [0, 1], n),
                                  ([0, 2], [0, 1], n + 1)):
            with pytest.raises(ValueError, match="do not fit"):
                match(ptr, events, bcol)


def _degenerate_tables(rng, n):
    """Small-integer distances (ties everywhere) with unreachable
    entries and three unreachable rows, and an asymmetric parity
    table."""
    dist = rng.integers(1, 4, size=(n, n + 1)).astype(float)
    dist[rng.random((n, n + 1)) < 0.15] = np.inf
    dist[:, :n] = np.minimum(dist[:, :n], dist[:, :n].T)
    dist[:3] = np.inf
    parity = rng.integers(0, 2, size=(n, n + 1), dtype=np.uint8)
    return dist, parity


def _batch_inputs(events, dist, parity):
    """``_dp_match_batch``'s ``(cost, flip)`` for ``(P, k)`` events."""
    n = dist.shape[0]
    cost = np.empty((len(events), events.shape[1], 1 + events.shape[1]))
    flip = np.empty(cost.shape, dtype=np.uint8)
    cost[:, :, 0] = dist[events, n] + matching._BOUNDARY_BIAS
    flip[:, :, 0] = parity[events, n]
    cost[:, :, 1:] = dist[events[:, :, None], events[:, None, :]]
    flip[:, :, 1:] = parity[events[:, :, None], events[:, None, :]]
    return cost, flip


class TestNativeDpVsRecursion:
    """The native DP is ``_dp_match`` — cost and parity, ties included —
    and so agrees with ``_dp_match_batch`` too."""

    @settings(**{**_SETTINGS, "max_examples": 20})
    @given(source=st.sampled_from(
               ["tables"] + [(c[0], w) for c in BLOSSOM_CODES
                             for w in ("unit", "hook", "reweighted")]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_defect_count_in_one_call(self, blossom_kernel, source,
                                            seed):
        rng = np.random.default_rng(seed)
        if source == "tables":
            dist, parity = _degenerate_tables(rng, 24)
        else:
            graph = _batch_graph(*source)
            dist, parity = graph.distances, graph.parities
        n = dist.shape[0]
        # Every k = 0..16, twice, in shuffled order: one call stamps
        # its memo per pattern, whatever came before.
        ks = rng.permutation(2 * list(range(matching._DP_LIMIT + 1)))
        patterns = [np.sort(rng.choice(n, size=k, replace=False))
                    for k in ks]
        ptr = np.concatenate([[0], np.cumsum(ks)])
        events = np.concatenate(patterns).astype(np.int64)
        costs, parities = _native.blossom().dp(
            ptr, events, dist, parity, n, matching._BOUNDARY_BIAS)
        for k, row, cost, flip in zip(ks, patterns, costs, parities):
            want = matching._dp_match(tuple(row.tolist()), dist, parity, n)
            assert (cost, flip) == want, (k, row)
            assert np.float64(cost).tobytes() \
                == np.float64(want[0]).tobytes()
        for k in range(matching._DP_LIMIT + 1):
            which = np.flatnonzero(ks == k)
            rows = np.stack([patterns[i] for i in which])
            batch_cost, batch_flip = matching._dp_match_batch(
                *_batch_inputs(rows, dist, parity))
            assert batch_cost.tobytes() == costs[which].tobytes(), k
            assert batch_flip.tolist() == parities[which].tolist(), k

    def test_refuses_what_it_cannot_match(self, blossom_kernel):
        graph = _batch_graph("rep-7", "unit")
        kernel = _native.blossom()
        n = graph.num_nodes

        def dp(ptr, events):
            return kernel.dp(np.array(ptr), np.array(events, dtype=np.int64),
                             graph.distances, graph.parities, n,
                             matching._BOUNDARY_BIAS)

        limit = matching._DP_LIMIT
        assert dp([0, limit], range(limit))[1].shape == (1,)
        assert dp([0], [])[1].shape == (0,)
        with pytest.raises(ValueError, match="input refused"):
            dp([0, 0, limit + 1], range(limit + 1))
        for events in ([0, n], [-1, 1]):
            with pytest.raises(ValueError, match="do not fit"):
                dp([0, 2], events)

    def test_kernel_checks_the_event_range_itself(self, blossom_kernel):
        """Behind the wrapper's check, the kernel refuses an event past
        the tables' rows before reading anything."""
        graph = _batch_graph("rep-7", "unit")
        dist = np.ascontiguousarray(graph.distances)
        parity = np.ascontiguousarray(graph.parities)
        n = graph.num_nodes
        ptr = np.array([0, 2], dtype=np.int64)
        events = np.array([0, n], dtype=np.int64)
        costs = np.empty(1)
        out = np.empty(1, dtype=np.uint8)
        status = _native.blossom()._dp(
            1, ptr.ctypes.data, events.ctypes.data, n, n + 1, n,
            dist.ctypes.data, parity.ctypes.data, matching._BOUNDARY_BIAS,
            costs.ctypes.data, out.ctypes.data)
        assert status == _native.BAD_INPUT


#: A radiation strike on XXZZ(5,5) under MWPM: patterns of every
#: defect count up to the low twenties.
STRIKE = {
    "codes": [{"kind": "xxzz", "distance": [5, 5]}], "rounds": 5,
    "p_values": [1e-3], "decoder": "mwpm", "backend": "frames",
    "shots": 512, "root_seed": 7,
    "faults": [{"kind": "radiation", "root_qubit": 12, "time_index": 0}]}

_MATCHER_COUNTERS = ("decode.dp_native_patterns", "decode.dp_python_patterns",
                     "decode.blossom_native_patterns",
                     "decode.blossom_python_patterns", "decode.cache_misses")


def _counters():
    return np.array([obs.counter(name).value for name in _MATCHER_COUNTERS])


class TestNativeMatcherInCampaigns:
    def test_no_lattice_is_built_with_the_kernel(self, blossom_kernel):
        matching._lattice.cache_clear()
        before = _counters()
        build_sweep(STRIKE).run(workers=1)
        dp_native, dp_python, bl_native, bl_python, misses = \
            _counters() - before
        assert matching._lattice.cache_info().currsize == 0
        assert dp_python == bl_python == 0
        assert dp_native > 0 and bl_native > 0
        assert dp_native + bl_native == misses

    def test_hidden_library_decodes_the_same(self, blossom_kernel,
                                             monkeypatch):
        graph = _batch_graph("xxzz-5", "hook")
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 25, size=200)
        patterns = np.zeros((counts.size, graph.num_nodes), dtype=np.uint8)
        for row, k in zip(patterns, counts):
            row[rng.choice(graph.num_nodes, size=k, replace=False)] = 1
        decoder = MWPMDecoder(graph, use_final_data=False,
                              cache_decodes=False)
        light = int(np.count_nonzero(counts <= matching._DP_LIMIT))
        before = _counters()
        native = decoder._decode_patterns(patterns)
        monkeypatch.setattr(_native, "blossom", lambda: None)
        hidden = decoder._decode_patterns(patterns)
        np.testing.assert_array_equal(hidden, native)
        dp_native, dp_python, bl_native, bl_python, _ = _counters() - before
        assert (dp_native, dp_python) == (light, light)
        assert (bl_native, bl_python) == (counts.size - light,) * 2
