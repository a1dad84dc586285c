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
* **Batch kernel** — ``MWPMDecoder._decode_patterns`` returns the
  parity of its oracles (``oracles.decoders``: the memoised recursion
  ``dp_match`` up to 16 defects, NetworkX's ``nx_match`` past them)
  *bit for bit, ties included*: for every defect count 1..16 and two
  past it, random and clustered defects, unit / hook / reweighted
  graphs, single-count, mixed-count and one-pattern batches.
* **Native DP** — up to 16 defects, ``_blossom.c``'s ``repro_dp_match``
  returns the cost and parity of ``dp_match`` bit for bit, for every
  defect count 0..16 in one call, on tie-heavy small-integer tables
  with unreachable entries and rows and on repetition / XXZZ
  d = 3/5/7 graphs, unit / hook / reweighted.
* **Native blossom** — past 16 defects, ``_blossom.c`` returns the very
  matching NetworkX's ``max_weight_matching`` returns (the same set of
  pairs) and ``nx_match``'s parity: 17..30 defects on repetition and
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
from oracles.decoders import (dp_match, mwpm_parity, nx_match, nx_pairs,
                              uf_decode_pattern)

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
    def test_parities_bit_identical(self, label, weights):
        graph = _batch_graph(label, weights)
        decoder = MWPMDecoder(graph, use_final_data=False,
                              cache_decodes=False)
        patterns = _defect_patterns(graph, np.random.default_rng(2024))
        want = np.array([mwpm_parity(graph, bits)
                         for bits in patterns], dtype=np.uint8)
        # Mixed counts: the DP and the blossom route in one call.
        np.testing.assert_array_equal(
            decoder._decode_patterns(patterns), want)
        counts = patterns.sum(axis=1)
        for k in np.unique(counts):
            np.testing.assert_array_equal(
                decoder._decode_patterns(patterns[counts == k]),
                want[counts == k], err_msg=f"single-count batch k={k}")
        for bits, parity in zip(patterns, want):
            assert decoder._decode_patterns(bits[None, :])[0] == parity
            assert decoder.decode_detectors(bits) == parity

    @pytest.mark.parametrize("weights", ["unit", "hook", "reweighted"])
    @pytest.mark.parametrize("label", [c[0] for c in BATCH_CODES])
    def test_union_find_parities_bit_identical(self, label, weights):
        """The same sweep of every defect count through union-find's
        kernel and its oracle, both growth rules."""
        graph = _batch_graph(label, weights)
        patterns = _defect_patterns(graph, np.random.default_rng(2025))
        for weighted_growth in (True, False):
            decoder = UnionFindDecoder(graph, use_final_data=False,
                                       cache_decodes=False,
                                       weighted_growth=weighted_growth)
            want = [uf_decode_pattern(decoder, bits) for bits in patterns]
            np.testing.assert_array_equal(
                decoder._decode_patterns(patterns), want)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11])
    def test_kernel_cost_parity_and_ties_on_degenerate_tables(self, k):
        """Small-integer weights make most minima ties, unreachable
        nodes make whole option rows infinite: the native DP must still
        return the recursion's cost and parity exactly — for a batch of
        one defect count, and for each of its patterns alone."""
        rng = np.random.default_rng(k)
        dist, parity = _degenerate_tables(rng, 24)
        n = dist.shape[0]
        events = np.sort(np.stack([rng.choice(n, size=k, replace=False)
                                   for _ in range(40)]), axis=1)
        want = [dp_match(tuple(int(e) for e in row), dist, parity, n)
                for row in events]
        kernel = _native.blossom()
        ptr = np.arange(0, events.size + 1, k, dtype=np.int64)
        costs, flips = kernel.dp(ptr, events.reshape(-1), dist, parity, n,
                                 matching._BOUNDARY_BIAS)
        assert costs.tolist() == [c for c, _ in want]
        assert flips.tolist() == [p for _, p in want]
        for row, (cost, flip) in zip(events, want):
            alone = kernel.dp(np.array([0, k]), row, dist, parity, n,
                              matching._BOUNDARY_BIAS)
            assert (alone[0][0], alone[1][0]) == (cost, flip), row


def _native_match(events, dist, parity):
    """The native blossom on one pattern: ``(pairs, parity)``, pairs as
    a set of frozensets of ``nx_pairs``' node labels."""
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
            nx_pairs(events, dist, dist.shape[0])}
    pairs, got_parity = _native_match(events, dist, parity)
    assert pairs == want, events
    assert got_parity == nx_match(events, dist, parity,
                                  dist.shape[0])[1], events


class TestNativeBlossomVsNetworkx:
    """The native blossom returns NetworkX's matching — the same set of
    pairs, not one of equal weight — and so its parity, on every
    pattern past ``_DP_LIMIT``.  NetworkX is the oracle."""

    @settings(**_SETTINGS)
    @given(label=st.sampled_from([c[0] for c in BLOSSOM_CODES]),
           weights=st.sampled_from(["unit", "hook", "reweighted"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_detector_graphs(self, label, weights, seed):
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
    def test_degenerate_tables(self, seed, k):
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

    def test_batch_of_mixed_widths_is_per_pattern(self):
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

    def test_malformed_input_is_refused_before_the_call(self):
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


class TestNativeDpVsRecursion:
    """The native DP is its oracle ``dp_match`` — cost and parity, ties
    included."""

    @settings(**{**_SETTINGS, "max_examples": 20})
    @given(source=st.sampled_from(
               ["tables"] + [(c[0], w) for c in BLOSSOM_CODES
                             for w in ("unit", "hook", "reweighted")]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_defect_count_in_one_call(self, source,
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
            want = dp_match(tuple(row.tolist()), dist, parity, n)
            assert (cost, flip) == want, (k, row)
            assert np.float64(cost).tobytes() \
                == np.float64(want[0]).tobytes()

    def test_refuses_what_it_cannot_match(self):
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

    def test_kernel_checks_the_event_range_itself(self):
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


class TestNativeMatcherInCampaigns:
    def test_every_strike_pattern_matches_the_oracles(self, monkeypatch):
        """Every pattern a strike campaign's MWPM point hands the
        matcher — each a cache miss, light ones to the DP, heavy ones
        to the blossom — decodes to its oracle's parity."""
        from repro.injection.campaign import _prepared, _task_context

        for cache in (_task_context, _prepared):
            cache.cache_clear()
        seen = []
        for name in ("_dp_parities", "_blossom_parities"):
            def spy(graph, bits, real=getattr(matching, name)):
                parities = real(graph, bits)
                seen.append((graph, bits.copy(), parities.copy()))
                return parities

            monkeypatch.setattr(matching, name, spy)
        misses = obs.counter("decode.cache_misses").value
        build_sweep(STRIKE).run(workers=1)
        assert sum(len(bits) for _, bits, _ in seen) \
            == obs.counter("decode.cache_misses").value - misses
        heavy = 0
        for graph, bits, parities in seen:
            for row, parity in zip(bits, parities):
                heavy += int(row.sum()) > matching._DP_LIMIT
                assert mwpm_parity(graph, row) == parity
        assert 0 < heavy < sum(len(bits) for _, bits, _ in seen)
        for cache in (_task_context, _prepared):
            cache.cache_clear()
