"""Batched packed-syndrome decoding: the unified ``decode_batch`` API.

The redesign's contract, pinned here from four sides:

* **Entry-form invariance** — records are words from the carrier on,
  so the same shots entered as uint8 rows (packed once by
  ``SyndromeBatch.from_records``) and as a word stream decode to the
  same bits and leave the same ``decode.*`` counters, including when
  the stream's tail word carries garbage don't-care bits; the word
  front-end is checked against the per-shot reference
  (``DetectorGraph.detection_events`` over ``experiment.syndromes``).
* **Cache transparency** — the syndrome-dedup cache is exact: cache
  on/off, fresh-vs-warm caches, and a cache that fills up mid-batch
  never change a single decoded bit.
* **Batched misses** — the distinct patterns a block misses are decoded
  by one ``_decode_patterns`` call, the one hook a decoder implements:
  the profiler's stage counts still tie out, union-find's per-graph
  tables cannot go stale, its native batch kernel returns its oracle's
  parities bit for bit, so does MWPM's native blossom — on every heavy
  pattern of the ``strike_decode`` points, with NetworkX needed by no
  decode — a pattern wider than the graph is refused, and the
  strike-regime counts are pinned to the pre-batching commit's.
* **Engine invariance** — campaign counts stay independent of chunk
  size, worker count and store resume now that the frames hot path
  feeds packed words straight to the decoder.
"""

import contextlib
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codes import RepetitionCode, XXZZCode, build_memory_experiment
from repro.decoders import (
    BOUNDARY,
    ERASED_WEIGHT,
    DecodeCache,
    Decoder,
    DecoderSpec,
    DetectorGraph,
    MWPMDecoder,
    SyndromeBatch,
    UnionFindDecoder,
    as_decoder,
    decoder_for,
    pack_pattern_columns,
    prepare_packed_inputs,
)
from repro.decoders import _native as decoder_native
from repro.decoders import matching
from repro.decoders.batch import unique_keys
from oracles.decoders import (axis0_dedup, axis0_unique_keys, nx_match,
                              nx_pairs, oracle_decoders, uf_decode_pattern)
from repro.frames.packing import WORD_BITS, pack_bool_rows, unpack_words
from repro.injection import (
    Campaign,
    CampaignStore,
    CodeSpec,
    FaultSpec,
    InjectionTask,
    run_task,
)
from repro.noise import DepolarizingNoise, NoiseModel, run_batch_noisy
from repro import obs
from repro.obs import prof


def _noisy_records(exp, p, shots, rng):
    noise = NoiseModel([DepolarizingNoise(p)])
    return run_batch_noisy(exp.circuit, noise, shots, rng=rng)


def _pack_records(records, rng=None):
    """Rows -> (num_cbits, W) word stream, optionally with garbage
    don't-care bits planted past the batch size (frames streams carry
    random fills there, so decoders must never read them)."""
    B = records.shape[0]
    words = pack_bool_rows(np.ascontiguousarray(records.T))
    if rng is not None and B % WORD_BITS:
        tail = np.uint64(rng.integers(0, 1 << 62, size=words.shape[0]))
        words[:, -1] ^= tail << np.uint64(B % WORD_BITS)
    return words


class TestSyndromeBatch:
    def test_rows_round_trip(self):
        rng = np.random.default_rng(0)
        rec = rng.integers(0, 2, size=(100, 9), dtype=np.uint8)
        batch = SyndromeBatch.from_records(rec)
        assert batch.batch_size == 100
        assert batch.num_cbits == 9
        np.testing.assert_array_equal(batch.record_words,
                                      _pack_records(rec))
        np.testing.assert_array_equal(batch.bit_column(3), rec[:, 3])

    def test_bit_column_drops_tail(self):
        rng = np.random.default_rng(1)
        rec = rng.integers(0, 2, size=(70, 5), dtype=np.uint8)
        words = _pack_records(rec, rng)   # garbage bits 70..127
        batch = SyndromeBatch.from_record_words(words, 70)
        assert batch.num_cbits == 5
        for cbit in range(5):
            np.testing.assert_array_equal(batch.bit_column(cbit),
                                          rec[:, cbit])

    def test_shots_cuts_on_word_boundaries(self):
        rng = np.random.default_rng(2)
        rec = rng.integers(0, 2, size=(200, 4), dtype=np.uint8)
        batch = SyndromeBatch.from_records(rec)
        part = batch.shots(128, 72)
        assert part.batch_size == 72
        np.testing.assert_array_equal(part.bit_column(2), rec[128:, 2])
        with pytest.raises(ValueError, match="word boundaries"):
            batch.shots(100, 64)

    def test_needs_some_payload(self):
        with pytest.raises(TypeError):
            SyndromeBatch(8)

    @pytest.mark.parametrize("batch_size", [0, -3, 64, 129, 200])
    def test_batch_size_must_fit_the_stream(self, batch_size):
        """A 100-shot, 2-word stream holds 65..128 shots — it used to
        "decode" 200."""
        rng = np.random.default_rng(3)
        words = _pack_records(
            rng.integers(0, 2, size=(100, 4), dtype=np.uint8))
        assert SyndromeBatch.from_record_words(words, 100).batch_size == 100
        with pytest.raises(ValueError):
            SyndromeBatch.from_record_words(words, batch_size)

    def test_zero_shot_rows_rejected(self):
        with pytest.raises(ValueError):
            SyndromeBatch.from_records(np.zeros((0, 4), dtype=np.uint8))


class TestDecodeCache:
    def test_hit_miss_accounting(self):
        cache = DecodeCache()
        assert cache.get(4, b"\x01") is None
        cache.put(4, b"\x01", 1)
        assert cache.get(4, b"\x01") == 1
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert cache.hit_rate == 0.5

    def test_pattern_length_disambiguates(self):
        cache = DecodeCache()
        cache.put(4, b"\x01", 1)
        assert cache.get(8, b"\x01") is None

    def test_capacity_stops_admitting(self):
        cache = DecodeCache(capacity=2)
        cache.put(1, b"a", 1)
        cache.put(1, b"b", 0)
        cache.put(1, b"c", 1)          # full: dropped, not evicting
        assert len(cache) == 2
        assert cache.get(1, b"a") == 1
        assert cache.get(1, b"c") is None

    def test_replace_gets_fresh_cache(self):
        """dataclasses.replace(decoder, ...) must not inherit parities
        decoded against the old graph."""
        exp = build_memory_experiment(RepetitionCode(5))
        dec = decoder_for(exp, "mwpm")
        dec.decode_batch(exp, _noisy_records(exp, 0.05, 256, rng=3))
        assert len(dec.cache_info) > 0
        clone = dataclasses.replace(dec, graph=dec.graph)
        assert clone.cache_info is None or len(clone.cache_info) == 0


class TestPackPatternColumns:
    @pytest.mark.parametrize("num_det,shots", [(1, 5), (9, 64), (23, 130),
                                               (61, 4096)])
    def test_matches_row_packbits(self, num_det, shots):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(num_det, shots), dtype=np.uint8)
        planes = pack_bool_rows(bits)
        idx = rng.permutation(shots)[: max(1, shots // 2)]
        keys = pack_pattern_columns(planes, idx)
        expect = np.packbits(bits[:, idx].T, axis=1, bitorder="little")
        np.testing.assert_array_equal(keys, expect)


@st.composite
def _pattern_keys(draw):
    """``(N, nbytes)`` uint8 keys, 1-2000 x 1-17, drawn from a small
    pool so rows repeat heavily; half the pool are copies of other
    rows with trailing bytes zeroed, which an ``S`` view (it strips
    trailing NULs) would merge with their originals."""
    rows = draw(st.integers(1, 2000))
    nbytes = draw(st.integers(1, 17))
    pool_size = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, 256, size=(pool_size, nbytes), dtype=np.uint8)
    pool[rng.random(pool.shape) < 0.5] = 0
    cut = pool.copy()
    for row in cut:
        row[rng.integers(0, nbytes + 1):] = 0
    pool = np.concatenate([pool, cut])
    return np.ascontiguousarray(pool[rng.integers(0, len(pool), rows)])


class TestUniqueKeys:
    """The void-column dedup against the ``np.unique(axis=0)`` oracle."""

    @settings(max_examples=200, deadline=None)
    @given(keys=_pattern_keys())
    def test_matches_axis0_oracle(self, keys):
        uniq, inverse, key_bytes = unique_keys(keys)
        want_uniq, want_inverse, want_bytes = axis0_unique_keys(keys)
        assert uniq.dtype == np.uint8
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(inverse, want_inverse)
        assert key_bytes == want_bytes
        np.testing.assert_array_equal(uniq[inverse], keys)

    def test_trailing_zero_bytes_stay_distinct(self):
        keys = np.array([[1, 0, 0], [1, 0, 0], [1, 0, 1], [1, 0, 0],
                         [0, 0, 0], [1, 0, 1]], dtype=np.uint8)
        uniq, inverse, key_bytes = unique_keys(keys)
        assert key_bytes == [b"\x00\x00\x00", b"\x01\x00\x00",
                             b"\x01\x00\x01"]
        assert inverse.tolist() == [1, 1, 2, 1, 0, 2]

    @pytest.mark.parametrize("kind", ["mwpm", "union-find"])
    @pytest.mark.parametrize("struck", [False, True])
    def test_cache_traffic_unchanged(self, kind, struck):
        """Over a quiet and a struck XXZZ(3,3) batch sequence, the
        corrections and the decode cache's hits, misses and size are
        those of the ``axis=0`` dedup."""
        from repro.noise import RadiationChannel

        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        channels = [DepolarizingNoise(1e-3 if struck else 5e-4)]
        if struck:
            probs = np.zeros(exp.circuit.num_qubits)
            probs[[0, 1, 4]] = 0.5
            channels.append(RadiationChannel(probs))
        noise = NoiseModel(channels)
        batches = [run_batch_noisy(exp.circuit, noise, 700, rng=seed)
                   for seed in (1, 2, 3)]

        def traffic():
            dec = decoder_for(exp, kind)
            out = [dec.decode_batch(exp, rows).corrections
                   for rows in batches]
            info = dec.cache_info
            return out, (info.hits, info.misses, len(info))

        got, got_cache = traffic()
        with axis0_dedup():
            want, want_cache = traffic()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert got_cache == want_cache
        assert got_cache[0] > 0 and got_cache[1] > 0


@pytest.mark.parametrize("kind", ["mwpm", "union-find"])
@pytest.mark.parametrize("code_factory,readout", [
    (lambda: RepetitionCode(5), "ancilla"),
    (lambda: RepetitionCode(5), "data"),
    (lambda: XXZZCode(3, 3), "ancilla"),
    (lambda: XXZZCode(3, 3), "data"),
])
class TestPackedRowsBitIdentity:
    def test_packed_equals_rows(self, kind, code_factory, readout):
        """Same shots, two entry forms, one answer — even with garbage
        don't-care tail bits in the word stream."""
        exp = build_memory_experiment(code_factory(), rounds=3)
        rng = np.random.default_rng(11)
        rec = _noisy_records(exp, 0.02, 200, rng=4)
        words = _pack_records(rec, rng)
        use_final = readout == "data"
        via_rows = decoder_for(exp, kind, use_final_data=use_final) \
            .decode_batch(exp, SyndromeBatch.from_records(rec))
        via_words = decoder_for(exp, kind, use_final_data=use_final) \
            .decode_batch(exp, SyndromeBatch.from_record_words(words, 200))
        np.testing.assert_array_equal(via_rows.decoded, via_words.decoded)
        np.testing.assert_array_equal(via_rows.corrections,
                                      via_words.corrections)

    @pytest.mark.parametrize("shots", [1, 63, 64, 65])
    def test_entry_form_invariance_at_word_edges(self, kind, code_factory,
                                                 readout, shots):
        """Rows-in == words-in at batch sizes around a word boundary,
        for the memory-basis graph and (ancilla readout) its dual —
        and both leave the same ``decode.*`` counters: a pattern is a
        shot with at least one detection event, however it entered."""
        exp = build_memory_experiment(code_factory(), rounds=3)
        rec = _noisy_records(exp, 0.03, shots, rng=14)
        words = _pack_records(rec, np.random.default_rng(15))
        use_final = readout == "data"
        bases = [exp.basis] + ([] if use_final else
                               [{"Z": "X", "X": "Z"}[exp.basis]])
        for basis in bases:
            results, counters = [], []
            for batch in (rec, SyndromeBatch.from_record_words(words,
                                                               shots)):
                dec = decoder_for(exp, kind, basis=basis,
                                  use_final_data=use_final)
                obs.registry().reset()
                results.append(dec.decode_batch(exp, batch))
                snap = obs.registry().snapshot()["counters"]
                counters.append({k: v for k, v in snap.items()
                                 if k.startswith("decode.")})
            np.testing.assert_array_equal(results[0].decoded,
                                          results[1].decoded)
            np.testing.assert_array_equal(results[0].corrections,
                                          results[1].corrections)
            assert counters[0] == counters[1]
            assert set(counters[0]) >= {"decode.patterns",
                                        "decode.distinct_patterns"}

    def test_cache_off_identical(self, kind, code_factory, readout):
        exp = build_memory_experiment(code_factory(), rounds=3)
        rec = _noisy_records(exp, 0.02, 200, rng=4)
        use_final = readout == "data"
        spec = as_decoder(kind)
        cached = decoder_for(exp, spec, use_final_data=use_final)
        plain = decoder_for(exp, dataclasses.replace(spec, cache=False),
                            use_final_data=use_final)
        r_cached = cached.decode_batch(exp, rec)
        r_plain = plain.decode_batch(exp, rec)
        assert plain.cache_info is None
        assert cached.cache_info.hits + cached.cache_info.misses > 0
        np.testing.assert_array_equal(r_cached.decoded, r_plain.decoded)

    def test_warm_cache_identical(self, kind, code_factory, readout):
        """Replaying a batch through a warm cache changes nothing."""
        exp = build_memory_experiment(code_factory(), rounds=3)
        rec = _noisy_records(exp, 0.02, 200, rng=4)
        dec = decoder_for(exp, kind, use_final_data=readout == "data")
        first = dec.decode_batch(exp, rec)
        again = dec.decode_batch(exp, rec)
        assert dec.cache_info.hits > 0
        np.testing.assert_array_equal(first.decoded, again.decoded)


@pytest.mark.parametrize("kind", ["mwpm", "union-find"])
class TestBatchedMisses:
    """Probe every key, decode the misses together, scatter."""

    @pytest.fixture(scope="class")
    def shots(self):
        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        return exp, _noisy_records(exp, 0.03, 300, rng=5)

    def test_cache_filling_mid_batch_identical(self, kind, shots):
        exp, rec = shots
        plain = decoder_for(exp, dataclasses.replace(as_decoder(kind),
                                                     cache=False))
        want = plain.decode_batch(exp, rec).corrections
        dec = decoder_for(exp, kind)
        dec.__dict__["_decode_cache"] = DecodeCache(capacity=7)
        first = dec.decode_batch(exp, rec)
        info = dec.cache_info
        assert len(info) == 7 < info.misses     # filled, then refused
        np.testing.assert_array_equal(first.corrections, want)
        again = dec.decode_batch(exp, rec)
        assert info.hits == 7                   # the admitted ones replay
        np.testing.assert_array_equal(again.corrections, want)

    def test_profiler_on_off_identical_and_stages_tie_out(self, kind,
                                                          shots):
        exp, rec = shots
        want = decoder_for(exp, kind).decode_batch(exp, rec).corrections
        dec = decoder_for(exp, kind)
        with prof.profile() as p:
            got = dec.decode_batch(exp, rec).corrections
            dec.decode_batch(exp, rec[:50])     # all hits: no matcher call
        np.testing.assert_array_equal(got, want)
        stages = p.snapshot()["stages"]
        info = dec.cache_info
        assert stages["decode.dedup"]["calls"] == 2
        assert stages["decode.cache_probe"]["calls"] \
            == info.hits + info.misses
        assert stages["decode.matcher"]["calls"] == info.misses

    def test_one_hook_decoder(self, kind, shots):
        """A decoder written against the one-method contract — only
        ``_decode_patterns`` — decodes every distinct pattern once, as
        the built-in decoders do; without it there is no decoder."""
        exp, rec = shots
        inner = decoder_for(exp, kind)

        class OneHook(Decoder):
            graph = inner.graph
            use_final_data = inner.use_final_data
            name = "one-hook"
            patterns = 0

            def _decode_patterns(self, bits):
                type(self).patterns += len(bits)
                return inner._decode_patterns(bits)

        got = OneHook().decode_batch(exp, rec)
        reference = decoder_for(exp, kind)
        want = reference.decode_batch(exp, rec)
        np.testing.assert_array_equal(got.corrections, want.corrections)
        assert OneHook.patterns == reference.cache_info.misses

        class NoHook(Decoder):
            name = "no-hook"

        with pytest.raises(TypeError, match="_decode_patterns"):
            NoHook()


class TestUnionFindGraphTables:
    """The growth tables hoisted onto the graph: same parities as the
    per-pattern rebuild (digests taken at the parent commit) through
    the reference and the batch hook alike, and a ``reweighted()`` copy
    of an already-decoded graph starts clean."""

    #: ``np.packbits`` of the 120 parities, hex — parent commit.
    PARENT = {"base": "9a00c0642332064c138121b110822c",
              "erased": "9808c04c213140581280c585108268"}

    @staticmethod
    def _erase_near(graph, node):
        near = graph.distances[node, :graph.num_nodes] <= 1
        return graph.reweighted(
            lambda e: ERASED_WEIGHT
            if e.u >= 0 and e.v >= 0 and near[e.u] and near[e.v]
            else (2.0 if e.hook else e.weight))

    @staticmethod
    def _digests(decoder, patterns):
        """Digest of the oracle's parities, then of the batch
        hook's."""
        one = np.array([uf_decode_pattern(decoder, bits)
                        for bits in patterns], dtype=np.uint8)
        batch = np.asarray(decoder._decode_patterns(patterns),
                           dtype=np.uint8)
        return [np.packbits(p).tobytes().hex() for p in (one, batch)]

    def test_parities_match_parent_and_no_stale_tables(self):
        base = DetectorGraph(XXZZCode(5, 5), rounds=5, hook_edges=True)
        rng = np.random.default_rng(41)
        uniform = rng.random((120, base.num_nodes))
        density = rng.choice([0.03, 0.1, 0.25], size=(120, 1))
        patterns = (uniform < density).astype(np.uint8)
        dec = UnionFindDecoder(base, use_final_data=False,
                               cache_decodes=False)
        assert self._digests(dec, patterns) == [self.PARENT["base"]] * 2
        # Built from a graph whose tables already exist: the copy must
        # not see them (38 erased edges, hooks at weight 2).
        erased = self._erase_near(base, 30)
        assert base.unit_weights and not erased.unit_weights
        rebound = dataclasses.replace(dec, graph=erased)
        assert self._digests(rebound, patterns) \
            == [self.PARENT["erased"]] * 2
        # ... and decoding on the copy left the original's alone.
        assert self._digests(dec, patterns) == [self.PARENT["base"]] * 2


#: (label, code factory) of the union-find bit-identity property.
UF_CODES = {"rep-3": lambda: RepetitionCode(3),
            "rep-5": lambda: RepetitionCode(5),
            "xxzz-3": lambda: XXZZCode(3, 3),
            "xxzz-5": lambda: XXZZCode(5, 5)}
_UF_GRAPHS = {}


def _uf_graph(label, hooks):
    key = (label, hooks)
    if key not in _UF_GRAPHS:
        _UF_GRAPHS[key] = DetectorGraph(UF_CODES[label](), rounds=5,
                                        hook_edges=hooks)
    return _UF_GRAPHS[key]


def _strike_reweighted(graph, centre):
    """Erasure-reweighted the way burst recovery does it: erased edges
    around ``centre``, a graded skirt of fractional weights next to
    them, hooks at weight 2 — float growth with uneven steps, and
    pre-grown clusters whose peel order is the one a Python ``set``
    gives (not the order the edges were added)."""
    dist = graph.distances[centre, :graph.num_nodes]

    def weight(e):
        ends = [dist[x] for x in (e.u, e.v) if x != BOUNDARY]
        if max(ends) <= 1:
            return ERASED_WEIGHT
        if min(ends) <= 2:
            return 0.4
        return 2.0 if e.hook else e.weight

    return graph.reweighted(weight)


def _uf_patterns(graph, rng, count):
    """Uniform patterns over a spread of densities, and strike-shaped
    ones: defects clustered around a random node."""
    n = graph.num_nodes
    density = rng.choice([0.02, 0.05, 0.1, 0.25, 0.5], size=(count, 1))
    patterns = (rng.random((count, n)) < density).astype(np.uint8)
    for row in patterns[::2]:
        dist = graph.distances[int(rng.integers(n)), :n]
        row[:] = rng.random(n) < 0.6 * (dist <= rng.integers(1, 4))
    return patterns


class TestUnionFindNativeBatch:
    """``UnionFindDecoder._decode_patterns`` — the native kernel —
    against its oracle, ``uf_decode_pattern`` one pattern at a time:
    equal parities on every graph shape the decoder meets."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(label=st.sampled_from(sorted(UF_CODES)), hooks=st.booleans(),
           erased=st.booleans(), weighted_growth=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_equals_reference_loop(self, label, hooks, erased,
                                         weighted_growth, seed):
        rng = np.random.default_rng(seed)
        graph = _uf_graph(label, hooks)
        if erased:
            graph = _strike_reweighted(graph,
                                       int(rng.integers(graph.num_nodes)))
        dec = UnionFindDecoder(graph, use_final_data=False,
                               cache_decodes=False,
                               weighted_growth=weighted_growth)
        patterns = _uf_patterns(graph, rng, 24)
        want = np.array([uf_decode_pattern(dec, bits) for bits in patterns],
                        dtype=np.uint8)
        np.testing.assert_array_equal(dec._decode_patterns(patterns), want)
        # one at a time through the hook, and the empty batch
        for bits, parity in zip(patterns[:4], want):
            assert dec._decode_patterns(bits[None, :])[0] == parity
        assert dec._decode_patterns(patterns[:0]).shape == (0,)

    @pytest.mark.parametrize("weighted_growth", [False, True])
    def test_erased_graphs_peel_in_set_order(self, weighted_growth):
        """Where erasure pre-grows clusters, about one pattern in a
        hundred peels to another parity in the order its edges were
        added than in the order the oracle's ``set`` iterates: 1200
        such patterns, so a kernel peeling in the wrong order fails."""
        rng = np.random.default_rng(2506)
        base = _uf_graph("xxzz-3", False)
        for centre in range(0, base.num_nodes, 3):
            dec = UnionFindDecoder(_strike_reweighted(base, centre),
                                   use_final_data=False,
                                   cache_decodes=False,
                                   weighted_growth=weighted_growth)
            patterns = _uf_patterns(dec.graph, rng, 100)
            want = [uf_decode_pattern(dec, bits) for bits in patterns]
            np.testing.assert_array_equal(dec._decode_patterns(patterns),
                                          want, err_msg=f"centre {centre}")

    def test_growth_that_cannot_converge_raises_like_the_reference(self):
        """A defect on a detector no edge reaches never pairs up: both
        paths give up after the same guard and raise."""
        graph = _uf_graph("rep-3", False).reweighted(lambda e: e.weight)
        graph.edges = [e for e in graph.edges if 0 not in (e.u, e.v)]
        dec = UnionFindDecoder(graph, use_final_data=False,
                               cache_decodes=False)
        bits = np.zeros((2, graph.num_nodes), dtype=np.uint8)
        bits[1, 0] = 1
        with pytest.raises(RuntimeError, match="failed to converge"):
            uf_decode_pattern(dec, bits[1])
        with pytest.raises(RuntimeError, match="failed to converge"):
            dec._decode_patterns(bits)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_every_strike_pattern_matches_the_oracle(
            self, fresh_decoders, monkeypatch, seed):
        """Every pattern the ``strike_decode`` union-find points hand
        the kernel decodes to its oracle's parity."""
        from repro.injection import build_sweep

        seen = []
        real = UnionFindDecoder._decode_patterns

        def spy(decoder, bits):
            parities = real(decoder, bits)
            seen.append((decoder, bits.copy(), parities))
            return parities

        monkeypatch.setattr(UnionFindDecoder, "_decode_patterns", spy)
        build_sweep({**STRIKE_MWPM, "decoder": "union-find", "shots": 512,
                     "root_seed": seed}).run(workers=1)
        assert sum(len(bits) for _, bits, _ in seen) >= 500
        for decoder, bits, parities in seen:
            want = [uf_decode_pattern(decoder, row) for row in bits]
            np.testing.assert_array_equal(parities, want)

    def test_import_repro_loads_no_kernel(self):
        """The kernel is loaded by the first union-find decode, not by
        ``import repro``."""
        probe = ("import sys, repro; print(sorted(m for m in sys.modules "
                 "if m.endswith('_native') or m == 'repro._clib'))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


@pytest.fixture
def fresh_decoders():
    """Empty the campaign's per-process decoder caches before the test,
    so every pattern reaches the matcher, and after it, so the decode
    caches it filled reach no other test."""
    from repro.injection.campaign import _prepared, _task_context

    for cache in (_task_context, _prepared):
        cache.cache_clear()
    yield
    for cache in (_task_context, _prepared):
        cache.cache_clear()


#: The e2e benchmark's ``strike_decode`` MWPM points (workloads.py).
STRIKE_MWPM = {
    "codes": [{"kind": "xxzz", "distance": [5, 5]}], "rounds": 5,
    "p_values": [1e-3], "decoder": "mwpm", "backend": "frames",
    "shots": 1024,
    "faults": [{"kind": "radiation", "root_qubit": 12, "time_index": t}
               for t in (0, 1, 2)]}


def _heavy_patterns(graph, rng, count):
    """Patterns past ``_DP_LIMIT``: uniform, and clustered around a
    node the way a strike clusters them."""
    n = graph.num_nodes
    patterns = np.zeros((count, n), dtype=np.uint8)
    for i, row in enumerate(patterns):
        k = int(rng.integers(matching._DP_LIMIT + 1, 31))
        if i % 2:
            row[rng.choice(n, size=k, replace=False)] = 1
        else:
            dist = graph.distances[int(rng.integers(n)), :n]
            row[np.argsort(dist + 2.0 * rng.random(n))[:k]] = 1
    return patterns


class TestNativeBlossom:
    """``MWPMDecoder`` matches its patterns past ``_DP_LIMIT`` in one
    call to the native blossom, with its oracle ``nx_match``'s parity on
    every pattern; and no decode needs NetworkX."""

    def test_batch_equals_reference(self):
        graph = _strike_reweighted(_uf_graph("xxzz-5", True), 30)
        dec = MWPMDecoder(graph, use_final_data=False, cache_decodes=False)
        patterns = _heavy_patterns(graph, np.random.default_rng(11), 24)
        # light patterns ride along: only the heavy ones are counted
        patterns[::6, 16:] = 0
        heavy = patterns.sum(axis=1) > matching._DP_LIMIT
        want = [nx_match(tuple(np.flatnonzero(bits).tolist()),
                         graph.distances, graph.parities,
                         graph.num_nodes)[1]
                for bits in patterns[heavy]]
        np.testing.assert_array_equal(
            dec._decode_patterns(patterns)[heavy], want)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_every_strike_heavy_pattern_matches_networkx(
            self, fresh_decoders, monkeypatch, seed):
        """Every pattern the ``strike_decode`` MWPM points hand the
        blossom: the native pairs are NetworkX's pairs."""
        from repro.injection import build_sweep

        kernel = decoder_native.blossom()
        seen = []
        real = matching._blossom_parities

        def spy(graph, bits):
            seen.append((graph, bits.copy()))
            return real(graph, bits)

        monkeypatch.setattr(matching, "_blossom_parities", spy)
        build_sweep({**STRIKE_MWPM, "root_seed": seed}).run(workers=1)
        assert sum(len(bits) for _, bits in seen) >= 20
        for graph, bits in seen:
            ptr, events = decoder_native.csr_rows(bits)
            mates, _ = kernel.match(ptr, events, graph.distances,
                                    graph.parities, graph.num_nodes,
                                    matching._BOUNDARY_BIAS)
            for p, row in enumerate(bits):
                pattern = tuple(np.flatnonzero(row).tolist())
                code = mates[2 * ptr[p]:2 * ptr[p + 1]].tolist()
                node = [("e", c // 2) if c % 2 == 0 else ("b", c // 2)
                        for c in range(len(code))]
                got = {frozenset((node[c], node[m]))
                       for c, m in enumerate(code)}
                want = {frozenset(pair) for pair in nx_pairs(
                    pattern, graph.distances, graph.num_nodes)}
                assert got == want, pattern

    def test_mwpm_decodes_without_networkx(self):
        """A fresh process where ``import networkx`` fails: ``import
        repro`` works, and a strike campaign whose patterns reach the
        blossom decodes on the kernel alone."""
        probe = """if True:
            import json, sys
            sys.modules["networkx"] = None
            import repro
            from repro.decoders import matching
            from repro.injection import build_sweep
            heavy = []
            real = matching._blossom_parities
            def spy(graph, bits):
                heavy.append(int(bits.sum(axis=1).min()))
                return real(graph, bits)
            matching._blossom_parities = spy
            build_sweep({
                "codes": [{"kind": "xxzz", "distance": [5, 5]}],
                "rounds": 5, "p_values": [1e-3], "decoder": "mwpm",
                "backend": "frames", "shots": 256, "root_seed": 7,
                "faults": [{"kind": "radiation", "root_qubit": 12,
                            "time_index": 0}]}).run(workers=1)
            print(json.dumps([sys.modules["networkx"] is None, heavy]))
        """
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        blocked, heavy = json.loads(out)
        assert blocked
        assert heavy and min(heavy) > matching._DP_LIMIT


class TestWidePatterns:
    """A detector pattern wider than the graph is refused with one
    ``ValueError`` stating both widths, on either decoder."""

    @pytest.mark.parametrize("kind", ["mwpm", "union-find"])
    def test_decode_detectors_refuses_a_wide_pattern(self, kind):
        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        dec = decoder_for(exp, kind)
        n = dec.graph.num_nodes
        bits = np.zeros(n + 2, dtype=np.uint8)
        bits[n + 1] = 1
        with pytest.raises(ValueError, match=f"{n + 2} bits .* {n} "
                                             "detectors"):
            dec.decode_detectors(bits)
        # a pattern of the graph's width still decodes
        bits = np.zeros(n, dtype=np.uint8)
        bits[:2] = 1
        assert dec.decode_detectors(bits) in (0, 1)

    @pytest.mark.parametrize("kind", ["mwpm", "union-find"])
    def test_batch_hook_refuses_by_width_alone(self, kind):
        """The batch hook refuses a batch by its width before any
        kernel call — even when every extra column is zero."""
        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        dec = decoder_for(exp, kind)
        n = dec.graph.num_nodes
        bits = np.zeros((3, n + 1), dtype=np.uint8)
        bits[1, :2] = 1
        with pytest.raises(ValueError, match=f"{n + 1} bits .* {n} "
                                             "detectors"):
            dec._decode_patterns(bits)
        np.testing.assert_array_equal(
            dec._decode_patterns(bits[:, :n]),
            [0, dec.decode_detectors(bits[1, :n]), 0])


class TestPackedPrepare:
    def test_word_domain_mirror(self):
        """prepare_packed_inputs against the per-shot reference:
        ``DetectorGraph.detection_events`` over ``experiment.syndromes``
        plus, for data readout, the final round reconstructed here from
        ``data_measurements`` — bit for bit, garbage tail and all."""
        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        code = exp.code
        graph = DetectorGraph(code, rounds=exp.rounds)
        rng = np.random.default_rng(13)
        rec = _noisy_records(exp, 0.03, 90, rng=6)
        words = _pack_records(rec, rng)
        syn = exp.syndromes(rec)                       # (B, rounds, P)
        det = graph.detection_events(syn)
        data = exp.data_measurements(rec)              # (B, n_data)
        col = {q: i for i, q in enumerate(code.data_qubits)}

        def parity(qubits):
            return np.bitwise_xor.reduce(
                data[:, [col[q] for q in qubits]], axis=1)

        final_syn = np.stack([parity(s) for s in code.z_plaquettes], axis=1)
        final_det = (final_syn ^ syn[:, -1])[:, None, :]
        want = {False: (det, exp.raw_readout(rec)),
                True: (np.concatenate([det, final_det], axis=1),
                       parity(code.logical_z_support))}
        for use_final, (det_ref, raw_ref) in want.items():
            det_w, raw_w = prepare_packed_inputs(exp, words, 90, graph,
                                                 use_final)
            assert det_w.shape[:2] == det_ref.shape[1:]
            for r in range(det_w.shape[0]):
                np.testing.assert_array_equal(
                    unpack_words(det_w[r], 90).T, det_ref[:, r],
                    err_msg=f"round {r} use_final={use_final}")
            np.testing.assert_array_equal(unpack_words(raw_w, 90), raw_ref)

    def test_dual_basis_matches_reference(self):
        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        graph = DetectorGraph(exp.code, rounds=exp.rounds, basis="X")
        rec = _noisy_records(exp, 0.03, 90, rng=7)
        det_ref = graph.dual_detection_events(exp.syndromes(rec, "X"))
        det_w, raw_w = prepare_packed_inputs(
            exp, _pack_records(rec, np.random.default_rng(8)), 90, graph,
            False)
        for r in range(exp.rounds):
            np.testing.assert_array_equal(unpack_words(det_w[r], 90).T,
                                          det_ref[:, r])
        np.testing.assert_array_equal(unpack_words(raw_w, 90),
                                      exp.raw_readout(rec))
        with pytest.raises(ValueError, match="decode basis"):
            prepare_packed_inputs(exp, _pack_records(rec), 90, graph, True)


class TestCacheHitRate:
    def test_low_p_batches_mostly_dedup(self):
        """At p=5e-4 a 2048-shot batch collapses to a few dozen
        distinct syndromes (the in-batch ``np.unique`` dedup), and a
        second batch re-decodes almost nothing: the cache replays the
        overlapping patterns."""
        exp = build_memory_experiment(XXZZCode(3, 3), rounds=3)
        dec = decoder_for(exp, "mwpm")
        dec.decode_batch(exp, _noisy_records(exp, 5e-4, 2048, rng=9))
        info = dec.cache_info
        assert len(info) < 100          # ~31 distinct patterns / 2048 shots
        assert len(info) == info.misses
        first_misses = info.misses
        dec.decode_batch(exp, _noisy_records(exp, 5e-4, 2048, rng=10))
        second_gets = info.hits + info.misses - first_misses
        assert info.hits / second_gets > 0.5, repr(info)

    def test_campaign_cache_hit_rate_via_engine(self):
        """The frames hot path actually exercises the cache."""
        from repro.injection.campaign import _task_context, execute_block

        task = InjectionTask(code=CodeSpec("xxzz", (5, 5)),
                             intrinsic_p=5e-4, rounds=5, backend="frames",
                             shots=512, seed=21)
        experiment, decoder, noise, program, sampler, _ = _task_context(task)
        execute_block(experiment, decoder, noise, program, sampler,
                      [512], [np.random.default_rng(0)])
        info = decoder.cache_info
        assert info.misses > 0 and info.misses < 200   # in-batch dedup
        execute_block(experiment, decoder, noise, program, sampler,
                      [512], [np.random.default_rng(1)])
        assert info.hits > 0                           # cross-block reuse


def _pattern_from_edges(graph, edge_indices):
    bits = np.zeros(graph.num_nodes, dtype=np.uint8)
    parity = 0
    for ei in edge_indices:
        e = graph.edges[ei]
        for node in (e.u, e.v):
            if node != BOUNDARY:
                bits[node] ^= 1
        parity ^= int(e.logical_flip)
    return bits, parity


class TestWeightedUnionFindWithHooks:
    """PR3 leftovers: weighted cluster growth + correlated hook edges."""

    @pytest.fixture(scope="class")
    def hooked(self):
        return DetectorGraph(XXZZCode(5, 5), rounds=5, hook_edges=True)

    def test_hook_edges_present_and_flagged(self, hooked):
        plain = DetectorGraph(XXZZCode(5, 5), rounds=5)
        hooks = [e for e in hooked.edges if e.hook]
        assert len(hooks) > 0
        assert len(hooked.edges) == len(plain.edges) + len(hooks)
        for e in hooks:    # diagonal space-time: distinct rounds
            assert BOUNDARY not in (e.u, e.v)
            assert hooked.node_round_plaquette(e.u)[0] \
                != hooked.node_round_plaquette(e.v)[0]

    def test_single_errors_with_hooks_crossval(self, hooked):
        """Every single mechanism — hook or not — decodes to its true
        parity under both MWPM and weighted union-find."""
        mwpm = MWPMDecoder(hooked, use_final_data=False)
        uf = UnionFindDecoder(hooked, use_final_data=False)
        rng = np.random.default_rng(31)
        hooks = [i for i, e in enumerate(hooked.edges) if e.hook]
        sample = list(rng.choice(len(hooked.edges), size=40, replace=False))
        sample += list(rng.choice(hooks, size=10, replace=False))
        for ei in sample:
            bits, truth = _pattern_from_edges(hooked, [int(ei)])
            assert mwpm.decode_detectors(bits) == truth, ei
            assert uf.decode_detectors(bits) == truth, ei

    def test_weight2_agreement_with_hooks(self, hooked):
        """Weighted UF keeps >= 95% agreement with MWPM on random
        weight-2 mechanism sets over the hook-augmented graph."""
        mwpm = MWPMDecoder(hooked, use_final_data=False)
        uf = UnionFindDecoder(hooked, use_final_data=False)
        rng = np.random.default_rng(32)
        disagree = 0
        trials = 150
        for _ in range(trials):
            edges = rng.choice(len(hooked.edges), size=2, replace=False)
            bits, truth = _pattern_from_edges(hooked, edges)
            corr_m = mwpm.decode_detectors(bits)
            assert corr_m == truth, sorted(edges)
            disagree += uf.decode_detectors(bits) != corr_m
        assert disagree / trials <= 0.05, disagree

    def test_weighted_growth_matches_legacy_on_unit_graphs(self):
        """On unit-weight graphs the float growth is bit-identical to
        the historical half-step growth."""
        graph = DetectorGraph(XXZZCode(3, 3), rounds=3)
        assert graph.unit_weights
        weighted = UnionFindDecoder(graph, use_final_data=False)
        legacy = UnionFindDecoder(graph, use_final_data=False,
                                  weighted_growth=False)
        rng = np.random.default_rng(33)
        for _ in range(100):
            bits = (rng.random(graph.num_nodes) < 0.1).astype(np.uint8)
            assert weighted.decode_detectors(bits) \
                == legacy.decode_detectors(bits)


class TestEngineInvariance:
    """Counts independent of chunking / workers / resume, both
    backends, now that frames feed packed words to the decoder."""

    def _task(self, backend, **kw):
        kw.setdefault("decoder", "mwpm")
        kw.setdefault("seed", 77)
        return InjectionTask(
            code=CodeSpec("xxzz", (3, 3)), intrinsic_p=0.003, rounds=3,
            fault=FaultSpec(kind="radiation", root_qubit=4, time_index=0),
            backend=backend, shots=1100, **kw)

    @pytest.mark.parametrize("backend", ["frames", "tableau"])
    def test_chunking_invariance(self, backend):
        t = self._task(backend)
        single = run_task(t, chunk_shots=t.shots)
        for chunk_shots in (512, 1024):
            assert run_task(t, chunk_shots=chunk_shots).counts \
                == single.counts

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_invariance(self, workers):
        tasks = [self._task("frames", seed=s) for s in (1, 2)]
        serial = Campaign(tasks).run(workers=1)
        parallel = Campaign(tasks).run(workers=workers)
        assert serial.counts() == parallel.counts()

    def test_store_resume_identity(self, tmp_path):
        t = self._task("frames")
        full = run_task(t).counts
        store = CampaignStore(str(tmp_path / "resume.jsonl"))
        camp = Campaign([t])
        first = camp.run(chunk_shots=512, resume=store,
                         adaptive=None).counts()
        resumed = Campaign([t]).run(resume=CampaignStore(
            str(tmp_path / "resume.jsonl"))).counts()
        assert first == [full]
        assert resumed == [full]

    def test_decoder_override_participates_in_key(self, tmp_path):
        """A banked mwpm point must not satisfy a union-find run."""
        from repro.injection.store import task_key

        t = self._task("frames")
        assert task_key(t) != task_key(
            dataclasses.replace(t, decoder=as_decoder("union-find")))
        assert task_key(t) != task_key(
            dataclasses.replace(t, decoder=as_decoder("mwpm:hooks")))
        assert task_key(t) == task_key(
            dataclasses.replace(t, decoder=DecoderSpec()))

    def test_union_find_campaign_runs_packed(self):
        t = self._task("frames", decoder="union-find")
        r = run_task(t)
        assert r.shots == t.shots

    @pytest.mark.parametrize("decoder,parent_counts", [
        ("mwpm", [(256, 100, 57, 89), (256, 58, 35, 65),
                  (256, 25, 29, 30)]),
        ("union-find", [(256, 99, 57, 78), (256, 61, 35, 68),
                        (256, 29, 29, 30)]),
    ])
    @pytest.mark.parametrize("path", ["kernel", "oracle"])
    def test_strike_regime_counts_pinned(self, fresh_decoders, decoder,
                                         parent_counts, path):
        """The e2e benchmark's ``strike_decode`` points at 256 shots,
        seed 2024 — ``(shots, errors, raw_errors, corrections)`` as the
        commit before the batch matcher kernel counted them.  Nearly
        every syndrome is distinct and tie-degenerate here, so a
        matcher that breaks one tie differently moves these — on the
        kernels and on their oracles alike."""
        from repro.injection import build_sweep

        campaign = build_sweep({
            "codes": [{"kind": "xxzz", "distance": [5, 5]}], "rounds": 5,
            "p_values": [1e-3], "decoder": decoder, "backend": "frames",
            "shots": 256, "root_seed": 2024,
            "faults": [{"kind": "radiation", "root_qubit": 12,
                        "time_index": t} for t in (0, 1, 2)]})
        with contextlib.ExitStack() as stack:
            if path == "oracle":
                stack.enter_context(oracle_decoders())
            assert campaign.run(workers=1).counts() == parent_counts
