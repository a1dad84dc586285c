"""Batched packed-syndrome decoding benchmark: engine vs per-shot loop.

The d=5 frames campaign below (p=5e-4 intrinsic noise, MWPM over 5
syndrome rounds) is the paper's low-LER regime: almost every shot
repeats one of a few dozen light syndromes.  The redesigned decode path
exploits exactly that — ``decode_batch`` consumes the sampler's packed
word stream directly (no full-record ``unpack_words``), dedups the
batch's detector patterns via ``unique_keys``, decodes each distinct
pattern once, and replays repeats from the syndrome cache across
blocks.

The bench times the real end-to-end campaign (``run_task``: sampling +
packed decode + aggregation) against the pre-redesign inner loop on
identical block streams — full-record unpack, then one
``decode_detectors`` call per shot with the cache disabled — and
cross-checks on the first block that both paths decode the stream
bit-identically.

Acceptance (PR 6): >= 3x end-to-end campaign shots/s over the per-shot
loop at d=5, p=5e-4, frames + MWPM.  ``REPRO_BENCH_LAX`` relaxes the
bar for contended CI runners (the smoke lane sets it); the run always
records shots/s for both paths plus the decode-cache hit rate in its
``extra_info`` (pytest-benchmark's ``--benchmark-json`` row).

The second bench is the opposite regime — the paper's: a radiation
strike, where nearly every shot has its own syndrome, dedup and cache
buy nothing and the decode costs what the matcher costs per distinct
pattern.  It decodes the first two blocks of the e2e benchmark's
``strike_decode`` t = 0 point through ``decode_batch`` (the batch
matcher kernel) and through the per-pattern oracles it replaced (one
``dp_match`` recursion, or ``nx_match`` past 16 defects, per distinct
pattern, from ``tests/oracles``), asserts identical corrections and
>= 3x, and records patterns/s, the defect-count histogram and the
share of matcher time left in blossom (the patterns past 16 defects).

The third is its union-find twin: the same two blocks decoded by the
``union-find`` point through ``decode_batch`` — the native kernel,
two C calls per block (``decoders/_unionfind.c``) — and through a
loop over ``uf_decode_pattern``, its pure-Python oracle; it asserts
identical corrections and >= 10x.

The fourth isolates blossom: the distinct patterns past 16 defects of
the same two blocks, matched in one call to the native blossom
(``decoders/_blossom.c``) and one by one by NetworkX
(``nx_match``, the oracle); it asserts identical parities and >= 20x.

The fifth is its light-pattern twin: the distinct patterns of at most
16 defects of the same two blocks, matched in one call to the native
DP (``repro_dp_match``, beside the blossom) and one by one by the
memoised recursion (``dp_match``, the oracle); it asserts identical
parities and >= 1.5x.

The sixth times the pattern dedup alone: 3000 x 13-byte keys
deduplicated as one column of 13-byte void scalars
(:func:`~repro.decoders.batch.unique_keys`) and by the structured
``np.unique(axis=0)`` sort it replaced (``axis0_unique_keys``, the
oracle); it asserts identical rows, order, inverse and cache keys and
>= 5x.
"""

import dataclasses
import time

import numpy as np

from conftest import bench_bar, bench_report, best_of

from repro.decoders import SyndromeBatch, prepare_packed_inputs
from repro.decoders import _native as decoder_native
from repro.decoders.batch import unique_keys
from repro.decoders.matching import _BOUNDARY_BIAS, _DP_LIMIT
from repro.frames.packing import unpack_words
from repro.frames.simulator import FrameSimulator
from repro.injection import (CodeSpec, InjectionTask, SIM_BLOCK,
                             build_sweep, run_task)
from repro.injection.campaign import _task_context
from repro.obs import prof

from oracles.decoders import (axis0_unique_keys, dp_match, mwpm_parity,
                              nx_match, uf_decode_pattern)

#: 8 canonical blocks: enough for the cross-block cache to matter.
SHOTS = 4096

TASK = InjectionTask(code=CodeSpec("xxzz", (5, 5)), intrinsic_p=5e-4,
                     rounds=5, decoder="mwpm", backend="frames",
                     shots=SHOTS, seed=2024)


def _packed_blocks(task):
    """The task's canonical block stream: ``(record words, size)``."""
    experiment, _, _, program, _, _ = _task_context(task)
    for b, start in enumerate(range(0, task.shots, SIM_BLOCK)):
        size = min(SIM_BLOCK, task.shots - start)
        sim = FrameSimulator(experiment.circuit.num_qubits, size,
                             rng=np.random.default_rng((task.seed, b)))
        yield sim.run_packed(program), size


def _per_shot_detectors(experiment, decoder, batch):
    """``(flat detector patterns (B, D), raw readout (B,))`` as uint8
    rows, one per shot — the word front-end's output, unpacked."""
    det_words, raw_words = prepare_packed_inputs(
        experiment, batch.record_words, batch.batch_size, decoder.graph,
        decoder.use_final_data)
    planes = det_words.reshape(-1, det_words.shape[-1])
    return (np.ascontiguousarray(unpack_words(planes, batch.batch_size).T),
            unpack_words(raw_words, batch.batch_size))


def _per_shot_loop():
    """The pre-redesign path: unpack every record row, decode each shot
    individually, no dedup, no cache.  Returns (errors, checked_ok)."""
    experiment, decoder = _task_context(TASK)[:2]
    plain = dataclasses.replace(decoder, cache_decodes=False)
    errors = 0
    checked = False
    for words, size in _packed_blocks(TASK):
        batch = SyndromeBatch.from_record_words(words, size)
        flat, raw = _per_shot_detectors(experiment, plain, batch)
        decoded = np.empty(size, dtype=np.uint8)
        for i in range(size):
            decoded[i] = raw[i] ^ plain.decode_detectors(flat[i])
        errors += int(np.count_nonzero(
            decoded != experiment.expected_logical))
        if not checked:
            # Bit-identity spot check: the batched packed path decodes
            # this block's stream to the very same per-shot values.
            fresh = dataclasses.replace(decoder, graph=decoder.graph)
            batched = fresh.decode_batch(experiment, batch)
            np.testing.assert_array_equal(batched.decoded, decoded)
            checked = True
    return errors, checked


def test_batched_decode_speedup(benchmark, capsys):
    """End-to-end campaign vs per-shot decode loop at d=5, p=5e-4."""
    run_task(TASK)   # warm the task context (circuit lowering, graph)

    t0 = time.perf_counter()
    loop_errors, checked = _per_shot_loop()
    loop_s = time.perf_counter() - t0
    assert checked

    # A fresh-process campaign would rebuild the context caches; they
    # are warmed above so the fixture times the steady-state engine.
    result, batched_s = best_of(benchmark, lambda: run_task(TASK), 1)
    assert result.shots == SHOTS

    decoder = _task_context(TASK)[1]
    info = decoder._cache()
    hit_rate = info.hits / max(1, info.hits + info.misses)
    speedup = loop_s / batched_s
    bench_report(
        benchmark, capsys,
        f"\n[decode-batch] {SHOTS} shots d=5 p=5e-4: "
        f"batched {batched_s:.2f}s ({SHOTS / batched_s:,.0f} sh/s), "
        f"per-shot {loop_s:.2f}s ({SHOTS / loop_s:,.0f} sh/s), "
        f"x{speedup:.1f}; cache {len(info)} patterns, "
        f"{hit_rate:.0%} hits",
        shots=SHOTS,
        batched_shots_per_s=SHOTS / batched_s,
        per_shot_shots_per_s=SHOTS / loop_s,
        speedup=speedup,
        cache_patterns=len(info),
        cache_hit_rate=hit_rate)

    # The cache must actually be doing the work the speedup claims:
    # far fewer decoded patterns than shots, with cross-block reuse.
    assert len(info) < SHOTS // 8
    assert info.hits > 0

    bar = bench_bar(3.0, 1.5)
    assert speedup >= bar, \
        f"batched decode speedup {speedup:.2f}x < {bar}x"


#: The e2e benchmark's ``strike_decode`` MWPM spec (workloads.py), of
#: which the bench decodes the t = 0 point's first two blocks.
STRIKE_SPEC = {
    "codes": [{"kind": "xxzz", "distance": [5, 5]}], "rounds": 5,
    "p_values": [1e-3], "decoder": "mwpm", "backend": "frames",
    "shots": 2 * SIM_BLOCK, "root_seed": 2024,
    "faults": [{"kind": "radiation", "root_qubit": 12, "time_index": 0}],
}


def _per_pattern_reference(experiment, decoder, batches):
    """Corrections per block, one matcher call per distinct pattern:
    the memoised ``dp_match`` recursion up to ``_DP_LIMIT`` defects,
    ``nx_match`` beyond — what ``MWPMDecoder`` ran before the batch
    kernel.  The memo stands in for dedup + decode cache."""
    memo = {(): 0}
    out = []
    for batch in batches:
        flat, _ = _per_shot_detectors(experiment, decoder, batch)
        corrections = np.empty(batch.batch_size, dtype=np.uint8)
        for i, bits in enumerate(flat):
            events = tuple(np.flatnonzero(bits).tolist())
            if events not in memo:
                memo[events] = mwpm_parity(decoder.graph, bits)
            corrections[i] = memo[events]
        out.append(corrections)
    return out, sorted(map(len, memo))


def test_strike_regime_matcher(benchmark, capsys):
    """Batch matcher kernel vs per-pattern recursion on strike blocks."""
    task = build_sweep(STRIKE_SPEC).tasks[0]
    experiment, decoder = _task_context(task)[:2]
    batches = [SyndromeBatch.from_record_words(words, size)
               for words, size in _packed_blocks(task)]

    def cold():
        """A decoder with an empty decode cache on the warm graph."""
        return (dataclasses.replace(decoder, graph=decoder.graph),), {}

    def decode(fresh):
        return [fresh.decode_batch(experiment, batch).corrections
                for batch in batches]

    decode(*cold()[0])      # warm the graph tables, load the matcher
    t0 = time.perf_counter()
    want, defect_counts = _per_pattern_reference(experiment, decoder,
                                                 batches)
    reference_s = time.perf_counter() - t0

    got, batched_s = best_of(benchmark, decode, 3, setup=cold)
    for ours, theirs in zip(got, want):
        np.testing.assert_array_equal(ours, theirs)

    with prof.profile() as p:
        decode(*cold()[0])
    stages = p.snapshot()["stages"]
    blossom = stages.get("decode.matcher.blossom",
                         {"total_s": 0.0, "calls": 0})
    blossom_share = blossom["total_s"] / stages["decode.matcher"]["total_s"]

    distinct = len(defect_counts) - 1       # minus the empty pattern
    histogram = np.bincount(defect_counts)
    speedup = reference_s / batched_s
    bench_report(
        benchmark, capsys,
        f"\n[decode-batch] strike regime, {task.shots} shots / {distinct} "
        f"distinct patterns: batched {batched_s:.3f}s "
        f"({distinct / batched_s:,.0f} patterns/s), per-pattern "
        f"{reference_s:.2f}s ({distinct / reference_s:,.0f} patterns/s), "
        f"x{speedup:.1f}; {blossom['calls']} patterns > {_DP_LIMIT} "
        f"defects in blossom = {blossom_share:.0%} of matcher time; "
        f"defects/pattern histogram {histogram.tolist()}",
        shots=task.shots,
        distinct_patterns=distinct,
        batched_patterns_per_s=distinct / batched_s,
        per_pattern_patterns_per_s=distinct / reference_s,
        speedup=speedup,
        defect_histogram=histogram.tolist(),
        blossom_patterns=blossom["calls"],
        blossom_share_of_matcher=blossom_share)

    # The regime the bench claims: dedup buys (almost) nothing.
    assert distinct > 0.9 * task.shots

    bar = bench_bar(3.0, 1.5)
    assert speedup >= bar, \
        f"strike-regime matcher speedup {speedup:.2f}x < {bar}x"


def test_strike_regime_union_find(benchmark, capsys):
    """Native union-find kernel vs the per-pattern oracle on the
    strike blocks of :func:`test_strike_regime_matcher`."""
    task = build_sweep({**STRIKE_SPEC, "decoder": "union-find"}).tasks[0]
    experiment, decoder = _task_context(task)[:2]
    batches = [SyndromeBatch.from_record_words(words, size)
               for words, size in _packed_blocks(task)]

    def cold():
        """A decoder with an empty decode cache on the warm graph."""
        return (dataclasses.replace(decoder, graph=decoder.graph),), {}

    def decode(fresh):
        return [fresh.decode_batch(experiment, batch).corrections
                for batch in batches]

    decode(*cold()[0])      # warm the graph tables
    t0 = time.perf_counter()
    memo = {(): 0}
    want = []
    for batch in batches:
        flat, _ = _per_shot_detectors(experiment, decoder, batch)
        corrections = np.empty(batch.batch_size, dtype=np.uint8)
        for i, bits in enumerate(flat):
            events = tuple(np.flatnonzero(bits).tolist())
            if events not in memo:
                memo[events] = uf_decode_pattern(decoder, bits)
            corrections[i] = memo[events]
        want.append(corrections)
    reference_s = time.perf_counter() - t0

    got, native_s = best_of(benchmark, decode, 3, setup=cold)
    for ours, theirs in zip(got, want):
        np.testing.assert_array_equal(ours, theirs)

    distinct = len(memo) - 1                # minus the empty pattern
    speedup = reference_s / native_s
    bench_report(
        benchmark, capsys,
        f"\n[decode-batch] strike regime union-find, {task.shots} shots / "
        f"{distinct} distinct patterns: native {native_s:.3f}s "
        f"({distinct / native_s:,.0f} patterns/s), per-pattern "
        f"{reference_s:.2f}s ({distinct / reference_s:,.0f} patterns/s), "
        f"x{speedup:.1f}",
        shots=task.shots,
        distinct_patterns=distinct,
        native_patterns_per_s=distinct / native_s,
        per_pattern_patterns_per_s=distinct / reference_s,
        speedup=speedup)

    assert distinct > 0.9 * task.shots
    bar = bench_bar(10.0, 4.0)
    assert speedup >= bar, \
        f"strike-regime union-find speedup {speedup:.2f}x < {bar}x"


def test_strike_heavy_patterns_blossom(benchmark, capsys):
    """Native blossom vs NetworkX on the heavy patterns of the strike
    blocks of :func:`test_strike_regime_matcher`."""
    kernel = decoder_native.blossom()
    task = build_sweep(STRIKE_SPEC).tasks[0]
    experiment, decoder = _task_context(task)[:2]
    graph = decoder.graph
    heavy = []
    for words, size in _packed_blocks(task):
        flat, _ = _per_shot_detectors(
            experiment, decoder, SyndromeBatch.from_record_words(words, size))
        heavy.append(flat[flat.sum(axis=1) > _DP_LIMIT])
    heavy = np.unique(np.concatenate(heavy), axis=0)
    assert len(heavy) >= 20

    t0 = time.perf_counter()
    want = [nx_match(tuple(np.flatnonzero(bits).tolist()), graph.distances,
                     graph.parities, graph.num_nodes)[1] for bits in heavy]
    networkx_s = time.perf_counter() - t0

    event_ptr, events = decoder_native.csr_rows(heavy)
    (_, got), native_s = best_of(
        benchmark, kernel.match, 5,
        args=(event_ptr, events, graph.distances, graph.parities,
              graph.num_nodes, _BOUNDARY_BIAS))
    np.testing.assert_array_equal(got, want)

    speedup = networkx_s / native_s
    bench_report(
        benchmark, capsys,
        f"\n[decode-batch] strike heavy patterns, {len(heavy)} of "
        f"{int(heavy.sum(axis=1).min())}..{int(heavy.sum(axis=1).max())} "
        f"defects: native {native_s * 1e6 / len(heavy):.0f} us/pattern, "
        f"NetworkX {networkx_s * 1e3 / len(heavy):.1f} ms/pattern, "
        f"x{speedup:.0f}",
        heavy_patterns=len(heavy),
        native_patterns_per_s=len(heavy) / native_s,
        networkx_patterns_per_s=len(heavy) / networkx_s,
        speedup=speedup)

    bar = bench_bar(20.0, 5.0)
    assert speedup >= bar, \
        f"native blossom speedup {speedup:.2f}x < {bar}x"


def test_strike_light_patterns_dp(benchmark, capsys):
    """Native DP vs the recursion on the light patterns of the strike
    blocks of :func:`test_strike_regime_matcher`."""
    kernel = decoder_native.blossom()
    task = build_sweep(STRIKE_SPEC).tasks[0]
    experiment, decoder = _task_context(task)[:2]
    graph = decoder.graph
    light = []
    for words, size in _packed_blocks(task):
        flat, _ = _per_shot_detectors(
            experiment, decoder, SyndromeBatch.from_record_words(words, size))
        counts = flat.sum(axis=1)
        light.append(flat[(counts > 0) & (counts <= _DP_LIMIT)])
    light = np.unique(np.concatenate(light), axis=0)
    assert len(light) >= 100

    t0 = time.perf_counter()
    want = [dp_match(tuple(np.flatnonzero(bits).tolist()), graph.distances,
                     graph.parities, graph.num_nodes)[1] for bits in light]
    recursion_s = time.perf_counter() - t0

    event_ptr, events = decoder_native.csr_rows(light)
    (_, got), native_s = best_of(
        benchmark, kernel.dp, 5,
        args=(event_ptr, events, graph.distances, graph.parities,
              graph.num_nodes, _BOUNDARY_BIAS))
    np.testing.assert_array_equal(got, want)

    speedup = recursion_s / native_s
    defects = light.sum(axis=1)
    bench_report(
        benchmark, capsys,
        f"\n[decode-batch] strike light patterns, {len(light)} of "
        f"{int(defects.min())}..{int(defects.max())} defects: native "
        f"{native_s * 1e6 / len(light):.1f} us/pattern, recursion "
        f"{recursion_s * 1e6 / len(light):.1f} us/pattern, "
        f"x{speedup:.1f}",
        light_patterns=len(light),
        native_patterns_per_s=len(light) / native_s,
        recursion_patterns_per_s=len(light) / recursion_s,
        speedup=speedup)

    bar = bench_bar(1.5, 1.2)
    assert speedup >= bar, \
        f"native DP speedup {speedup:.2f}x < {bar}x"


def test_pattern_dedup_void_column(benchmark, capsys):
    """3000 x 13-byte pattern keys: the void-column dedup vs the
    ``np.unique(axis=0)`` oracle."""
    rng = np.random.default_rng(2024)
    # 100 detectors' worth of sparse patterns drawn from a pool, so
    # about one key in six is distinct, as in a mid-p block.
    pool = np.packbits(rng.random((500, 100)) < 0.04, axis=1,
                       bitorder="little")
    keys = np.ascontiguousarray(pool[rng.integers(0, len(pool), 3000)])
    assert keys.shape == (3000, 13)

    rounds = 20
    oracle_s = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        want = axis0_unique_keys(keys)
        oracle_s = min(oracle_s, time.perf_counter() - t0)
    got, void_s = best_of(benchmark, unique_keys, rounds, args=(keys,))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]

    speedup = oracle_s / void_s
    bench_report(
        benchmark, capsys,
        f"\n[decode-batch] dedup 3000 x 13 B keys ({len(want[2])} "
        f"distinct): void column {void_s * 1e6:.0f} us, axis=0 "
        f"{oracle_s * 1e6:.0f} us, x{speedup:.1f}",
        keys=int(keys.shape[0]), distinct=len(want[2]),
        void_us=void_s * 1e6, axis0_us=oracle_s * 1e6, speedup=speedup)

    bar = bench_bar(5.0, 2.0)
    assert speedup >= bar, \
        f"void-column dedup speedup {speedup:.2f}x < {bar}x"
