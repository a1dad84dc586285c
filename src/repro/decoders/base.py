"""Decoder interface and result container.

The canonical entry point is :meth:`Decoder.decode_batch` over a
:class:`~repro.decoders.batch.SyndromeBatch` — one call per simulation
block, consuming either the frame backend's packed word stream directly
(bit-sliced column extraction, no full-record unpack) or plain uint8
record rows.  Concrete decoders implement one method,
:meth:`Decoder._decode_pattern`: decode a single flattened detector
pattern to a readout-correction parity.  A decoder that can match many
patterns at once also overrides :meth:`Decoder._decode_patterns`, which
receives every distinct pattern of a block that missed the cache in one
call.  Everything else batchy — syndrome extraction, detector
differencing, per-batch deduplication, the cross-batch
:class:`~repro.decoders.batch.DecodeCache`, correction scatter — is
shared here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from .. import obs
from ..obs import prof as _prof
from ..codes.base import MemoryExperiment
from ..frames.packing import column_counts, unpack_words
from .batch import (DecodeCache, SyndromeBatch, pack_pattern_columns,
                    prepare_packed_inputs)

# Hot-path metric handles (module-level so the per-batch cost is a few
# integer adds; the registry resets these in place, keeping them valid).
_OBS_PATTERNS = obs.counter("decode.patterns")
_OBS_DISTINCT = obs.counter("decode.distinct_patterns")
_OBS_HITS = obs.counter("decode.cache_hits")
_OBS_MISSES = obs.counter("decode.cache_misses")


@dataclass
class DecodeResult:
    """Outcome of decoding a batch of shots.

    Attributes
    ----------
    decoded:
        Per-shot decoded logical value, shape ``(B,)``.
    expected:
        The logical value a noise-free run produces.
    corrections:
        Per-shot readout-correction parity the decoder applied.
    """

    decoded: np.ndarray
    expected: int
    corrections: np.ndarray

    @property
    def num_shots(self) -> int:
        return int(self.decoded.shape[0])

    @property
    def errors(self) -> np.ndarray:
        """Boolean per-shot logical-error flags."""
        return self.decoded != self.expected

    @property
    def num_errors(self) -> int:
        return int(np.count_nonzero(self.errors))

    @property
    def logical_error_rate(self) -> float:
        """Fraction of shots decoding to the wrong logical value
        (the paper's §IV-C metric)."""
        return self.num_errors / self.num_shots if self.num_shots else 0.0


class Decoder(abc.ABC):
    """Abstract syndrome decoder.

    Concrete decoders carry a ``graph`` (:class:`~repro.decoders.
    detector_graph.DetectorGraph`), a ``use_final_data`` flag and a
    ``cache_decodes`` switch, and implement :meth:`_decode_pattern` —
    the per-pattern decode — and optionally :meth:`_decode_patterns`,
    the batch hook it is reached through: the distinct patterns of a
    block that miss the cache are decoded by one call (the default
    loops :meth:`_decode_pattern`; MWPM matches them together).  The
    batch pipeline (packed or row-wise syndrome extraction, detector
    differencing, unique-pattern deduplication, the cross-batch decode
    cache, readout correction) is shared here, so alternate decode
    strategies — a reweighted graph, pre-modified detectors — plug in
    at :meth:`_decode_prepared` without duplicating it.
    """

    graph: "object"
    use_final_data: bool
    #: Per-instance syndrome-dedup cache switch (dataclass field on the
    #: concrete decoders; read via ``getattr`` so bare subclasses work).
    cache_decodes: bool = True
    #: Whether :meth:`decode_batch` consumes packed word streams
    #: natively.  The shared pipeline handles both forms, so any
    #: subclass inheriting it is packed-native; third-party decoders
    #: that override ``decode_batch`` with a rows-only implementation
    #: advertise ``False`` and the campaign engine unpacks for them.
    packed_native: bool = True

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in reports."""

    @abc.abstractmethod
    def _decode_pattern(self, detector_bits: np.ndarray) -> int:
        """Decode one flattened detector pattern -> readout correction."""

    def _decode_patterns(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(N, D)`` uint8 detector patterns -> ``N`` readout
        corrections.

        The batch hook: :meth:`_pattern_parities` hands it every
        distinct pattern of a block that missed the cache, in one call.
        The default decodes them one by one through
        :meth:`_decode_pattern`; a decoder that can match patterns
        together (:class:`~repro.decoders.matching.MWPMDecoder`)
        overrides it."""
        return np.fromiter(map(self._decode_pattern, bits),
                           dtype=np.uint8, count=bits.shape[0])

    # ------------------------------------------------------------------
    # Syndrome-dedup decode cache
    # ------------------------------------------------------------------
    def _cache(self) -> Optional[DecodeCache]:
        """The instance's decode cache (lazily created), or ``None``
        when caching is disabled.  Stored outside the dataclass fields
        so ``dataclasses.replace(self, graph=...)`` copies start fresh
        — cached parities are only valid against their own graph."""
        if not getattr(self, "cache_decodes", True):
            return None
        cache = self.__dict__.get("_decode_cache")
        if cache is None:
            cache = DecodeCache()
            self.__dict__["_decode_cache"] = cache
        return cache

    @property
    def cache_info(self) -> Optional[DecodeCache]:
        """The live cache for diagnostics (``None`` when disabled or
        never touched)."""
        if not getattr(self, "cache_decodes", True):
            return None
        return self.__dict__.get("_decode_cache")

    def _pattern_parities(self, keys: np.ndarray, num_detectors: int
                          ) -> np.ndarray:
        """Correction parities for packed pattern keys, shape ``(N,)``.

        ``keys`` is ``(N, ceil(num_detectors / 8))`` uint8 — little-
        endian packed detector patterns.  Patterns are deduplicated
        within the batch, every distinct one probed in the decode
        cache, the misses decoded together by one
        :meth:`_decode_patterns` call, and the parities scattered back
        — exact, since identical patterns decode identically.

        With a profiler enabled the three stages — pattern dedup,
        cache probe, matcher — are attributed separately
        (``decode.dedup`` / ``decode.cache_probe`` /
        ``decode.matcher``).
        """
        t0 = perf_counter()
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        t1 = perf_counter()
        distinct = int(uniq.shape[0])
        cache = self._cache()
        out = np.empty(distinct, dtype=np.uint8)
        if cache is None:
            missed = range(distinct)
        else:
            key_bytes = [row.tobytes() for row in uniq]
            missed = []
            for i, key in enumerate(key_bytes):
                parity = cache.get(num_detectors, key)
                if parity is None:
                    missed.append(i)
                else:
                    out[i] = parity
        t2 = perf_counter()
        prof = _prof._ACTIVE
        if prof is not None:
            prof.stage("decode.dedup", t1 - t0)
            prof.stage("decode.cache_probe", t2 - t1, calls=distinct)
        if missed:
            bits = np.unpackbits(uniq[missed], axis=1, count=num_detectors,
                                 bitorder="little")
            decoded = np.asarray(self._decode_patterns(bits),
                                 dtype=np.uint8) & 1
            if prof is not None:
                prof.stage("decode.matcher", perf_counter() - t2,
                           calls=len(missed))
            out[missed] = decoded
            if cache is not None:
                for i, parity in zip(missed, decoded.tolist()):
                    cache.put(num_detectors, key_bytes[i], parity)
        _OBS_PATTERNS.inc(int(keys.shape[0]))
        _OBS_DISTINCT.inc(distinct)
        _OBS_MISSES.inc(len(missed))
        _OBS_HITS.inc(distinct - len(missed))
        return out[inverse]

    # ------------------------------------------------------------------
    # Canonical batch API
    # ------------------------------------------------------------------
    def decode_batch(self, experiment: MemoryExperiment, batch,
                     record_words: Optional[np.ndarray] = None
                     ) -> DecodeResult:
        """Decode one batch of shots — the single canonical entry point.

        ``batch`` is a :class:`~repro.decoders.batch.SyndromeBatch`, or
        (legacy form) a ``(B, num_cbits)`` record array with an optional
        ``record_words`` word stream alongside.  Packed batches decode
        without ever unpacking the full record block: syndrome
        extraction and detector differencing stay in the word domain,
        only the shots with at least one detection event (found by a
        bit-sliced popcount) have their pattern columns extracted.
        """
        batch = SyndromeBatch.coerce(batch, record_words)
        if batch.packed:
            return self._decode_packed(experiment, batch)
        det, raw = prepare_decode_inputs(experiment, batch.records,
                                         self.graph, self.use_final_data)
        return self._decode_prepared(experiment, det, raw)

    def decode_detectors(self, detector_bits: np.ndarray) -> int:
        """Decode one flattened detector pattern -> correction parity.

        The public per-pattern entry point (cross-validation, ablation
        studies); resolves through the decode cache.
        """
        bits = np.ascontiguousarray(
            np.asarray(detector_bits).reshape(-1).astype(np.uint8))
        if bits.size == 0:
            return 0
        keys = np.packbits(bits[None, :], axis=1, bitorder="little")
        return int(self._pattern_parities(keys, bits.size)[0])

    # ------------------------------------------------------------------
    # Shared pipeline internals
    # ------------------------------------------------------------------
    def _decode_packed(self, experiment: MemoryExperiment,
                       batch: SyndromeBatch) -> DecodeResult:
        prof = _prof._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        det_words, raw_words = prepare_packed_inputs(
            experiment, batch.record_words, batch.batch_size, self.graph,
            self.use_final_data)
        if prof is not None:
            prof.stage("decode.prepare", perf_counter() - t0)
        B = batch.batch_size
        raw = unpack_words(raw_words, B)
        rounds_eff, P, W = det_words.shape
        D = rounds_eff * P
        corrections = np.zeros(B, dtype=np.uint8)
        if D:
            planes = np.ascontiguousarray(det_words.reshape(D, W))
            # Tail-safe per-shot event counts: shots with zero events
            # decode to the identity, so only active shots are keyed.
            active = np.nonzero(column_counts(planes, B))[0]
            if active.size:
                keys = pack_pattern_columns(planes, active)
                corrections[active] = self._pattern_parities(keys, D)
        return DecodeResult(decoded=raw ^ corrections,
                            expected=experiment.expected_logical,
                            corrections=corrections)

    def _decode_prepared(self, experiment: MemoryExperiment,
                         det: np.ndarray, raw: np.ndarray) -> DecodeResult:
        """Decode already-extracted detectors ``(B, rounds, P)`` against
        raw readout ``(B,)`` (row-domain tail of the shared pipeline —
        also the hook for pre-modified detectors, e.g. window
        discards)."""
        B = det.shape[0]
        flat = np.ascontiguousarray(
            det.reshape(B, -1).astype(np.uint8, copy=False))
        if flat.shape[1] == 0:
            return DecodeResult(decoded=raw.copy(),
                                expected=experiment.expected_logical,
                                corrections=np.zeros(B, dtype=np.uint8))
        keys = np.packbits(flat, axis=1, bitorder="little")
        corrections = self._pattern_parities(keys, flat.shape[1])
        return DecodeResult(decoded=raw ^ corrections,
                            expected=experiment.expected_logical,
                            corrections=corrections)


def prepare_decode_inputs(experiment: MemoryExperiment, records: np.ndarray,
                          graph, use_final_data: bool):
    """Shared row-domain front-end for syndrome decoders.

    Returns ``(detectors, raw_logical)`` where ``detectors`` has shape
    ``(B, rounds_eff, P)``.

    Two readout modes:

    * **ancilla** (``use_final_data=False``) — the raw logical value is
      the dedicated parity-ancilla measurement of Figs. 1-2 and only the
      mid-circuit syndrome rounds feed the decoder.  A corrupted readout
      ancilla is undetectable in this mode.
    * **data** (``use_final_data=True``, qtcodes-style) — the final
      transversal data measurement provides both the logical parity and
      one extra reconstructed syndrome round, so late and readout-path
      errors stay decodable.  Requires the experiment to include data
      measurements and the decode basis to match the memory basis.

    The word-domain mirror is :func:`~repro.decoders.batch.
    prepare_packed_inputs`.
    """
    syndromes = experiment.syndromes(records, graph.basis)
    if graph.basis == experiment.basis:
        det = graph.detection_events(syndromes)
    else:
        det = graph.dual_detection_events(syndromes)
    if not use_final_data:
        raw = experiment.raw_readout(records).astype(np.uint8)
        return det, raw
    if graph.basis != experiment.basis:
        raise ValueError("data-readout decoding needs decode basis == "
                         "memory basis")
    data_bits = experiment.data_measurements(records)
    if data_bits is None:
        raise ValueError("experiment was built without data measurements; "
                         "use use_final_data=False or rebuild with "
                         "include_data_measurement=True")
    code = experiment.code
    col = {q: i for i, q in enumerate(code.data_qubits)}
    plaquettes = (code.z_plaquettes if graph.basis == "Z"
                  else code.x_plaquettes)
    B = records.shape[0]
    n_p = len(plaquettes)
    final_syn = np.zeros((B, n_p), dtype=np.uint8)
    for j, support in enumerate(plaquettes):
        for q in support:
            final_syn[:, j] ^= data_bits[:, col[q]]
    # Final reconstructed round differenced against the last measured one.
    if experiment.rounds > 0 and syndromes.shape[2]:
        last = syndromes[:, -1, :]
    else:
        last = np.zeros((B, n_p), dtype=np.uint8)
    final_det = (final_syn ^ last)[:, None, :]
    det = np.concatenate([det, final_det], axis=1)
    support = (code.logical_z_support if graph.basis == "Z"
               else code.logical_x_support)
    raw = np.zeros(B, dtype=np.uint8)
    for q in support:
        raw ^= data_bits[:, col[q]]
    return det, raw
