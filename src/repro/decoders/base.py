"""Decoder interface and result container.

The canonical entry point is :meth:`Decoder.decode_batch` over a
:class:`~repro.decoders.batch.SyndromeBatch` — one call per simulation
block, consuming the packed record words as they are (bit-sliced column
extraction, no full-record unpack).  Concrete decoders implement one
method, :meth:`Decoder._decode_patterns`: decode every distinct
flattened detector pattern of a block that missed the cache, in one
call, to readout-correction parities.  Everything else batchy —
syndrome extraction, detector differencing, per-batch deduplication,
the cross-batch :class:`~repro.decoders.batch.DecodeCache`, correction
scatter — is shared here.
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
from ..frames.packing import unpack_words
from .batch import (DecodeCache, SyndromeBatch, pack_pattern_columns,
                    prepare_packed_inputs, unique_keys)

# Hot-path metric handles (module-level so the per-batch cost is a few
# integer adds; the registry resets these in place, keeping them valid).
# A *pattern* is one shot with at least one detection event — event-free
# shots decode to the identity and are never keyed — so the counters
# mean the same on every backend: patterns = such shots, distinct = their
# distinct keys per decode call, hits + misses = distinct.
_OBS_PATTERNS = obs.counter("decode.patterns")
_OBS_DISTINCT = obs.counter("decode.distinct_patterns")
_OBS_HITS = obs.counter("decode.cache_hits")
_OBS_MISSES = obs.counter("decode.cache_misses")


def check_width(bits: np.ndarray, num_nodes: int) -> None:
    """``ValueError`` when ``(N, D)`` detector patterns are wider than
    a graph of ``num_nodes`` detectors — the kernels index unchecked."""
    if bits.shape[1] > num_nodes:
        raise ValueError(f"detector patterns of {bits.shape[1]} bits are "
                         f"wider than the graph's {num_nodes} detectors")


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
    ``cache_decodes`` switch, and implement :meth:`_decode_patterns`,
    the batch hook: the distinct patterns of a block that miss the
    cache are decoded by one call (MWPM matches them together,
    union-find grows and peels them in a C kernel).  The
    batch pipeline (word-domain syndrome extraction and detector
    differencing, unique-pattern deduplication, the cross-batch decode
    cache, readout correction) is shared here, so alternate decode
    strategies — a reweighted graph on some of the shots, pre-modified
    detector words — plug in between :meth:`_prepare` and
    :meth:`_corrections` without duplicating it.
    """

    graph: "object"
    use_final_data: bool
    #: Per-instance syndrome-dedup cache switch (dataclass field on the
    #: concrete decoders; read via ``getattr`` so bare subclasses work).
    cache_decodes: bool = True

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in reports."""

    @abc.abstractmethod
    def _decode_patterns(self, bits: np.ndarray) -> np.ndarray:
        """Decode ``(N, D)`` uint8 detector patterns -> ``N`` readout
        corrections.

        :meth:`_pattern_parities` hands it every distinct pattern of a
        block that missed the cache, in one call."""

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
        uniq, inverse, key_bytes = unique_keys(keys)
        t1 = perf_counter()
        distinct = int(uniq.shape[0])
        cache = self._cache()
        out = np.empty(distinct, dtype=np.uint8)
        if cache is None:
            missed = range(distinct)
        else:
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
    def decode_batch(self, experiment: MemoryExperiment, batch
                     ) -> DecodeResult:
        """Decode one batch of shots — the single canonical entry point.

        ``batch`` is a :class:`~repro.decoders.batch.SyndromeBatch`;
        ``(B, num_cbits)`` uint8 record rows are packed into one on
        entry.  The full record block is never unpacked: syndrome
        extraction and detector differencing stay in the word domain,
        and only the shots with at least one detection event (found by
        one whole-word OR over the detector rows) have their pattern
        columns extracted.
        """
        if not isinstance(batch, SyndromeBatch):
            batch = SyndromeBatch.from_records(batch)
        det_words, raw = self._prepare(experiment, batch)
        corrections = self._corrections(det_words, batch.batch_size)
        return DecodeResult(decoded=raw ^ corrections,
                            expected=experiment.expected_logical,
                            corrections=corrections)

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
    def _prepare(self, experiment: MemoryExperiment, batch: SyndromeBatch):
        """``(detector words (rounds_eff, P, W), raw readout (B,))`` of
        ``batch`` on this decoder's graph and readout mode."""
        prof = _prof._ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        det_words, raw_words = prepare_packed_inputs(
            experiment, batch.record_words, batch.batch_size, self.graph,
            self.use_final_data)
        if prof is not None:
            prof.stage("decode.prepare", perf_counter() - t0)
        return det_words, unpack_words(raw_words, batch.batch_size)

    def _corrections(self, det_words: np.ndarray, batch_size: int,
                     shots: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-shot correction parities ``(B,)`` for detector words.

        ``shots`` — optional ``(B,)`` boolean selection: only those
        shots are decoded, the rest stay 0 (how burst recovery splits a
        batch between two graphs)."""
        rounds_eff, P, W = det_words.shape
        D = rounds_eff * P
        corrections = np.zeros(batch_size, dtype=np.uint8)
        if D:
            planes = np.ascontiguousarray(det_words.reshape(D, W))
            # Shots with zero events decode to the identity, so only
            # active shots are keyed: one OR over the detector rows,
            # unpacked tail-safe (count=B drops the don't-care bits).
            active = unpack_words(np.bitwise_or.reduce(planes, axis=0),
                                  batch_size).view(bool)
            if shots is not None:
                active &= shots
            active = np.nonzero(active)[0]
            if active.size:
                keys = pack_pattern_columns(planes, active)
                corrections[active] = self._pattern_parities(keys, D)
        return corrections
