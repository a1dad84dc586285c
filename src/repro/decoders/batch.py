"""Batched syndrome carriers and the packed decode front-end.

The campaign engine's frame backend produces records as bit-packed
word streams — ``(num_cbits, W)`` uint64, 64 shots per word — while the
tableau backend (and most tests) produce ``(B, num_cbits)`` uint8 rows.
:class:`SyndromeBatch` wraps either form behind one carrier so
``Decoder.decode_batch`` is the single entry point for both, and the
expensive full-record ``unpack_words`` round-trip disappears from the
frames hot path: a packed-native decoder consumes the words directly.

Two packed primitives live here:

* :func:`prepare_packed_inputs` — the word-domain mirror of
  :func:`~repro.decoders.base.prepare_decode_inputs`: syndrome
  extraction, detector differencing and readout reconstruction as
  whole-word XORs, never touching per-shot uint8.
* :func:`pack_pattern_columns` — bit-sliced column extraction: gather
  selected shots' detector patterns as packed little-endian byte keys,
  byte-identical to ``numpy.packbits`` over the unpacked rows, so the
  packed and unpacked paths dedup/cache against the same keys.

Don't-care discipline: bits past ``batch_size`` in the final word of a
frame stream are garbage (random fills).  Per-shot quantities therefore
only ever come from the tail-safe primitives ``unpack_words(count=B)``
and ``column_counts``, and pattern keys are only built for shot indices
below ``batch_size``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..codes.base import MemoryExperiment
from ..frames.packing import (WORD_BITS, column_counts, unpack_words,
                              words_for)


class SyndromeBatch:
    """One simulation block's measurement records, packed or unpacked.

    Parameters
    ----------
    batch_size:
        Number of real shots ``B`` (word streams may carry don't-care
        tail bits past it).
    record_words:
        ``(num_cbits, W)`` uint64 word stream from
        :meth:`~repro.frames.simulator.FrameSimulator.run_packed`, or
        ``None`` when only rows are available.
    records:
        ``(B, num_cbits)`` uint8 rows, or ``None`` to unpack lazily
        from ``record_words`` on first use.
    """

    __slots__ = ("batch_size", "record_words", "_records")

    def __init__(self, batch_size: int,
                 record_words: Optional[np.ndarray] = None,
                 records: Optional[np.ndarray] = None) -> None:
        if record_words is None and records is None:
            raise ValueError("need record_words or records")
        self.batch_size = int(batch_size)
        self.record_words = record_words
        self._records = records

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: np.ndarray) -> "SyndromeBatch":
        """Wrap ``(B, num_cbits)`` uint8 record rows."""
        records = np.asarray(records)
        if records.ndim != 2:
            raise ValueError("records must be (B, num_cbits)")
        return cls(records.shape[0], records=records)

    @classmethod
    def from_record_words(cls, record_words: np.ndarray, batch_size: int
                          ) -> "SyndromeBatch":
        """Wrap a ``(num_cbits, W)`` packed word stream."""
        record_words = np.ascontiguousarray(record_words, dtype=np.uint64)
        if record_words.ndim != 2:
            raise ValueError("record_words must be (num_cbits, W)")
        return cls(batch_size, record_words=record_words)

    @classmethod
    def coerce(cls, obj, record_words: Optional[np.ndarray] = None
               ) -> "SyndromeBatch":
        """Accept a ready batch or legacy ``(records[, record_words])``
        arguments, preferring the packed stream when both are given."""
        if isinstance(obj, SyndromeBatch):
            return obj
        batch = cls.from_records(obj)
        if record_words is not None:
            batch.record_words = np.ascontiguousarray(record_words,
                                                      dtype=np.uint64)
        return batch

    # ------------------------------------------------------------------
    @property
    def packed(self) -> bool:
        """Does this batch carry the native word stream?"""
        return self.record_words is not None

    @property
    def num_cbits(self) -> int:
        if self._records is not None:
            return int(self._records.shape[1])
        return int(self.record_words.shape[0])

    @property
    def records(self) -> np.ndarray:
        """``(B, num_cbits)`` uint8 rows, unpacked on first access and
        kept — the fallback for decoders that are not packed-native."""
        if self._records is None:
            self._records = np.ascontiguousarray(
                unpack_words(self.record_words, self.batch_size).T)
        return self._records

    def shots(self, start: int, size: int) -> "SyndromeBatch":
        """Shots ``[start, start + size)`` as a batch of their own
        (a packed batch is cut at words: ``start`` must be a multiple
        of 64)."""
        if self._records is not None:
            return SyndromeBatch.from_records(
                self._records[start:start + size])
        if start % WORD_BITS:
            raise ValueError("a packed batch is cut on word boundaries")
        lo = start // WORD_BITS
        return SyndromeBatch.from_record_words(
            self.record_words[:, lo:lo + words_for(size)], size)

    def bit_column(self, cbit: int) -> np.ndarray:
        """One classical bit across the batch, shape ``(B,)`` uint8 —
        without unpacking the full record block."""
        if self._records is not None:
            return self._records[:, cbit]
        return unpack_words(self.record_words[cbit], self.batch_size)

    def __repr__(self) -> str:
        form = "packed" if self.packed else "rows"
        return (f"SyndromeBatch(B={self.batch_size}, "
                f"cbits={self.num_cbits}, {form})")


class DecodeCache:
    """Syndrome-dedup decode cache: packed pattern key -> parity.

    A decode is a pure function of (detector pattern, graph), so each
    distinct pattern is decoded once per decoder instance and replayed
    on every later hit — exact, not approximate.  Keys carry the
    pattern length, so graphs of different round counts sharing a
    decoder instance (they don't, today) could never alias.

    The cache lives outside the decoder dataclass fields on purpose:
    ``dataclasses.replace(decoder, graph=...)`` — how burst-adaptive
    recovery derives reweighted decoders — yields a *fresh* cache,
    because cached parities are only valid against the graph they were
    decoded on.

    ``capacity`` bounds memory on pathological (high-entropy) syndrome
    streams: once full the cache stops admitting new patterns — misses
    simply decode, so results are unaffected.
    """

    __slots__ = ("table", "hits", "misses", "capacity")

    #: Default pattern capacity (~tens of MB worst-case).
    DEFAULT_CAPACITY = 1 << 18

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.table: dict = {}
        self.hits = 0
        self.misses = 0
        self.capacity = int(capacity)

    def get(self, num_detectors: int, key: bytes) -> Optional[int]:
        parity = self.table.get((num_detectors, key))
        if parity is None:
            self.misses += 1
        else:
            self.hits += 1
        return parity

    def put(self, num_detectors: int, key: bytes, parity: int) -> None:
        if len(self.table) < self.capacity:
            self.table[(num_detectors, key)] = int(parity) & 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.table)

    def __repr__(self) -> str:
        return (f"DecodeCache(patterns={len(self.table)}, "
                f"hits={self.hits}, misses={self.misses})")


def pack_pattern_columns(plane_words: np.ndarray, shots: np.ndarray
                         ) -> np.ndarray:
    """Packed per-shot pattern keys from bit-plane rows.

    ``plane_words`` is ``(D, W)`` uint64 — one packed row per detector —
    and ``shots`` the shot indices to extract.  Returns
    ``(len(shots), ceil(D / 8))`` uint8, where row ``i`` is shot
    ``shots[i]``'s ``D`` detector bits packed little-endian: exactly
    ``np.packbits(bits, bitorder="little")`` of the unpacked pattern,
    so keys agree byte-for-byte with the row-domain path.
    """
    shots = np.asarray(shots)
    w_idx = shots // WORD_BITS
    shift = (shots % WORD_BITS).astype(np.uint64)
    cols = ((plane_words[:, w_idx] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.ascontiguousarray(
        np.packbits(cols, axis=0, bitorder="little").T)


def prepare_packed_inputs(experiment: MemoryExperiment,
                          record_words: np.ndarray, batch_size: int,
                          graph, use_final_data: bool):
    """Word-domain mirror of :func:`~repro.decoders.base.
    prepare_decode_inputs`.

    Returns ``(detector_words, raw_words)`` where ``detector_words``
    has shape ``(rounds_eff, P, W)`` — bit ``j`` of word column ``w``
    is shot ``64*w + j``'s detector value — and ``raw_words`` is the
    ``(W,)`` packed raw logical readout.  Same readout modes and the
    same error conditions as the row-domain version; tail bits past
    ``batch_size`` are unspecified and must be dropped by the caller's
    tail-safe reductions.
    """
    table = (experiment.z_syndrome_cbits if graph.basis == "Z"
             else experiment.x_syndrome_cbits)
    W = record_words.shape[1]
    if not table or not table[0]:
        syn = np.zeros((experiment.rounds, 0, W), dtype=np.uint64)
    else:
        syn = record_words[np.asarray(table)]        # (rounds, P, W)
    det = syn.copy()
    det[1:] ^= syn[:-1]
    if graph.basis != experiment.basis:
        det[0] = 0          # dual basis: round-0 outcomes are random
    if not use_final_data:
        return det, record_words[experiment.readout_cbit]
    if graph.basis != experiment.basis:
        raise ValueError("data-readout decoding needs decode basis == "
                         "memory basis")
    if experiment.data_cbits is None:
        raise ValueError("experiment was built without data measurements; "
                         "use use_final_data=False or rebuild with "
                         "include_data_measurement=True")
    code = experiment.code
    plaquettes = (code.z_plaquettes if graph.basis == "Z"
                  else code.x_plaquettes)
    n_p = len(plaquettes)
    final_syn = np.zeros((n_p, W), dtype=np.uint64)
    for j, support in enumerate(plaquettes):
        for q in support:
            final_syn[j] ^= record_words[experiment.data_cbits[q]]
    # Final reconstructed round differenced against the last measured one.
    if experiment.rounds > 0 and syn.shape[1]:
        final_det = final_syn ^ syn[-1]
    else:
        final_det = final_syn
    det = np.concatenate([det, final_det[None]], axis=0)
    support = (code.logical_z_support if graph.basis == "Z"
               else code.logical_x_support)
    raw_words = np.zeros(W, dtype=np.uint64)
    for q in support:
        raw_words ^= record_words[experiment.data_cbits[q]]
    return det, raw_words
