"""The packed record carrier and the word-domain decode front-end.

A measurement record is words from the moment it leaves a sampler:
``(num_cbits, W)`` uint64, 64 shots per word.  The frame backend emits
that form; :meth:`SyndromeBatch.from_records` packs the tableau
backend's (and most tests') ``(B, num_cbits)`` uint8 rows into it once,
on entry.  Everything downstream — detection, recovery, decode — reads
the one form, so there is one extraction and one decode pipeline.

Four word primitives live here:

* :func:`detector_words` — record words to the detection events of one
  plaquette basis: syndrome extraction is row indexing, detector
  differencing a whole-word XOR of consecutive rounds.  The streaming
  detector (:class:`~repro.detect.stream.PackedSyndromes`) and the
  decoders share it.
* :func:`prepare_packed_inputs` — the decoder's front-end on top of it:
  the readout mode's raw logical words and, for data readout, the
  reconstructed final round.
* :func:`pack_pattern_columns` — bit-sliced column extraction: gather
  selected shots' detector patterns as packed little-endian byte keys,
  byte-identical to ``numpy.packbits`` over the unpacked patterns, so
  the decode cache keys do not depend on how the shots were stored.
* :func:`unique_keys` — those keys deduplicated as one column of
  fixed-width byte strings, with the cache-probe ``bytes`` of each.

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
from ..frames.packing import (WORD_BITS, pack_bool_rows, unpack_words,
                              words_for)


class SyndromeBatch:
    """One simulation block's measurement records as packed words.

    Parameters
    ----------
    batch_size:
        Number of real shots ``B``; the stream must be exactly
        ``words_for(B)`` words wide (its last word may carry don't-care
        bits past ``B``).
    record_words:
        ``(num_cbits, W)`` uint64 word stream, e.g. from
        :meth:`~repro.frames.simulator.FrameSimulator.run_packed`.
    """

    __slots__ = ("batch_size", "record_words")

    def __init__(self, batch_size: int, record_words: np.ndarray) -> None:
        record_words = np.ascontiguousarray(record_words, dtype=np.uint64)
        if record_words.ndim != 2:
            raise ValueError("record_words must be (num_cbits, W)")
        batch_size = int(batch_size)
        if batch_size < 1 or words_for(batch_size) != record_words.shape[1]:
            raise ValueError(
                f"a {record_words.shape[1]}-word stream does not hold "
                f"batch_size={batch_size} shots")
        self.batch_size = batch_size
        self.record_words = record_words

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: np.ndarray) -> "SyndromeBatch":
        """Pack ``(B, num_cbits)`` uint8 record rows — once, on entry."""
        records = np.asarray(records)
        if records.ndim != 2:
            raise ValueError("records must be (B, num_cbits)")
        return cls(records.shape[0],
                   pack_bool_rows(np.ascontiguousarray(records.T)))

    @classmethod
    def from_record_words(cls, record_words: np.ndarray, batch_size: int
                          ) -> "SyndromeBatch":
        """Wrap a ``(num_cbits, W)`` packed word stream."""
        return cls(batch_size, record_words)

    def shots(self, start: int, size: int) -> "SyndromeBatch":
        """Shots ``[start, start + size)`` as a batch of their own, cut
        at words: ``start`` must be a multiple of 64."""
        if start % WORD_BITS:
            raise ValueError("a batch is cut on word boundaries")
        lo = start // WORD_BITS
        return SyndromeBatch(
            size, self.record_words[:, lo:lo + words_for(size)])

    def bit_column(self, cbit: int) -> np.ndarray:
        """One classical bit across the batch, shape ``(B,)`` uint8 —
        without unpacking the full record block."""
        return unpack_words(self.record_words[cbit], self.batch_size)

    def __repr__(self) -> str:
        return (f"SyndromeBatch(B={self.batch_size}, "
                f"cbits={self.record_words.shape[0]})")


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
    so keys agree byte-for-byte with ones packed from per-shot
    patterns (:meth:`~repro.decoders.base.Decoder.decode_detectors`).
    """
    shots = np.asarray(shots)
    # Shot s is bit s % 8 of byte s // 8 of a word row's little-endian
    # bytes: gather one byte per shot, not one word.
    row_bytes = np.ascontiguousarray(plane_words).view(np.uint8)
    cols = (row_bytes[:, shots >> 3] >> (shots & 7).astype(np.uint8)) & 1
    return np.ascontiguousarray(
        np.packbits(cols, axis=0, bitorder="little").T)


def unique_keys(keys: np.ndarray):
    """Distinct rows of ``(N, nbytes)`` uint8 pattern keys.

    Returns ``(uniq, inverse, key_bytes)``: ``uniq`` the ``(M, nbytes)``
    distinct rows in byte-lexicographic order, ``inverse`` the ``(N,)``
    index of each key's row in ``uniq``, and ``key_bytes`` each
    distinct row as ``bytes`` (the decode-cache key).  The same result
    as ``np.unique(keys, axis=0, return_inverse=True)`` with
    ``row.tobytes()`` per row, but each row is sorted as one
    ``nbytes``-wide void scalar (a byte-wise compare) rather than as a
    structured record with one field per byte.  A ``V`` view, never
    ``S``: an ``S`` view drops trailing NUL bytes, so keys that differ
    only there would merge.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    nbytes = keys.shape[1]
    column = keys.view(np.dtype((np.void, nbytes))).ravel()
    uniq, inverse = np.unique(column, return_inverse=True)
    return (uniq.view(np.uint8).reshape(-1, nbytes), inverse.ravel(),
            uniq.tolist())


def detector_words(experiment: MemoryExperiment, record_words: np.ndarray,
                   basis: str) -> np.ndarray:
    """Record words -> detection events of one plaquette basis.

    Returns ``(rounds, P, W)`` uint64: bit ``j`` of word column ``w`` is
    shot ``64*w + j``'s detector value — the syndrome XORed with the
    previous round's; round 0 stands against the prepared eigenstate
    for the memory basis and is suppressed for its dual, whose first
    outcomes are random.  Tail bits past the batch size are unspecified.
    """
    table = (experiment.z_syndrome_cbits if basis == "Z"
             else experiment.x_syndrome_cbits)
    if not table or not table[0]:
        return np.zeros((experiment.rounds, 0, record_words.shape[1]),
                        dtype=np.uint64)
    syn = record_words[np.asarray(table)]            # (rounds, P, W)
    det = syn.copy()
    det[1:] ^= syn[:-1]
    if basis != experiment.basis:
        det[0] = 0
    return det


def prepare_packed_inputs(experiment: MemoryExperiment,
                          record_words: np.ndarray, batch_size: int,
                          graph, use_final_data: bool):
    """The decoders' front-end: record words -> what a decode consumes.

    Returns ``(detector_words, raw_words)`` where ``detector_words``
    has shape ``(rounds_eff, P, W)`` (see :func:`detector_words`) and
    ``raw_words`` is the ``(W,)`` packed raw logical readout; tail bits
    past ``batch_size`` are unspecified and must be dropped by the
    caller's tail-safe reductions.

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
    """
    det = detector_words(experiment, record_words, graph.basis)
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
    Z = graph.basis == "Z"

    def parity_of(qubits) -> np.ndarray:
        cbits = np.array([experiment.data_cbits[q] for q in qubits],
                         dtype=np.intp)
        return np.bitwise_xor.reduce(record_words[cbits], axis=0)

    # One more round, reconstructed from the data measurement and
    # differenced against the last measured one — which, in the memory
    # basis, is what the detector rounds telescope to.
    final_det = np.bitwise_xor.reduce(det, axis=0)
    for j, support in enumerate(code.z_plaquettes if Z
                                else code.x_plaquettes):
        final_det[j] ^= parity_of(support)
    det = np.concatenate([det, final_det[None]], axis=0)
    return det, parity_of(code.logical_z_support if Z
                          else code.logical_x_support)
