"""Packed syndrome streams: frame-native detector input.

Records are bit-packed words — 64 shots per ``uint64`` — from the
sampler's exit on (:meth:`repro.frames.simulator.FrameSimulator.
run_packed`, or :meth:`repro.decoders.batch.SyndromeBatch.from_records`
for the tableau backend's rows), and the detection path keeps them so:

* detection events come from the decoders' own extraction
  (:func:`repro.decoders.batch.detector_words`: word indexing, then a
  whole-word XOR of consecutive rounds),
* per-plaquette event totals are word popcounts,
* per-shot event counts are bit-sliced vertical-counter adds
  (:func:`repro.frames.packing.column_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..codes.base import MemoryExperiment
from ..decoders.batch import detector_words
from ..frames.packing import column_counts, pack_bool, popcount_words


@dataclass
class PackedSyndromes:
    """Detection-event words for one batch of a memory experiment.

    Attributes
    ----------
    basis:
        *Primary* plaquette basis (the decode basis): its plaquettes
        occupy ``det[:, :num_primary]``.  When built with
        ``include_dual`` (the default) the dual basis's plaquettes
        follow — a strike's resets scatter both X and Z errors, so
        watching both syndrome families roughly doubles the detection
        signal even though only the primary family feeds the decoder.
    batch_size:
        Shots ``B`` (bit index within the word rows).
    det:
        ``(rounds, P, words_for(B))`` uint64 — detector values
        (consecutive-round syndrome XOR; round 0 against the prepared
        eigenstate for the memory basis, suppressed for its dual)
        bit-packed across shots.
    num_primary:
        Plaquette count of the primary basis (prefix of axis 1).
    """

    basis: str
    batch_size: int
    det: np.ndarray
    num_primary: int

    @property
    def rounds(self) -> int:
        return int(self.det.shape[0])

    @property
    def num_plaquettes(self) -> int:
        return int(self.det.shape[1])

    @classmethod
    def from_record_words(cls, record_words: np.ndarray,
                          experiment: MemoryExperiment, batch_size: int,
                          basis: Optional[str] = None,
                          include_dual: bool = True) -> "PackedSyndromes":
        """Detection events of ``(num_cbits, W)`` record words — the
        primary basis's plaquettes, then (optionally) the dual's."""
        basis = basis or experiment.basis
        det = detector_words(experiment, record_words, basis)
        num_primary = det.shape[1]
        if include_dual:
            dual = {"Z": "X", "X": "Z"}[basis]
            det = np.concatenate(
                [det, detector_words(experiment, record_words, dual)],
                axis=1)
        return cls(basis=basis, batch_size=int(batch_size), det=det,
                   num_primary=num_primary)

    # ------------------------------------------------------------------
    # Packed reductions
    # ------------------------------------------------------------------
    def round_event_counts(self) -> np.ndarray:
        """Per-shot detection events per round, shape ``(B, rounds)``.

        Bit-sliced vertical counters over the plaquette planes of each
        round — the packed equivalent of ``det.sum(axis=plaquette)``.
        """
        counts = np.empty((self.batch_size, self.rounds), dtype=np.int64)
        for r in range(self.rounds):
            counts[:, r] = column_counts(self.det[r], self.batch_size)
        return counts

    def plaquette_event_counts(self, shot_mask: Optional[np.ndarray] = None,
                               rounds: Optional[slice] = None) -> np.ndarray:
        """Across-shot event totals per (round, plaquette).

        ``shot_mask`` — optional packed ``(W,)`` shot-selection mask
        (see :func:`pack_shot_mask`); ``rounds`` restricts the round
        axis.  Returns ``(rounds, P)`` int64.
        """
        det = self.det if rounds is None else self.det[rounds]
        if shot_mask is not None:
            det = det & shot_mask
        return popcount_words(det).sum(axis=-1)


def pack_shot_mask(flags: np.ndarray) -> np.ndarray:
    """Pack a per-shot boolean selection into a ``(W,)`` word mask."""
    return pack_bool(np.asarray(flags, dtype=bool))
