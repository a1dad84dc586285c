"""The per-shot syndrome reference the word pipeline is held to.

``decode_batch`` extracts syndromes, differences detectors and
reconstructs the readout with whole-word XORs on packed record words.
These functions state the same on unpacked ``(B, cbits)`` uint8 record
rows, one fancy index or XOR at a time, and the tests compare the two
bit for bit.
"""

from typing import Optional

import numpy as np


def syndromes(experiment, records: np.ndarray,
              basis: Optional[str] = None) -> np.ndarray:
    """Syndrome bits of a memory experiment's records, shape
    ``(B, rounds, n_plaquettes)``.

    ``basis`` defaults to the plaquette type relevant for decoding the
    experiment ('Z'-basis memory decodes Z-plaquettes).
    """
    basis = basis or experiment.basis
    table = (experiment.z_syndrome_cbits if basis == "Z"
             else experiment.x_syndrome_cbits)
    if not table or not table[0]:
        return np.zeros((records.shape[0], experiment.rounds, 0),
                        dtype=np.uint8)
    return records[:, np.asarray(table)]


def data_measurements(experiment, records: np.ndarray
                      ) -> Optional[np.ndarray]:
    """Final data measurement bits ``(B, num_data)`` in data order."""
    if experiment.data_cbits is None:
        return None
    cols = [experiment.data_cbits[q] for q in experiment.code.data_qubits]
    return records[:, cols]


def detection_events(syndromes: np.ndarray) -> np.ndarray:
    """Detector values from raw syndromes, shape ``(B, rounds, P)``.

    Round 0 compares against the known initial eigenstate (the decode
    basis matches the preparation basis, the paper's setup); later
    rounds compare consecutive measurements.
    """
    det = syndromes.copy()
    det[:, 1:, :] ^= syndromes[:, :-1, :]
    return det


def dual_detection_events(syndromes: np.ndarray) -> np.ndarray:
    """Detectors for the dual-basis graph: round-0 outcomes are random
    projections, so the round-0 detector is suppressed."""
    det = detection_events(syndromes)
    det[:, 0, :] = 0
    return det
