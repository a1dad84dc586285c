"""Bit-packing primitives for the Pauli-frame backend.

Frames hold one bit per shot, 64 shots per ``uint64`` word: shot ``j``
lives in word ``j // 64`` at bit ``j % 64`` (little-endian bit order, so
``numpy.packbits``/``unpackbits`` with ``bitorder="little"`` round-trip
the layout exactly).  All frame algebra is whole-word bitwise ops, so a
10^4-shot frame row is 157 words — three orders of magnitude smaller
than the batched tableau's per-qubit slabs.

Bits past ``batch_size`` in the final word are *don't-care*: masks built
by :func:`pack_bool` leave them zero, random fills leave them random,
and :func:`unpack_words` drops them via ``count=``.
"""

from __future__ import annotations

import numpy as np

from ..util.bits import popcount_words  # noqa: F401  (re-export)

#: All-ones uint64 word (avoids repeated Python-int coercion).
FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Shots per machine word.
WORD_BITS = 64


def words_for(batch_size: int) -> int:
    """Number of 64-bit words needed for ``batch_size`` shot bits."""
    if batch_size <= 0:
        raise ValueError("need at least one shot")
    return (int(batch_size) + WORD_BITS - 1) // WORD_BITS


def pack_bool(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(B,)`` boolean/0-1 array into ``(words_for(B),)`` uint64.

    Bits beyond ``B`` in the last word are zero, so packed masks can be
    AND/OR-combined without contaminating the don't-care tail.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("pack_bool expects a 1-D array")
    # packbits takes booleans as they are; only a whole number of
    # words views as uint64 without padding.
    packed = np.packbits(bits, bitorder="little")
    if bits.size % WORD_BITS:
        packed = np.pad(packed, (0, words_for(bits.size) * 8 - packed.size))
    return packed.view(np.uint64)


def pack_bool_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(R, B)`` boolean array into ``(R, words_for(B))`` uint64.

    Row-wise :func:`pack_bool`: one ``packbits`` call for a whole layer
    of masks instead of one per row.  Don't-care tail bits are zero.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("pack_bool_rows expects a 2-D array")
    packed = np.packbits(bits, axis=1, bitorder="little")
    if bits.shape[1] % WORD_BITS:
        packed = np.pad(packed, ((0, 0), (0, words_for(bits.shape[1]) * 8
                                          - packed.shape[1])))
    return packed.view(np.uint64)


def unpack_words(words: np.ndarray, batch_size: int) -> np.ndarray:
    """Unpack word rows back to per-shot bits.

    ``words`` is ``(W,)`` or ``(R, W)`` uint64; returns ``(B,)`` or
    ``(R, B)`` uint8 with the don't-care tail dropped.
    """
    words = np.ascontiguousarray(words)
    if words.ndim == 1:
        return np.unpackbits(words.view(np.uint8), count=int(batch_size),
                             bitorder="little")
    return np.unpackbits(words.view(np.uint8).reshape(words.shape[0], -1),
                         axis=1, count=int(batch_size), bitorder="little")


def random_words(rng: np.random.Generator, nwords: int) -> np.ndarray:
    """``nwords`` uniformly random uint64 words (one fresh bit per shot).

    Read straight off the bit generator.  The stream contract is
    stated for 64-bit-native bit generators (``PCG64`` — what
    ``default_rng`` and every engine seed build — ``Philox``,
    ``SFC64``): on those ``random_raw(n)`` returns the words of
    ``np.frombuffer(rng.bytes(8 * n), uint64)`` and leaves the same
    generator state, also between interleaved ``random()`` draws, at an
    eighth of the cost for a block-sized row.  ``MT19937`` emits 32-bit
    raw values, so it keeps the ``bytes`` route.
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.MT19937):
        return np.frombuffer(rng.bytes(int(nwords) * 8),
                             dtype=np.uint64).copy()
    return bit_generator.random_raw(int(nwords))


def column_counts(planes: np.ndarray, batch_size: int) -> np.ndarray:
    """Per-shot sums over bit-plane rows: ``(P, W)`` words → ``(B,)`` ints.

    The transpose of :func:`popcount_words` — count, for each shot
    (column), how many of the ``P`` rows have that bit set.  Computed
    with bit-sliced vertical counters: rows are added into
    ``ceil(log2(P+1))`` packed carry planes using whole-word AND/XOR
    only, so the reduction stays in the packed domain; the counter
    planes (not the data) are expanded at the end.
    """
    planes = np.asarray(planes, dtype=np.uint64)
    if planes.ndim != 2:
        raise ValueError("column_counts expects a (P, W) plane stack")
    counters: list = []  # counters[k] = bit k of the running per-shot sum
    for row in planes:
        carry = row
        for k in range(len(counters)):
            carry, counters[k] = counters[k] & carry, counters[k] ^ carry
        if carry.any():
            counters.append(carry.copy())
    counts = np.zeros(int(batch_size), dtype=np.int64)
    for k, plane in enumerate(counters):
        counts += unpack_words(plane, batch_size).astype(np.int64) << k
    return counts
