"""Chip-level channel: per-symbol SINR drives a binary symmetric channel.

Network-scale experiments model each reception as a *timeline of SINRs*,
one per codeword: interference from overlapping transmissions raises
the denominator only during the overlapped codewords (paper Fig. 5).
Each chip then flips independently with the coherent-MSK error
probability ``Q(sqrt(2 * SINR))``.  Despreading gain is not applied
here — it emerges when 32 received chips are jointly decoded to the
nearest codeword.

Two BSC entry points serve different callers:
:func:`transmit_chipwords` draws from a caller-supplied sequential
generator — the natural interface for single-link studies (the PP-ARQ
experiments, the quickstart example) that own one explicit stream —
while :func:`transmit_chipwords_batch`, the network simulation's only
channel path, draws each reception's flips from its own counter-based
Philox stream keyed on the (transmission, receiver) pair, so the
receptions can be corrupted in blocks of any size (or sharded across
processes) with bit-identical results.

The complementary error function behind ``Q`` is the standard
library's :func:`math.erfc`, applied one element at a time: the
network simulation evaluates it once per interference segment, so a
whole quick run asks for ~22k values.  Implementations of ``erfc``
differ in the last bits; the simulation reads a probability only
through each word's integer flip limit (quantised at 2**-32) and the
hot-codeword threshold, so such a difference reaches its output only
where it crosses one of those boundaries.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.bitops import pack_bits_to_uint32
from repro.utils.rng import RngLike, ensure_rng, keyed_words


def _erfc(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.erfc` (``erfc(nan)`` is NaN)."""
    values = [math.erfc(v) for v in x.ravel().tolist()]
    return np.array(values, dtype=np.float64).reshape(x.shape)


def chip_error_probability_interference(
    snr_linear: float | np.ndarray, isr_linear: float | np.ndarray
) -> np.ndarray:
    """Chip flip probability under noise *and* a co-channel interferer.

    Interference from another DSSS transmission is not Gaussian: each
    interfering chip is itself an antipodal symbol that either aids or
    opposes the desired chip.  Averaging over the two cases gives::

        p = 1/2 Q( sqrt(2 S/N) (1 + sqrt(I/S)) )
          + 1/2 Q( sqrt(2 S/N) (1 - sqrt(I/S)) )

    with S/N the signal-to-noise ratio and I/S the
    interference-to-signal ratio.  With no interferer this is the AWGN
    law of coherent MSK, ``Q(sqrt(2 S/N))``.  Equal-power collisions
    (I = S) give p -> 0.25 even at high SNR — collisions destroy the
    overlapped codewords — while an interferer a few dB down is
    captured through (p -> 0), reproducing the capture effect.
    Multiple simultaneous interferers are approximated by their total
    power.
    """
    snr = np.asarray(snr_linear, dtype=np.float64)
    isr = np.asarray(isr_linear, dtype=np.float64)
    if np.any(snr < 0):
        raise ValueError("SNR must be non-negative")
    if np.any(isr < 0):
        raise ValueError("interference-to-signal ratio must be non-negative")
    base = np.sqrt(snr)
    offset = np.sqrt(isr)
    with np.errstate(invalid="ignore"):
        aligned = 0.5 * _erfc(base * (1.0 + offset))
        opposed = 0.5 * _erfc(base * (1.0 - offset))
    p = 0.5 * (aligned + opposed)
    # Guard the I -> inf limit (e.g. a half-duplex receiver jamming
    # itself): erfc(-inf) = 2, so p correctly tends to 0.5, but inf*0
    # produces NaN when snr == 0; random chips are the right answer.
    return np.where(np.isnan(p), 0.5, np.clip(p, 0.0, 0.5))


def transmit_chipwords(
    tx_words: np.ndarray,
    chip_error_prob: float | np.ndarray,
    rng: RngLike = None,
) -> np.ndarray:
    """Pass packed chip words through a BSC with per-word flip probability.

    Parameters
    ----------
    tx_words:
        uint32 array of transmitted codewords (one per symbol).
    chip_error_prob:
        scalar, or array of shape ``(len(tx_words),)`` giving each
        symbol's chip flip probability (from its SINR).
    rng:
        seed or generator for the error process.

    Returns the received uint32 chip words.
    """
    gen = ensure_rng(rng)
    tx_words = np.asarray(tx_words, dtype=np.uint32)
    n = tx_words.size
    p = np.broadcast_to(
        np.asarray(chip_error_prob, dtype=np.float64), (n,)
    )
    _validate_chip_probs(p)
    if n == 0:
        return tx_words.copy()
    flips = gen.random((n, 32)) < p[:, None]
    error_words = pack_bits_to_uint32(flips.astype(np.uint8))
    return tx_words ^ error_words


def _validate_chip_probs(p: np.ndarray) -> None:
    # NaN compares false to both bounds, so a plain range check lets it
    # through and the channel silently flips nothing; reject non-finite
    # probabilities explicitly.
    if not np.all(np.isfinite(p)):
        raise ValueError(
            "chip error probability must be finite, got non-finite "
            "values (NaN or infinity)"
        )
    if np.any((p < 0) | (p > 1)):
        raise ValueError("chip error probability must be in [0, 1]")


def transmit_chipwords_batch(
    tx_words: np.ndarray,
    chip_error_prob: np.ndarray,
    sizes: np.ndarray,
    keys: np.ndarray,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Keyed-stream BSC over many receptions' words in one call.

    The input is any number of streams' words concatenated flat;
    ``sizes`` gives each stream's word count and ``keys[i]`` its
    128-bit stream key (from ``derive_key(seed, "chip-channel", tx_id,
    receiver)``, one per (transmission, receiver) pair).  Stream *i*
    reads ``32 * sizes[i]`` uint32 words from the counter-based Philox
    stream under ``keys[i]`` (:func:`~repro.utils.rng.keyed_words`,
    the stream ``Generator.integers(0, 2**32)`` would draw), one per
    chip, row by row, starting ``offsets[i]`` codewords in (default
    0): a function of the key and the codeword's place in it only.  So
    a pair may transit its codewords in several calls or streams, each
    naming where its words start, and the result is bit-identical
    whether pairs transit one at a time, in blocks of many pairs, or
    sharded over worker processes.
    Chip *c* of word *w* flips when its draw ``u`` satisfies
    ``u < p[w] * 2**32``, evaluated as the integer compare
    ``u <= ceil(p[w] * 2**32) - 1``: ``p = 0`` never flips and
    ``p = 1`` always does.  Packing and the XOR against the
    transmitted words run over the whole call at once; it holds a
    transient ``(n, 32)`` bool flip matrix, so the caller bounds
    ``n`` (the network simulation passes blocks of at most 64K
    words).

    Parameters
    ----------
    tx_words:
        ``(n,)`` uint32 transmitted codewords, flat across pairs.
    chip_error_prob:
        scalar or ``(n,)`` per-word chip flip probability.
    sizes:
        per-stream word counts; must sum to ``n``.
    keys:
        ``(len(sizes), 2)`` uint64 per-stream keys.
    offsets:
        per-stream codewords of the keyed stream to skip first.

    Returns the received uint32 chip words.
    """
    tx_words = np.asarray(tx_words, dtype=np.uint32)
    n = tx_words.size
    p = np.broadcast_to(
        np.asarray(chip_error_prob, dtype=np.float64), (n,)
    )
    _validate_chip_probs(p)
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or (sizes.size and sizes.min() < 0):
        raise ValueError("sizes must be a 1-D array of non-negative counts")
    if int(sizes.sum()) != n:
        raise ValueError(
            f"sizes sum to {int(sizes.sum())} but {n} words were given"
        )
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.shape != (sizes.size, 2):
        raise ValueError(
            f"keys must be ({sizes.size}, 2) uint64, got {keys.shape}"
        )
    offsets = np.zeros_like(sizes) if offsets is None else np.asarray(
        offsets, dtype=np.int64
    )
    if offsets.shape != sizes.shape or (offsets.size and offsets.min() < 0):
        raise ValueError("offsets must be one non-negative count per size")
    if n == 0:
        return tx_words.copy()

    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    # Flip iff a 32-bit uniform u falls below p * 2**32 (exact in
    # float64).  For integer u that holds exactly when
    # u <= ceil(p * 2**32) - 1, so the compare runs in uint32 with no
    # float upcast of the draws.  The two edge rows: p == 1 gives a
    # limit of 0xFFFFFFFF and every chip flips; p == 0 gives -1, which
    # uint32 cannot hold, so those words are clamped to 0 here and
    # restored to the transmitted word after the loop (never flip).
    # Probabilities quantise at 2**-32, far below the model's fidelity.
    ceilings = np.ceil(np.ldexp(p, 32))
    limits = np.maximum(ceilings - 1.0, 0.0).astype(np.uint32)
    # Every row belongs to exactly one stream below, so the buffer
    # needs no initialisation.
    flips = np.empty((n, 32), dtype=bool)
    streams = keyed_words(keys, 32 * sizes, offsets)
    for lo, hi, words in zip(starts[:-1], starts[1:], streams, strict=True):
        np.less_equal(
            words.reshape(hi - lo, 32), limits[lo:hi, None], out=flips[lo:hi]
        )
    # Rows are 32 chips, so packing the flat matrix puts each word's
    # chip 0 in the high bit of its first byte; the four bytes read
    # big-endian are the packed chip word.
    rx = tx_words ^ np.packbits(flips.ravel()).view(">u4")
    silent = ceilings < 1.0  # p == 0: the limit of -1
    rx[silent] = tx_words[silent]
    return rx
