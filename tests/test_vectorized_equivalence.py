"""Equivalence suite: vectorized hot paths vs their loop references.

The batched reception engine rewrote the Eq. 4/5 chunking DP and
per-reception nearest-codeword decoding as numpy array programs; the
waveform engine did the same to MSK modulation, the matched filter,
and sync correlation.  Each rewrite
keeps its original pure-Python implementation as an executable
specification; these tests pin the vectorized paths to the references
**bit-for-bit** (decisions) and **float-for-float** (hints/costs/
waveforms) across randomized inputs, noise levels, and the edge cases
where tie-breaking matters.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arq.chunking import plan_chunks, plan_chunks_reference
from repro.arq.runlength import RunLengthPacket
from repro.coding.gf2 import (
    gf2_coefficients,
    gf2_eliminate,
    gf2_eliminate_reference,
)
from repro.experiments import registry
from repro.experiments.common import RunCache
from repro.link.frame import (
    FrameHeader,
    header_rows_ok,
    parse_header_bytes,
    parse_trailer_bytes,
    payload_slice,
)
from repro.link.schemes import (
    FragmentedCrcScheme,
    PacketCrcScheme,
    PprScheme,
    SicScheme,
    SpracScheme,
)
from repro.phy.batch import BatchReceptionEngine, WaveformBatchEngine
from repro.phy.channelsim import add_awgn
from repro.phy.chipchannel import transmit_chipwords, transmit_chipwords_batch
from repro.phy.codebook import Codebook, ZigbeeCodebook
from repro.phy.demodulation import MskDemodulator
from repro.phy.modulation import SAMPLES_PER_CHIP, SYMBOL_PERIOD_S, MskModulator
from repro.phy.remodulate import (
    remodulate_frame,
    remodulate_frame_reference,
)
from repro.phy.spreading import bytes_to_symbols, symbols_to_bytes
from repro.phy.sync import (
    SYNC_ERROR_THRESHOLD,
    SYNC_SYMBOLS,
    peak_offsets,
    sync_field_symbols,
)
from repro.sim.metrics import evaluate_schemes, evaluate_schemes_reference
from repro.sim import network
from repro.sim.medium import RadioMedium, Transmission
from repro.sim.network import (
    WRONG,
    NetworkSimulation,
    SimulationConfig,
    TraceTable,
    hot_codewords,
    hot_codewords_reference,
)
from repro.store import result_from_parts, result_to_parts
from repro.store.keys import canonical_json
from repro.utils import sanitize
from repro.utils.bitops import pack_bits_to_uint32, popcount32
from repro.utils.rng import (
    derive_key,
    derive_rng,
    ensure_rng,
    keyed_words,
    rng_from_key,
)


def _assert_twins_finite(label, vec, ref):
    """NaN/inf canary around a kernel-twin pair.

    Bit-equality alone cannot catch a bug both twins share: a
    vectorized kernel and its reference drifting into the same NaN
    would still compare equal, so float outputs are additionally
    required to be finite.
    """
    sanitize.check_finite(label, vec, ref)


class TestChunkingEquivalence:
    @pytest.mark.parametrize("checksum_bits", [8, 32])
    def test_randomized_packets(self, checksum_bits, rng):
        for _ in range(40):
            n_symbols = int(rng.integers(10, 300))
            mask = rng.random(n_symbols) > rng.uniform(0.05, 0.6)
            runs = RunLengthPacket.from_labels(mask)
            vec = plan_chunks(runs, checksum_bits)
            ref = plan_chunks_reference(runs, checksum_bits)
            assert vec.chunks == ref.chunks
            assert vec.segments == ref.segments
            assert vec.cost_bits == ref.cost_bits

    def test_all_good_short_circuit(self):
        runs = RunLengthPacket.from_labels(np.ones(16, dtype=bool))
        assert plan_chunks(runs) == plan_chunks_reference(runs)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, seed):
        rng = ensure_rng(seed)
        mask = rng.random(int(rng.integers(4, 120))) > 0.4
        runs = RunLengthPacket.from_labels(mask)
        vec = plan_chunks(runs, 8)
        ref = plan_chunks_reference(runs, 8)
        assert vec.chunks == ref.chunks
        assert vec.cost_bits == ref.cost_bits


class TestBatchedDecoders:
    def test_hard_decision_batch_matches_single(self, codebook, rng):
        """The simulation's one decode path, the fused ragged call, is
        bit-identical to per-array ``Codebook.decode_hard``."""
        arrays = []
        for n in (0, 5, 200, 1):
            words = codebook.encode_words(rng.integers(0, 16, n))
            arrays.append(transmit_chipwords(words, 0.12, rng))
        batch = BatchReceptionEngine(codebook).decode_hard_ragged(arrays)
        assert len(batch) == len(arrays)
        for words, (symbols, dists) in zip(arrays, batch, strict=True):
            single_symbols, single_dists = codebook.decode_hard(words)
            assert symbols.dtype == dists.dtype == np.int64
            assert np.array_equal(symbols, single_symbols)
            assert np.array_equal(dists, single_dists)

    def test_engine_all_empty(self, codebook):
        engine = BatchReceptionEngine(codebook)
        out = engine.decode_hard_ragged(
            [np.zeros(0, dtype=np.uint32)] * 3
        )
        assert len(out) == 3
        for symbols, dists in out:
            assert symbols.size == 0 and dists.size == 0


def _transmit_chipwords_batch_reference(
    tx_words, chip_error_prob, sizes, keys, offsets=None
):
    """The keyed chip channel as first written: one ``Generator`` per
    pair drawing ``integers(0, 2**32)`` chip by chip, a float64
    ``u < p * 2**32`` compare, and ``pack_bits_to_uint32``; a stream
    with an offset draws and drops that many codewords' chips first."""
    tx_words = np.asarray(tx_words, dtype=np.uint32)
    p = np.broadcast_to(
        np.asarray(chip_error_prob, dtype=np.float64), tx_words.shape
    )
    thresholds = np.ldexp(p, 32)
    rx = tx_words.copy()
    offsets = np.zeros(len(sizes), int) if offsets is None else offsets
    lo = 0
    for size, key, offset in zip(sizes, keys, offsets, strict=True):
        hi = lo + int(size)
        if hi > lo:
            uniforms = rng_from_key(key).integers(
                0, 1 << 32, size=(int(offset) + hi - lo, 32), dtype=np.uint32
            )[int(offset) :]
            flips = uniforms < thresholds[lo:hi, None]
            rx[lo:hi] ^= pack_bits_to_uint32(flips.astype(np.uint8))
        lo = hi
    return rx


def _decode_hard_reference(codebook, received_words):
    """Nearest-codeword decode as first written: the full
    ``(n, n_symbols)`` distance matrix, ``argmin`` (first minimum wins)
    and a fancy index for the distances."""
    received_words = np.asarray(received_words, dtype=np.uint32)
    words = codebook.encode_words(np.arange(codebook.n_symbols))
    dist = popcount32(received_words[:, None] ^ words[None, :])
    symbols = dist.argmin(axis=1)
    distances = dist[np.arange(dist.shape[0]), symbols]
    return symbols.astype(np.int64), distances.astype(np.int64)


def _pair_keys(count, seed=0):
    return np.stack(
        [derive_key(seed, "chip-channel", i, 23) for i in range(count)]
    )


class TestChipChannelEquivalence:
    """Raw Philox words under an integer limit vs the per-pair
    ``Generator.integers`` draw under a float64 threshold: the same
    flips, bit for bit, on every probability the float compare can
    distinguish."""

    def _assert_equivalent(self, words, p, sizes, keys, offsets=None):
        fast = transmit_chipwords_batch(words, p, sizes, keys, offsets)
        ref = _transmit_chipwords_batch_reference(
            words, p, sizes, keys, offsets
        )
        assert fast.dtype == ref.dtype == np.uint32
        assert np.array_equal(fast, ref)
        return fast

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 1001])
    def test_keyed_words_is_the_generator_stream(self, n):
        """Odd and even counts: the raw words are exactly what
        ``Generator.integers(0, 2**32)`` draws from the same key."""
        key = derive_key(5, "chip-channel", n, 24)
        (words,) = keyed_words(key[None, :], [n], [0])
        expected = rng_from_key(key).integers(0, 2**32, n, dtype=np.uint32)
        assert words.dtype == expected.dtype
        assert np.array_equal(words, expected)

    def test_keyed_words_streams_are_independent(self):
        """Re-keying one bit generator leaves no state behind: every
        stream in a call equals that stream drawn alone."""
        counts = [7, 0, 64, 1, 33]
        keys = _pair_keys(len(counts), seed=9)
        offsets = [0, 3, 1, 0, 40]
        for key, count, offset, words in zip(
            keys, counts, offsets, keyed_words(keys, counts, offsets),
            strict=True,
        ):
            (alone,) = keyed_words(key[None, :], [count], [offset])
            assert np.array_equal(words, alone)

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 320])
    def test_keyed_words_from_an_offset(self, count):
        """A stream read from ``offset`` codewords in is the tail of
        the generator's stream: offset 0, interior offsets and offsets
        at the end of the drawn stream, for odd and even counts."""
        keys = _pair_keys(4, seed=13)
        total = 10  # codewords the generator draws past the offset
        for offset in (0, 1, 7, total):
            streams = keyed_words(
                keys, [count] * len(keys), [offset] * len(keys)
            )
            for key, words in zip(keys, streams, strict=True):
                expected = rng_from_key(key).integers(
                    0, 2**32, 32 * offset + count, dtype=np.uint32
                )[32 * offset :]
                assert np.array_equal(words, expected)

    def test_split_stream_is_the_whole_stream(self, rng):
        """A pair's words sent as several streams, each naming the
        codeword its draws start at, flip exactly as in one stream,
        and in any block a stream's offset is where its words sit."""
        n = 90
        words = rng.integers(0, 2**32, n, dtype=np.uint32)
        p = rng.uniform(0.0, 0.5, n)
        key = _pair_keys(1, seed=17)
        whole = transmit_chipwords_batch(words, p, [n], key)
        cuts = [0, 8, 9, 50, 88, n]
        sizes = np.diff(cuts)
        keys = np.repeat(key, sizes.size, axis=0)
        split = self._assert_equivalent(words, p, sizes, keys, cuts[:-1])
        assert np.array_equal(split, whole)
        # Skipping codewords skips their draws only.
        kept = np.r_[0:8, 50:88]
        alone = transmit_chipwords_batch(
            words[kept], p[kept], [8, 38], np.repeat(key, 2, axis=0), [0, 50]
        )
        assert np.array_equal(alone, whole[kept])

    def test_rejects_bad_offsets(self, rng):
        words = rng.integers(0, 2**32, 4, dtype=np.uint32)
        keys = _pair_keys(2)
        for offsets in ([0], [0, -1]):
            with pytest.raises(ValueError, match="offsets"):
                transmit_chipwords_batch(words, 0.1, [2, 2], keys, offsets)

    def test_random_pairs(self, rng):
        sizes = rng.integers(0, 60, 40)
        n = int(sizes.sum())
        words = rng.integers(0, 2**32, n, dtype=np.uint32)
        p = rng.uniform(0.0, 0.5, n)
        self._assert_equivalent(words, p, sizes, _pair_keys(sizes.size))

    def test_probability_edges(self, rng):
        """p = 0, the smallest subnormal, 0.5, 1 and every exact
        ``k * 2**-32`` boundary met by a real draw, with its
        neighbours one ulp either side."""
        fixed = [0.0, 5e-324, 2.0**-32, 0.5, 1.0 - 2.0**-32, 1.0]
        key = derive_key(1, "chip-channel", 7, 23)
        # The draws the first pair will see: anchor each boundary word's
        # probability on the draw of one of its chips.
        n_boundary = 64
        draws = rng_from_key(key).integers(
            0, 2**32, (n_boundary * 3, 32), dtype=np.uint32
        )
        chip = np.arange(n_boundary * 3) % 32
        anchors = draws[np.arange(n_boundary * 3), chip].astype(np.float64)
        exact = np.ldexp(anchors, -32)
        p_boundary = np.concatenate(
            [
                exact[:n_boundary],
                np.nextafter(exact[n_boundary : 2 * n_boundary], 0.0),
                np.nextafter(exact[2 * n_boundary :], 1.0),
            ]
        )
        p = np.concatenate([p_boundary, np.repeat(fixed, 8)])
        words = rng.integers(0, 2**32, p.size, dtype=np.uint32)
        sizes = [n_boundary * 3, p.size - n_boundary * 3]
        keys = np.stack([key, derive_key(1, "chip-channel", 8, 23)])
        rx = self._assert_equivalent(words, p, sizes, keys)

        # Independent of either kernel: chip c flips iff u < p * 2**32.
        flipped = (rx[: n_boundary * 3] ^ words[: n_boundary * 3]) >> (
            31 - chip
        ) & 1
        assert not flipped[: 2 * n_boundary].any()  # u < u is false
        assert flipped[2 * n_boundary :].all()  # u < u + ulp holds
        tail = rx[n_boundary * 3 :].reshape(len(fixed), 8)
        sent = words[n_boundary * 3 :].reshape(len(fixed), 8)
        assert np.array_equal(tail[0], sent[0])  # p == 0 never flips
        assert np.array_equal(tail[-1], ~sent[-1])  # p == 1 always does

    def test_zero_size_pairs(self, rng):
        sizes = [0, 5, 0, 0, 12, 0]
        n = sum(sizes)
        words = rng.integers(0, 2**32, n, dtype=np.uint32)
        p = rng.uniform(0.0, 0.4, n)
        self._assert_equivalent(words, p, sizes, _pair_keys(len(sizes)))
        empty = np.zeros(0, dtype=np.uint32)
        self._assert_equivalent(empty, empty, [0, 0], _pair_keys(2))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed):
        rng = ensure_rng(seed)
        sizes = rng.integers(0, 30, int(rng.integers(1, 8)))
        n = int(sizes.sum())
        words = rng.integers(0, 2**32, n, dtype=np.uint32)
        # Mix continuous probabilities with exact 2**-32 multiples.
        p = np.where(
            rng.random(n) < 0.5,
            rng.uniform(0.0, 1.0, n),
            np.ldexp(rng.integers(0, 2**32, n).astype(np.float64), -32),
        )
        self._assert_equivalent(
            words,
            p,
            sizes,
            _pair_keys(sizes.size, seed=seed),
            rng.integers(0, 20, sizes.size),
        )


class TestDecodeHardEquivalence:
    """The blocked minimum-key decode vs the full distance matrix."""

    def _assert_equivalent(self, codebook, received):
        fast = codebook.decode_hard(received)
        ref = _decode_hard_reference(codebook, received)
        for a, b in zip(fast, ref, strict=True):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
        return fast

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
    def test_random_words(self, n, codebook, rng):
        """Single words, and both sides of the 4096-word block edge."""
        received = rng.integers(0, 2**32, n, dtype=np.uint32)
        self._assert_equivalent(codebook, received)

    def test_noisy_codewords(self, codebook, rng):
        sent = codebook.encode_words(rng.integers(0, 16, 2000))
        received = transmit_chipwords(sent, 0.15, rng)
        self._assert_equivalent(codebook, received)

    def test_equidistant_words_go_to_the_lowest_index(self, codebook):
        """A word halfway between two codewords decodes to the lower
        index whenever no third codeword is closer."""
        words = codebook.encode_words(np.arange(codebook.n_symbols))
        received, expected = [], []
        for a in range(codebook.n_symbols):
            for b in range(a + 1, codebook.n_symbols):
                diff = int(words[a] ^ words[b])
                bits = [i for i in range(32) if diff >> i & 1]
                half = sum(1 << i for i in bits[: len(bits) // 2])
                word = int(words[a]) ^ half
                dists = [bin(word ^ int(w)).count("1") for w in words]
                if len(bits) % 2 == 0 and min(dists) == dists[a] == dists[b]:
                    received.append(word)
                    expected.append(dists.index(min(dists)))
        assert len(received) > 20
        symbols, _ = self._assert_equivalent(
            codebook, np.array(received, dtype=np.uint32)
        )
        assert symbols.tolist() == expected

    @pytest.mark.parametrize("n_symbols", [2, 64, 2048])
    def test_other_codebook_sizes(self, n_symbols, rng):
        """Key widths from uint8 (2 codewords) to uint32 (2048)."""
        codewords = rng.choice(2**32, n_symbols, replace=False).astype(">u4")
        chips = np.unpackbits(codewords.view(np.uint8)).reshape(n_symbols, 32)
        codebook = Codebook(chips)
        received = rng.integers(0, 2**32, 3000, dtype=np.uint32)
        self._assert_equivalent(codebook, received)

    def test_empty(self, codebook):
        symbols, dists = self._assert_equivalent(
            codebook, np.zeros(0, dtype=np.uint32)
        )
        assert symbols.size == dists.size == 0


def _frame_capture(codebook, rng, n_body, noise=0.08):
    """A noisy single-frame capture plus its body symbols."""
    body = rng.integers(0, 16, n_body)
    stream = np.concatenate(
        [
            sync_field_symbols("preamble"),
            body,
            sync_field_symbols("postamble"),
        ]
    )
    wave = MskModulator().modulate_symbols(stream, codebook)
    return body, add_awgn(wave, noise, rng)


class TestModulatorEquivalence:
    def test_random_chips_bit_identical(self, rng):
        mod = MskModulator()
        for n in (0, 2, 8, 64, 1500):
            chips = rng.integers(0, 2, n)
            vec = mod.modulate_chips(chips)
            ref = mod.modulate_chips_reference(chips)
            _assert_twins_finite("modulate_chips", vec, ref)
            assert np.array_equal(
                vec.view(np.float64), ref.view(np.float64)
            ), f"(n={n})"

    def test_single_codeword(self, codebook, rng):
        mod = MskModulator()
        chips = codebook.encode(rng.integers(0, 16, 1))
        vec = mod.modulate_chips(chips)
        ref = mod.modulate_chips_reference(chips)
        assert np.array_equal(vec.view(np.float64), ref.view(np.float64))

    def test_reference_validates_like_vectorized(self):
        mod = MskModulator()
        for method in (mod.modulate_chips, mod.modulate_chips_reference):
            with pytest.raises(ValueError, match="even"):
                method(np.zeros(3, dtype=np.int64))
            with pytest.raises(ValueError, match="0/1"):
                method(np.array([0, 2]))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 120))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed, half_chips):
        rng = ensure_rng(seed)
        mod = MskModulator()
        chips = rng.integers(0, 2, 2 * half_chips)
        vec = mod.modulate_chips(chips)
        ref = mod.modulate_chips_reference(chips)
        _assert_twins_finite("modulate_chips(property)", vec, ref)
        assert np.array_equal(vec.view(np.float64), ref.view(np.float64))


class TestDemodulatorEquivalence:
    def test_noisy_captures_bit_identical(self, rng):
        demod = MskDemodulator()
        mod = MskModulator()
        sps = SAMPLES_PER_CHIP
        for n in (2, 32, 500):
            chips = rng.integers(0, 2, n)
            capture = add_awgn(mod.modulate_chips(chips), 0.3, rng)
            for start in (0, 1, sps):
                m = (capture.size - start - 2 * sps) // sps + 1
                m = min(max(m, 0), n)
                vec = demod.demodulate_soft(capture, start, m)
                ref = demod.demodulate_soft_reference(capture, start, m)
                _assert_twins_finite("demodulate_soft", vec, ref)
                assert np.array_equal(vec, ref), f"(n={n}, start={start})"

    def test_zero_chips(self):
        demod = MskDemodulator()
        capture = np.zeros(40, dtype=np.complex128)
        assert np.array_equal(
            demod.demodulate_soft(capture, 0, 0),
            demod.demodulate_soft_reference(capture, 0, 0),
        )
        assert demod.demodulate_soft(capture, 0, 0).size == 0

    def test_single_codeword(self, codebook, rng):
        demod = MskDemodulator()
        mod = MskModulator()
        chips = codebook.encode(rng.integers(0, 16, 1))
        capture = add_awgn(mod.modulate_chips(chips), 0.2, rng)
        vec = demod.demodulate_soft(capture, 0, 32)
        ref = demod.demodulate_soft_reference(capture, 0, 32)
        assert np.array_equal(vec, ref)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed, half_chips):
        rng = ensure_rng(seed)
        demod = MskDemodulator()
        mod = MskModulator()
        chips = rng.integers(0, 2, 2 * half_chips)
        capture = add_awgn(mod.modulate_chips(chips), 0.5, rng)
        vec = demod.demodulate_soft(capture, 0, chips.size)
        ref = demod.demodulate_soft_reference(capture, 0, chips.size)
        _assert_twins_finite("demodulate_soft(property)", vec, ref)
        assert np.array_equal(vec, ref)


class TestCorrelatorEquivalence:
    # The FFT fast path reassociates the time-domain sums, so the
    # correlator twins are pinned at 1e-12 on normalised outputs in
    # [-1, 1] — the one sanctioned deviation from the bit-for-bit
    # pin (documented in repro.phy.fftcorr).
    TOL = dict(rtol=1e-12, atol=1e-12)

    def test_sample_domain_matches_reference(self, codebook, rng):
        """Receiver correlation (FFT fast path) vs its per-offset
        conjugate-dot loop spec ``correlation_reference``."""
        engine = WaveformBatchEngine(codebook)
        mod = MskModulator()
        stream = np.concatenate(
            [
                rng.integers(0, 16, 10),
                sync_field_symbols("preamble"),
                rng.integers(0, 16, 20),
            ]
        )
        capture = add_awgn(
            mod.modulate_symbols(stream, codebook), 0.3, rng
        )
        for kind in ("preamble", "postamble"):
            vec = engine.correlation(capture, kind)
            ref = engine.correlation_reference(capture, kind)
            _assert_twins_finite(f"correlation({kind})", vec, ref)
            np.testing.assert_allclose(vec, ref, **self.TOL)

    def test_shared_transform_is_bit_identical(self, codebook, rng):
        """Both sync correlations from one capture transform equal
        each correlation computed alone, exactly, in either order;
        so do the collision receiver's detections."""
        engine = WaveformBatchEngine(codebook)
        capture = _collided_capture(codebook, rng, 30)
        kinds = ("preamble", "postamble")
        for captured in (capture, capture[:100]):
            alone = [engine.correlation(captured, kind) for kind in kinds]
            shared = engine.correlations(captured, kinds)
            flipped = engine.correlations(captured, kinds[::-1])[::-1]
            for one, two, three in zip(alone, shared, flipped, strict=True):
                assert one.dtype == two.dtype == three.dtype
                assert np.array_equal(one, two)
                assert np.array_equal(one, three)
        pair = engine.receive_collision_pair(capture, 30)
        assert pair.preamble_detections == engine.detect(capture, "preamble")
        assert pair.postamble_detections == engine.detect(
            capture, "postamble"
        )
        assert pair.preamble_detections and pair.postamble_detections


class TestRemodulateEquivalence:
    """The SIC re-synthesis kernel vs its per-chip loop spec."""

    def _stream(self, rng, n_body=40):
        return np.concatenate(
            [
                sync_field_symbols("preamble"),
                rng.integers(0, 16, n_body),
                sync_field_symbols("postamble"),
            ]
        )

    def test_unit_frame_bit_identical(self, codebook, rng):
        stream = self._stream(rng)
        vec = remodulate_frame(stream, codebook)
        ref = remodulate_frame_reference(stream, codebook)
        _assert_twins_finite("remodulate_frame", vec, ref)
        assert np.array_equal(
            vec.view(np.float64), ref.view(np.float64)
        )

    def test_scaled_frame_bit_identical(self, codebook, rng):
        """Gain and carrier phase go through one shared complex
        multiply, so scaling keeps the twins bit-for-bit."""
        stream = self._stream(rng, n_body=25)
        for gain, phase in [(0.37, 0.0), (1.0, -1.2), (2.5e-4, 2.9)]:
            vec = remodulate_frame(
                stream, codebook, gain=gain, phase=phase
            )
            ref = remodulate_frame_reference(
                stream, codebook, gain=gain, phase=phase
            )
            assert np.array_equal(
                vec.view(np.float64), ref.view(np.float64)
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, seed):
        rng = ensure_rng(seed)
        codebook = ZigbeeCodebook()
        stream = rng.integers(0, 16, int(rng.integers(2, 60)))
        gain = float(rng.uniform(1e-4, 3.0))
        phase = float(rng.uniform(-np.pi, np.pi))
        vec = remodulate_frame(
            stream, codebook, gain=gain, phase=phase
        )
        ref = remodulate_frame_reference(
            stream, codebook, gain=gain, phase=phase
        )
        assert np.array_equal(
            vec.view(np.float64), ref.view(np.float64)
        )

    def test_matches_transmitter(self, codebook, rng):
        """A unit-gain re-synthesis reproduces the transmitter's
        waveform exactly — the property cancellation relies on."""
        stream = self._stream(rng)
        mod = MskModulator()
        assert np.array_equal(
            remodulate_frame(stream, codebook),
            mod.modulate_symbols(stream, codebook),
        )


class _ReceiverOracle:
    """The waveform receiver composed only of loop twins.

    Detection is the per-offset correlation
    (``correlation_reference``), the peak picker and the conjugate dot
    product against a loop-modulated sync field at each peak; a body
    is derotated by that phase, matched-filtered chip by chip
    (``demodulate_soft_reference``) and hard-decoded by
    ``Codebook.decode_hard``.  :class:`WaveformBatchEngine` must return
    the same anchors, phases, symbols and hints, and scores within the
    correlator's 1e-12.
    """

    THRESHOLD = 0.70  # WaveformBatchEngine's default

    def __init__(self, engine, codebook):
        self._engine = engine
        self._codebook = codebook
        modulator = MskModulator()
        self._refs = {
            kind: modulator.modulate_chips_reference(
                codebook.encode(sync_field_symbols(kind))
            )
            for kind in ("preamble", "postamble")
        }

    def detect(self, capture, kind):
        """``(offset, phase, score)`` per detection, in capture order."""
        ref = self._refs[kind]
        corr = self._engine.correlation_reference(capture, kind)
        found = []
        for peak in peak_offsets(corr, self.THRESHOLD, ref.size):
            raw = np.dot(capture[peak : peak + ref.size], np.conj(ref))
            found.append((peak, float(np.angle(raw)), float(corr[peak])))
        return found

    def decode(self, capture, kind, offset, phase, n_body):
        """``(symbols, hints)`` of the body a sync field anchors."""
        anchor = SYNC_SYMBOLS if kind == "preamble" else -n_body
        start = offset + anchor * 32 * SAMPLES_PER_CHIP
        rotated = capture * np.exp(-1j * phase) if phase else capture
        soft = MskDemodulator().demodulate_soft_reference(
            rotated, start, n_body * 32
        )
        words = pack_bits_to_uint32(
            (soft > 0).astype(np.uint8).reshape(-1, 32)
        )
        symbols, distances = self._codebook.decode_hard(words)
        return symbols, distances.astype(np.float64)

    def receive(self, capture, n_body):
        """The reception policy: the first preamble whose body fits,
        else the last postamble whose body fits, else nothing."""
        for kind, pick in (("preamble", 0), ("postamble", -1)):
            found = self.detect(capture, kind)
            if not found:
                continue
            offset, phase, score = found[pick]
            try:
                decoded = self.decode(capture, kind, offset, phase, n_body)
            except ValueError:  # the body reaches outside the capture
                continue
            return (kind, offset, phase, score), decoded
        return None


def _assert_matches_oracle(detection, decoded, expected):
    """One engine detection and its decode vs the oracle's."""
    (kind, offset, phase, score), (symbols, hints) = expected
    assert detection.kind == kind
    assert detection.sample_offset == offset
    assert detection.phase == phase
    assert detection.score == pytest.approx(score, rel=1e-12, abs=1e-12)
    assert np.array_equal(decoded[0], symbols)
    assert np.array_equal(decoded[1], hints)


def _oracle_capture(codebook, scenario, n_body=30):
    """A capture of one of the receiver's cases, and its frame body."""
    rng = ensure_rng(11)
    if scenario == "noise":
        return None, add_awgn(
            np.zeros(6000, dtype=np.complex128), 1.0, rng
        )
    body, capture = _frame_capture(codebook, rng, n_body)
    if scenario == "rollback":
        # Cut the head of the preamble: only the postamble locks.
        capture = capture[6 * 32 * SAMPLES_PER_CHIP :]
    elif scenario == "rotated":
        capture = capture * np.exp(1j * 1.1)
    return body, capture


_SCENARIOS = ["clean", "rollback", "rotated", "noise"]


def _collided_capture(codebook, rng, n_body=40):
    """Two frames overlapping by 15 codewords (Fig. 5)."""
    overlap = 15
    mod = MskModulator()
    streams = []
    for _ in range(2):
        body = rng.integers(0, 16, n_body)
        streams.append(
            np.concatenate(
                [
                    sync_field_symbols("preamble"),
                    body,
                    sync_field_symbols("postamble"),
                ]
            )
        )
    offset = (streams[0].size - overlap) * 32 * SAMPLES_PER_CHIP
    wave1 = mod.modulate_symbols(streams[0], codebook)
    wave2 = mod.modulate_symbols(streams[1], codebook)
    capture = np.zeros(offset + wave2.size, dtype=np.complex128)
    capture[: wave1.size] += wave1
    capture[offset:] += wave2
    return add_awgn(capture, 0.05, rng)


class TestReceiverOracle:
    @pytest.fixture()
    def engine(self, codebook):
        return WaveformBatchEngine(codebook)

    @pytest.mark.parametrize("kind", ["preamble", "postamble"])
    @pytest.mark.parametrize("scenario", _SCENARIOS + ["collided"])
    def test_detections_match_oracle(self, engine, codebook, scenario, kind):
        if scenario == "collided":
            capture = _collided_capture(codebook, ensure_rng(5))
        else:
            _, capture = _oracle_capture(codebook, scenario)
        detections = engine.detect(capture, kind)
        expected = _ReceiverOracle(engine, codebook).detect(capture, kind)
        assert len(detections) == len(expected)
        for detection, (offset, phase, score) in zip(
            detections, expected, strict=True
        ):
            assert detection.kind == kind
            assert (detection.sample_offset, detection.phase) == (offset, phase)
            assert detection.score == pytest.approx(score, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scenario", _SCENARIOS)
    def test_receive_frames_matches_oracle(self, engine, codebook, scenario):
        body, capture = _oracle_capture(codebook, scenario)
        reception = engine.receive_frames(capture, 30)
        expected = _ReceiverOracle(engine, codebook).receive(capture, 30)
        if expected is None:
            assert body is None and not reception.acquired
            assert reception.symbols.size == reception.hints.size == 0
            return
        _assert_matches_oracle(
            reception.detection,
            (reception.symbols, reception.hints),
            expected,
        )
        assert np.array_equal(reception.symbols, body)


class TestWaveformBatchEngineEquivalence:
    @pytest.fixture()
    def engine(self, codebook):
        return WaveformBatchEngine(codebook)

    def test_decode_batch_empty_requests(self, engine, codebook, rng):
        _, capture = _frame_capture(codebook, rng, 30)
        assert engine.decode(capture, [], 30) == []

    def test_receive_frames_policy(self, engine, codebook, rng):
        """Same-size frames: every clean capture decodes its body via
        the preamble; a noise capture yields an empty reception."""
        for _ in range(3):
            body, capture = _frame_capture(codebook, rng, 25)
            reception = engine.receive_frames(capture, 25)
            assert reception.detection.kind == "preamble"
            assert np.array_equal(reception.symbols, body)
        noise = add_awgn(np.zeros(6000, dtype=np.complex128), 1.0, rng)
        reception = engine.receive_frames(noise, 25)
        assert not reception.acquired
        assert reception.symbols.size == 0

    def test_receive_collision_pair_matches_manual(
        self, engine, codebook, rng
    ):
        """Both sides of a two-packet collision equal the loop-twin
        oracle: the first preamble decoded forward, the last postamble
        rolled back."""
        n_body = 40
        capture = _collided_capture(codebook, rng, n_body)
        pair = engine.receive_collision_pair(capture, n_body)
        oracle = _ReceiverOracle(engine, codebook)
        for reception, kind, pick in (
            (pair.first, "preamble", 0),
            (pair.second, "postamble", -1),
        ):
            offset, phase, score = oracle.detect(capture, kind)[pick]
            decoded = oracle.decode(capture, kind, offset, phase, n_body)
            _assert_matches_oracle(
                reception.detection,
                (reception.symbols, reception.hints),
                ((kind, offset, phase, score), decoded),
            )

    def test_receive_frames_rollback(self, engine, codebook, rng):
        """A frame whose preamble is cut off the capture is recovered
        through its postamble (the Fig. 5 rollback at engine level)."""
        body, capture = _frame_capture(codebook, rng, 25)
        # Drop the preamble (10 symbols) from the front of the capture.
        cut = capture[6 * 32 * SAMPLES_PER_CHIP :]
        reception = engine.receive_frames(cut, 25)
        assert reception.detection.kind == "postamble"
        assert np.array_equal(reception.symbols, body)


class TestGfKernelEquivalence:
    """The coding layer's GF(2) elimination vs its loop reference.

    ``gf2_eliminate`` works on bit-packed uint64 words and keeps its
    pure-loop implementation as the executable specification.  The
    pair is pinned exactly, including the rank-deficient systems where
    only some unknowns resolve.
    """

    def test_gf2_eliminate_random_sweep(self, rng):
        for trial in range(25):
            k = int(rng.integers(1, 12))
            m = int(rng.integers(1, 16))
            coeffs = rng.integers(0, 2, (m, k)).astype(np.uint8)
            assert np.array_equal(
                gf2_eliminate(coeffs), gf2_eliminate_reference(coeffs)
            ), f"trial={trial}"

    def test_gf2_eliminate_wide_coefficients(self, rng):
        """k > 64 exercises multi-word coefficient packing."""
        k, m = 100, 110
        coeffs = rng.integers(0, 2, (m, k)).astype(np.uint8)
        assert np.array_equal(
            gf2_eliminate(coeffs), gf2_eliminate_reference(coeffs)
        )

    def test_gf2_eliminate_degenerate_systems(self):
        zero = np.zeros((3, 4), dtype=np.uint8)
        rec = gf2_eliminate(zero)
        assert np.array_equal(rec, gf2_eliminate_reference(zero))
        assert not rec.any()
        # Duplicate rows collapse to rank 1.
        dup = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8)
        assert np.array_equal(
            gf2_eliminate(dup), gf2_eliminate_reference(dup)
        )

    @staticmethod
    def _assert_stack_matches_reference(stack):
        got = gf2_eliminate(stack)
        assert got.shape == (stack.shape[0], stack.shape[2])
        for i, system in enumerate(stack):
            assert np.array_equal(got[i], gf2_eliminate_reference(system)), i

    @pytest.mark.parametrize("k", [5, 30, 64, 65, 130])
    def test_batched_stack_matches_reference(self, rng, k):
        """One batched call over a stack of mixed-rank systems (dense,
        sparse, all-zero, duplicated rows) equals the loop reference
        system by system; k > 64 spans several words."""
        m = 12
        density = rng.uniform(0.0, 1.0, (40, 1, 1))
        stack = (rng.random((40, m, k)) < density).astype(np.uint8)
        stack[0] = 0  # every unknown erased, no surviving equation
        stack[1, :, : k // 2] = 0  # half the columns carry nothing
        stack[2, 1:] = stack[2, :1]  # one row, repeated
        stack[3, m // 2 :] = stack[3, : m // 2]  # every row twice
        stack[4] = np.eye(m, k, dtype=np.uint8)  # unit rows only
        self._assert_stack_matches_reference(stack)

    def test_batched_stack_of_repair_patterns(self, rng):
        """Stacks shaped like S-PRAC's: one coefficient matrix with
        lost repair rows and intact columns zeroed, including systems
        with every segment erased and with no surviving repair row."""
        k, r = 30, 15
        coeffs = gf2_coefficients(0, "rlnc-coeffs", k, r, shape=(r, k))
        erased = rng.random((60, k)) < rng.uniform(0.0, 1.0, (60, 1))
        repair_ok = rng.random((60, r)) < rng.uniform(0.0, 1.0, (60, 1))
        erased[0] = True
        repair_ok[1] = False
        erased[2], repair_ok[2] = True, False
        stack = coeffs & repair_ok[:, :, None] & erased[:, None, :]
        self._assert_stack_matches_reference(stack.astype(np.uint8))

    def test_batched_degenerate_shapes(self):
        assert gf2_eliminate(np.zeros((0, 3, 4), dtype=np.uint8)).shape == (0, 4)
        empty_rows = gf2_eliminate(np.zeros((2, 0, 4), dtype=np.uint8))
        assert empty_rows.shape == (2, 4) and not empty_rows.any()
        with pytest.raises(ValueError):
            gf2_eliminate(np.zeros(4, dtype=np.uint8))


def _every_scheme():
    """One of each trace-evaluable scheme kind, freshly built."""
    return [
        PacketCrcScheme(),
        FragmentedCrcScheme(n_fragments=15),
        FragmentedCrcScheme(n_fragments=30),
        FragmentedCrcScheme(n_fragments=60),
        PprScheme(eta=6.0),
        SicScheme(eta=3.0),
        SpracScheme(n_segments=30, n_repair=15),
        SpracScheme(n_segments=10, n_repair=5),
    ]


class TestSchemeEvaluationEquivalence:
    """The columnar trace evaluator vs its per-record reference.

    ``evaluate_schemes`` gathers a run's acquired receptions into one
    trace block and lets each scheme score it at once;
    ``evaluate_schemes_reference`` walks record by record.  Every
    variant must produce equal ``LinkObservation`` counters on every
    link, as Python ints.
    """

    @staticmethod
    def _assert_equivalent(
        result, postamble_options=(False, True), schemes=_every_scheme
    ):
        vec = evaluate_schemes(result, schemes(), postamble_options)
        ref = evaluate_schemes_reference(result, schemes(), postamble_options)
        assert len(vec) == len(ref) == len(schemes()) * len(postamble_options)
        for a, b in zip(vec, ref, strict=True):
            assert a.label == b.label
            assert a.stats.links() == b.stats.links()
            for link in a.stats.links():
                got, want = asdict(a.stats[link]), asdict(b.stats[link])
                assert got == want, f"{a.label} {link}"
                assert all(type(v) is int for v in got.values())

    @staticmethod
    def _with_rows(result, rows):
        return replace(result, table=_take(result.table, rows))

    def test_recorded_traces(self, small_sim_result):
        result = self._with_rows(small_sim_result, slice(400))
        acquired = result.table.acquired(True)
        assert acquired.any() and not acquired.all()
        self._assert_equivalent(result)

    @pytest.mark.parametrize("postamble", [False, True])
    def test_single_postamble_mode(self, small_sim_result, postamble):
        result = self._with_rows(small_sim_result, slice(200))
        self._assert_equivalent(result, (postamble,))

    @pytest.mark.parametrize("payload_bytes", [150, 3])
    def test_real_runs_of_other_payload_lengths(self, payload_bytes):
        """Short runs at other frame layouts; 3 bytes give 6 payload
        symbols, fewer than every scheme's fragment count."""
        config = SimulationConfig(
            load_bits_per_s_per_node=8 * payload_bytes * 8.0,  # 8 frames/s
            payload_bytes=payload_bytes,
            duration_s=1.0,
            carrier_sense=False,
            seed=7,
        )
        result = NetworkSimulation(config).run()
        assert result.table.acquired(True).any()
        self._assert_equivalent(result)

    @pytest.mark.parametrize("width", [9, 61, None])
    def test_sprac_adversarial_blocks(self, small_sim_result, rng, width):
        """S-PRAC where its layout is awkward: payloads narrower than
        k, L not divisible by k, repair windows that wrap past the
        end, all-wrong rows, wrong codewords only at the first or last
        symbol, random bursts, and clean rows."""
        result = self._with_rows(small_sim_result, slice(300))
        payload = result.table.payload[:, :width] & ~np.uint8(WRONG)
        n, length = payload.shape
        group = np.arange(n) % 5
        payload[group == 0] |= WRONG
        payload[group == 1, 0] |= WRONG
        payload[group == 2, -1] |= WRONG
        for row in np.flatnonzero(group == 3):
            start = int(rng.integers(length))
            payload[row, start : start + int(rng.integers(1, 12))] |= WRONG
        result = replace(result, table=replace(result.table, payload=payload))
        assert result.table.acquired(True)[group == 0].any()

        def spracs():
            return [
                SpracScheme(n_segments=k, n_repair=r)
                for k, r in ((1, 1), (4, 2), (7, 3), (10, 5), (30, 15), (60, 30))
            ]

        self._assert_equivalent(result, schemes=spracs)

    def test_no_acquired_records(self, small_sim_result):
        result = self._with_rows(small_sim_result, slice(50))
        result.table.acquired_preamble[:] = False
        result.table.trailer_ok[:] = False
        self._assert_equivalent(result)
        for evaluation in evaluate_schemes(result, _every_scheme()):
            for link in evaluation.stats.links():
                assert evaluation.stats[link].frames_acquired == 0

    def test_no_records(self, small_sim_result):
        self._assert_equivalent(self._with_rows(small_sim_result, slice(0)))

    def test_stored_table_without_rows(self, small_sim_result):
        """A stored run without receptions keeps its payload width."""
        result = result_from_parts(
            *result_to_parts(self._with_rows(small_sim_result, slice(0)))
        )
        width = small_sim_result.table.payload.shape[1]
        assert result.table.payload.shape == (0, width)
        self._assert_equivalent(result)


#: an on-air index past the end of every frame: ``before`` it lie all
#: of a pair's hot codewords
_PAST_ANY_FRAME = 1 << 40


def _assert_hot_equal(a, b):
    """Two hot-codeword sets name the same pairs and, expanded to
    words, the same codewords at the same probabilities."""
    for name in ("tx_index", "receiver"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), f"{name} diverges"
    for index in (0, 1, 7, 100, _PAST_ANY_FRAME):
        assert np.array_equal(a.before(index), b.before(index)), index
    for name, x, y in zip(("pair", "index", "prob"), a.words(), b.words()):
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), f"{name} diverges"


class TestHotCodewordsEquivalence:
    """Segment-wise chip error probabilities vs the per-symbol loop.

    ``hot_codewords`` evaluates each reception's interference once per
    constant segment and returns one run per hot segment; expanded to
    words, it must equal the per-pair ``interference_timeline_mw`` loop
    in every index and every float.
    """

    def _assert_equivalent(self, *args):
        vec = hot_codewords(*args)
        ref = hot_codewords_reference(*args)
        _assert_hot_equal(vec, ref)
        # Runs are non-empty, sorted by pair and start, and disjoint.
        assert np.all(vec.length > 0)
        same_pair = vec.pair[1:] == vec.pair[:-1]
        ends = (vec.start + vec.length)[:-1]
        assert np.all(np.diff(vec.pair) >= 0)
        assert np.all(vec.start[1:][same_pair] >= ends[same_pair])
        return ref

    @staticmethod
    def _tx(tx_id, sender, start_symbols, n_symbols):
        return Transmission(
            tx_id=tx_id,
            sender=sender,
            dst=-1,
            start=start_symbols * SYMBOL_PERIOD_S,
            n_symbols=n_symbols,
        )

    @pytest.mark.parametrize("carrier_sense", [False, True])
    @pytest.mark.parametrize("fading_sigma_db", [0.0, 3.0])
    def test_simulated_transmissions(self, carrier_sense, fading_sigma_db):
        config = SimulationConfig(
            load_bits_per_s_per_node=13800.0,
            duration_s=2.0,
            carrier_sense=carrier_sense,
            fading_sigma_db=fading_sigma_db,
            seed=11,
        )
        sim = NetworkSimulation(config)
        transmissions, _air = sim._generate_transmissions()
        ref = self._assert_equivalent(
            sim.medium,
            transmissions,
            sim.testbed.receiver_ids,
            sim._draw_fades(transmissions),
            config.min_rx_snr_db,
        )
        # Collisions were exercised, and some pairs were below the floor.
        assert ref.length.sum()
        n_pairs = len(transmissions) * len(sim.testbed.receiver_ids)
        assert 0 < ref.tx_index.size < n_pairs

    def test_half_duplex_and_lone_reception(self):
        """Receiver 1 also transmits (inf interference on what it
        overlaps); the last frame overlaps nothing."""
        medium = RadioMedium(
            positions_m=np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]]),
            seed=3,
        )
        transmissions = [
            self._tx(0, 0, 0.0, 50),
            self._tx(1, 1, 10.5, 20),
            self._tx(2, 2, 30.0, 40),
            self._tx(3, 0, 1000.0, 30),
        ]
        # Gains at receivers (1, 3); a sender's own column stays 1.
        fades = np.array([[1.0, 0.5], [1.0, 1.0], [1.5, 2.0], [1.0, 1.0]])
        ref = self._assert_equivalent(
            medium, transmissions, (1, 3), fades, 0.0
        )
        assert ref.tx_index.tolist() == [0, 0, 1, 2, 2, 3, 3]
        assert ref.receiver.tolist() == [1, 3, 3, 1, 3, 1, 3]
        assert np.any(ref.prob == 0.5)  # the half-duplex inf level
        assert ref.before(_PAST_ANY_FRAME)[-2:].tolist() == [0, 0]  # no overlaps

    def test_no_transmissions(self):
        medium = RadioMedium(positions_m=np.array([[0.0, 0.0], [1.0, 0.0]]))
        ref = self._assert_equivalent(medium, [], (1,), np.ones((0, 1)), 0.0)
        assert ref.tx_index.size == 0

    def test_spans_of_some_pairs_are_their_expanded_words(self):
        """``within`` keeps exactly the chosen pairs' codewords in the
        spans, renumbered; ``before`` counts each pair's codewords
        below an index."""
        sim = NetworkSimulation(_COLLISION_CONFIG)
        transmissions, _air = sim._generate_transmissions()
        hot = hot_codewords(
            sim.medium,
            transmissions,
            sim.testbed.receiver_ids,
            sim._draw_fades(transmissions),
            _COLLISION_CONFIG.min_rx_snr_db,
        )
        pair, index, prob = hot.words()
        for index_at in (0, 9, 40, _PAST_ANY_FRAME):
            below = np.bincount(
                pair[index < index_at], minlength=hot.tx_index.size
            )
            assert np.array_equal(hot.before(index_at), below)
        rows = np.arange(0, hot.tx_index.size, 2)
        spans = ((0, 9), (20, 30), (40, 1000))
        sub = hot.within(rows, spans)
        in_span = np.zeros(index.size, dtype=bool)
        for lo, hi in spans:
            in_span |= (index >= lo) & (index < hi)
        keep = np.isin(pair, rows) & in_span
        assert keep.any() and not keep.all()
        expected = (np.searchsorted(rows, pair[keep]), index[keep], prob[keep])
        for got, want in zip(sub.words(), expected, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(sub.tx_index, hot.tx_index[rows])
        assert np.array_equal(sub.receiver, hot.receiver[rows])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, seed):
        """Random geometry, airtimes, fades and SNR floors."""
        rng = ensure_rng(seed)
        n_nodes = int(rng.integers(2, 6))
        medium = RadioMedium(
            positions_m=rng.uniform(0.0, 30.0, (n_nodes, 2)),
            seed=int(rng.integers(0, 1000)),
        )
        count = int(rng.integers(0, 12))
        starts = np.sort(rng.uniform(0.0, 200.0, count))
        transmissions = [
            self._tx(
                i,
                int(rng.integers(0, n_nodes)),
                float(start),
                int(rng.integers(1, 80)),
            )
            for i, start in enumerate(starts)
        ]
        receivers = tuple(
            rng.choice(n_nodes, int(rng.integers(1, n_nodes + 1)), replace=False).tolist()
        )
        shape = (count, len(receivers))
        fades = np.where(
            rng.random(shape) < 0.8, rng.lognormal(0.0, 0.7, shape), 1.0
        )
        self._assert_equivalent(
            medium, transmissions, receivers, fades, float(rng.uniform(-10, 40))
        )


def _take(table, rows):
    """Rows of a trace table as a new, independent table."""
    return TraceTable(
        **{f.name: getattr(table, f.name)[rows].copy() for f in fields(table)}
    )


def _assert_tables_equal(a, b):
    for f in fields(TraceTable):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype, f.name
        assert x.shape == y.shape, f.name
        assert np.array_equal(x, y), f"{f.name} diverges"


def _fades_per_pair(sim, transmissions):
    """The block fades as one scalar draw per pair, keyed on
    ``(tx_id, receiver)``; a sender's own receiver has no entry."""
    cfg = sim._config
    fades = {}
    if cfg.fading_sigma_db <= 0:
        return fades
    rng = derive_rng(cfg.seed, "block-fading")
    for tx in transmissions:
        for receiver in sim.testbed.receiver_ids:
            if receiver == tx.sender:
                continue
            gain_db = rng.normal(0.0, cfg.fading_sigma_db)
            fades[(tx.tx_id, receiver)] = float(10 ** (gain_db / 10))
    return fades


def _fade_matrix(sim, transmissions, fades):
    """A fades dict as the ``(n_tx, n_receivers)`` gain matrix."""
    return np.array(
        [
            [fades.get((tx.tx_id, r), 1.0) for r in sim.testbed.receiver_ids]
            for tx in transmissions
        ]
    ).reshape(len(transmissions), len(sim.testbed.receiver_ids))


def _receive_per_record(sim, transmissions, air, fades):
    """The per-record reception path the columnar finaliser replaced.

    Each audible pair crosses the channel alone, with its own copy of
    the transmitted words (``air[i]`` holds transmission ``i``'s
    on-air symbols); its changed words are decoded as one array per
    pair, and its record is assembled alone: per-record sync
    popcounts, its received symbols compared with the sent ones, the
    trailer parsed through ``parse_trailer_bytes``, and preamble locks
    taken over the record list.  Returns the records as dicts of the
    table's columns.
    """
    cfg = sim._config
    codebook = sim._codebook
    hot = hot_codewords(
        sim.medium,
        transmissions,
        sim.testbed.receiver_ids,
        _fade_matrix(sim, transmissions, fades),
        cfg.min_rx_snr_db,
    )
    truth = {
        i: codebook.encode_words(air[i]) for i in np.unique(hot.tx_index).tolist()
    }
    pendings = []
    for k, (i, receiver) in enumerate(
        zip(hot.tx_index.tolist(), hot.receiver.tolist(), strict=True)
    ):
        _, idx, prob = hot.words(k, k + 1)
        truth_words = truth[i]
        # The reference re-derives the simulation's own pair keys on
        # purpose; under REPRO_SANITIZE that is not a stream collision.
        with sanitize.suspended():
            key = derive_key(
                cfg.seed, "chip-channel", transmissions[i].tx_id, receiver
            )
        rx_hot = transmit_chipwords_batch(
            truth_words[idx], prob, [idx.size], key[None, :]
        )
        rx_words = truth_words.copy()
        rx_words[idx] = rx_hot
        changed = idx[rx_hot != truth_words[idx]]
        pendings.append((i, receiver, truth_words, rx_words, changed))
    decoded = BatchReceptionEngine(codebook).decode_hard_ragged(
        [rx_words[changed] for (_, _, _, rx_words, changed) in pendings]
    )

    sync_chips = SYNC_SYMBOLS * codebook.chips_per_symbol
    records = []
    for (i, receiver, truth_words, rx_words, changed), (syms, dists) in zip(
        pendings, decoded, strict=True
    ):
        sent = air[i]
        symbols = sent.astype(np.int64)
        hints = np.zeros(sent.size, dtype=np.int64)
        symbols[changed] = syms
        hints[changed] = dists
        errors = popcount32(rx_words ^ truth_words)
        pre = int(errors[:SYNC_SYMBOLS].sum())
        post = int(errors[-SYNC_SYMBOLS:].sum())
        body = slice(SYNC_SYMBOLS, sent.size - SYNC_SYMBOLS)
        region = payload_slice(body.stop - body.start)
        payload = slice(body.start + region.start, body.start + region.stop)
        entries = hints[payload] + WRONG * (symbols[payload] != sent[payload])
        records.append(
            {
                "tx_index": i,
                "receiver": receiver,
                "preamble_detectable": pre / sync_chips <= SYNC_ERROR_THRESHOLD,
                "postamble_detectable": post / sync_chips
                <= SYNC_ERROR_THRESHOLD,
                "trailer_ok": parse_trailer_bytes(
                    symbols_to_bytes(symbols[payload.stop : body.stop])
                )[1],
                "acquired_preamble": False,
                "payload": entries.astype(np.uint8),
            }
        )

    by_receiver = {}
    for rec in records:
        by_receiver.setdefault(rec["receiver"], []).append(rec)
    for recs in by_receiver.values():
        recs.sort(key=lambda r: transmissions[r["tx_index"]].start)
        lock_until = -np.inf
        for rec in recs:
            if not rec["preamble_detectable"]:
                continue
            tx = transmissions[rec["tx_index"]]
            if tx.start < lock_until:
                continue
            lock_until = tx.end
            rec["acquired_preamble"] = True
    return records


def _records_table(records, n_payload):
    """Per-record dicts stacked into a trace table."""
    columns = {}
    for f in fields(TraceTable):
        values = [rec[f.name] for rec in records]
        if f.name == "payload":
            columns[f.name] = (
                np.stack(values)
                if values
                else np.zeros((0, n_payload), np.uint8)
            )
        else:
            integral = f.name in ("tx_index", "receiver")
            columns[f.name] = np.array(
                values, dtype=np.int64 if integral else bool
            )
    return TraceTable(**columns)


def _quick_points():
    """The distinct simulation points every experiment declares at
    ``runner --quick``."""
    registry.discover()
    base = RunCache(duration_s=15.0, seed=2007).base
    return list(
        dict.fromkeys(
            config
            for spec in registry.all_specs()
            for config in spec.configs(base)
        )
    )


# SHA-256 of each quick point's store bytes, canonical JSON structure
# then binary section, keyed by (load, carrier sense, noise floor,
# seed); computed at seed 2007's quick settings (duration 15 s).
_QUICK_POINT_DIGESTS = {
    (3500.0, False, -95.0, 2007): "0c07f9443ee5e590a266bc4f172d30f2331fb7a7c94535e81b465d6b6dda6fdc",
    (3500.0, False, -95.0, 2008): "00a30557765f8fcd404045102d34ce245baa95a6fdac10451f994e43ffec4d82",
    (3500.0, False, -95.0, 2009): "832a7408b31b6495935b5578422dbefce5195f81287b18323dad0f837a05c7f7",
    (3500.0, True, -95.0, 2007): "654bc5fd36dfc8382d87db56c4d03466b88186573d24faa9e1b7a22749b341b6",
    (6900.0, False, -95.0, 2007): "87b60ec670299bf038fea9bc44d169b1043906ef15b4e5bdc7265cd4121e5f58",
    (6900.0, False, -95.0, 2008): "894a65a016638c32f4572a2909381dc663b345b291ed78a768d7dc45d79e6906",
    (6900.0, False, -95.0, 2009): "b4e1422851db61e75a6060a2243cc8f3ce17805ff9f52e3603c41e3cb8a29c83",
    (13800.0, False, -95.0, 2007): "6e817472b7d95d05d831728b4d4b760ed3aa09071112bd5085bad6acc5ed3719",
    (13800.0, False, -95.0, 2008): "a867c792a2e5b114f0518afe5b879e0f0a46fcf60236794872dae9d62a7d5f50",
    (13800.0, False, -95.0, 2009): "170fcc42f909ff264ae3b13aa3269b676e2133be9e98227242b8fcea3d92d81e",
    (13800.0, False, -87.0, 2007): "1089147715262d748da11f2882ac07d85590525548df3bd218621efc5253911b",
    (13800.0, False, -87.0, 2008): "127db69adc21646ac381e870e349234c4a4963ee639c20eb48949f9706213f4a",
    (13800.0, False, -87.0, 2009): "852e5b4746ad227059954f4b4d7cf3aa30ba76157f07a92ba2c46df4c67ec1c0",
}

# SHA-256 of the bits the per-record comparison reads on each quick
# point (every non-payload column, then the payload rows some PHY mode
# acquires: _compared_bits), computed before the payload of frames no
# mode acquires stopped being simulated; keyed like the digests above.
# They pin that the skip moved none of the bits any reader sees.
_COMPARED_BITS_DIGESTS = {
    (3500.0, False, -95.0, 2007): "80a031794b1f9f941aa43147afde2ad7405150f7d59346314bfc43d84050ae38",
    (3500.0, False, -95.0, 2008): "ad36133bb66c790562fb4ad3b67c55133f8e874a98e8e6e98a3547ded7cbbcf4",
    (3500.0, False, -95.0, 2009): "ccfa02b260869eb0a32010b05632ca2526c837f5e51acf513ced1c33aaec6003",
    (3500.0, True, -95.0, 2007): "2a6e483e1daf4731db0c80f203d6ae03926612af3a2f137fd3b89e948c401258",
    (6900.0, False, -95.0, 2007): "2c6bf2bec6c862c82ba84d835db4afe57d98367465a9228913e5456dfd23e2cd",
    (6900.0, False, -95.0, 2008): "34302e50ff752f9e91cb8195fc64e2529b7dfd73bfef8e6e93cecab4501398a4",
    (6900.0, False, -95.0, 2009): "1c352e42b6438dec77dec3abdfe92a51c655ecee7c832eab91041df2e3d6855c",
    (13800.0, False, -95.0, 2007): "2a3aca011b8d6d7fdd54a266d9a1bbbcdecc4675ebd6120d17f4219ac63ba843",
    (13800.0, False, -95.0, 2008): "7c4cf51e8f6f90c2f8617b53520c9ed1b448b655555bc7ecd7edf0d09906ac86",
    (13800.0, False, -95.0, 2009): "fd77d00ffd16ae075b1504218b9ba91427efa64046114ceaaa87c949d28184a8",
    (13800.0, False, -87.0, 2007): "f9895fa32126545bdd7e84bd9c06d6ab4e23e335e04cd3697de6d0b644d16578",
    (13800.0, False, -87.0, 2008): "5a1b2f36ff0aa08f4ea801721446cf21f56bf66562d36bf11a7b15d917c3c2d9",
    (13800.0, False, -87.0, 2009): "b50f6db3d3df31f1d62548cbcc396e32057390eb8a3bb6f5d963a46333b716e4",
}


def _compared_bits(table):
    """SHA-256 of a table's columns, payload restricted to the rows
    acquired in either PHY mode."""
    live = table.acquired(True)
    digest = hashlib.sha256()
    for f in fields(TraceTable):
        column = getattr(table, f.name)
        digest.update((column[live] if f.name == "payload" else column).tobytes())
    return digest.hexdigest()


# A short, collision-heavy run: heavy load, no carrier sense, tiny
# frames, so most pairs overlap another transmission.
_COLLISION_CONFIG = SimulationConfig(
    load_bits_per_s_per_node=13800.0,
    payload_bytes=24,
    duration_s=0.2,
    carrier_sense=False,
    seed=3,
)
_NO_AUDIBLE_PAIR_CONFIG = SimulationConfig(
    load_bits_per_s_per_node=3500.0,
    duration_s=2.0,
    seed=5,
    min_rx_snr_db=200.0,
)
_NO_TX_CONFIG = SimulationConfig(duration_s=0.001, seed=2007)


class TestColumnarReceptionEquivalence:
    """The columnar finaliser vs the per-record path it replaced.

    ``NetworkSimulation.run`` builds every reception as a row of one
    trace table in a handful of array passes; the per-record path
    staged, decoded, checked and lock-arbitrated one reception at a
    time.  Both must give equal tables, and equal store bytes.
    """

    @staticmethod
    def _assert_equivalent(config):
        """The run's table equals the per-record path's in every column
        and in the payload of every row some PHY mode acquires; a row
        no mode acquires keeps an all-zero payload."""
        sim = NetworkSimulation(config)
        result = sim.run()
        transmissions, air = sim._generate_transmissions()
        fades = _fades_per_pair(sim, transmissions)
        records = _receive_per_record(sim, transmissions, air, fades)
        reference = _records_table(records, 2 * config.payload_bytes)
        live = reference.acquired(True)
        assert np.array_equal(result.table.acquired(True), live)
        assert not result.table.payload[~live].any()
        assert np.array_equal(
            result.table.payload[live], reference.payload[live]
        )
        reference.payload[~live] = 0
        _assert_tables_equal(result.table, reference)
        assert result_to_parts(
            replace(result, table=reference)
        ) == result_to_parts(result)
        return result

    def test_every_quick_point(self):
        """Each quick point equals the per-record path, and its store
        bytes hash to the digest committed for it.

        The digests pin "every bit unchanged" across commits without
        sharing ``hot_codewords`` or ``transmit_chipwords_batch`` with
        the path under test.  A deliberate change of the simulated
        output replaces the table and says so in CHANGES.md.
        """
        points = _quick_points()
        assert len(points) == 13
        digests = {}
        compared = {}
        for config in points:
            result = self._assert_equivalent(config)
            meta, blob = result_to_parts(result)
            point = (
                config.load_bits_per_s_per_node,
                config.carrier_sense,
                config.noise_floor_dbm,
                config.seed,
            )
            digests[point] = hashlib.sha256(
                canonical_json(meta).encode() + blob
            ).hexdigest()
            compared[point] = _compared_bits(result.table)
        assert compared == _COMPARED_BITS_DIGESTS
        assert digests == _QUICK_POINT_DIGESTS

    def test_no_audible_pair(self):
        result = self._assert_equivalent(_NO_AUDIBLE_PAIR_CONFIG)
        assert result.transmissions and not len(result.table)

    @pytest.mark.parametrize("block_words", [1, 16])
    def test_receive_block_invariant(self, block_words, monkeypatch):
        """The receive block bound cannot change a run: blocks hold
        whole pairs, and each pair reads its own keyed stream."""
        configs = (_COLLISION_CONFIG, _NO_AUDIBLE_PAIR_CONFIG, _NO_TX_CONFIG)
        expected = [NetworkSimulation(config).run() for config in configs]
        calls = []

        def counted(tx_words, chip_error_prob, sizes, keys, offsets):
            pairs = {bytes(key) for key in np.asarray(keys, np.uint64)}
            calls.append((pairs, len(tx_words)))
            return transmit_chipwords_batch(
                tx_words, chip_error_prob, sizes, keys, offsets
            )

        monkeypatch.setattr(network, "_RECEIVE_BLOCK_WORDS", block_words)
        monkeypatch.setattr(network, "transmit_chipwords_batch", counted)
        for config, want in zip(configs, expected, strict=True):
            del calls[:]
            got = NetworkSimulation(config).run()
            _assert_tables_equal(got.table, want.table)
            assert result_to_parts(got) == result_to_parts(want)
            # Each pass's blocks partition its pairs: every pair in
            # the sync-and-trailer pass, the acquired ones in the
            # payload pass.  Only a lone pair may exceed the bound.
            seen = Counter(key for pairs, _ in calls for key in pairs)
            live = int(want.table.acquired(True).sum())
            assert len(seen) == len(want.table)
            assert sum(seen.values()) == len(want.table) + live
            assert sorted(seen.values()).count(2) == live
            for pairs, words in calls:
                assert len(pairs) == 1 or words <= block_words
            # The collision-heavy run really is split up.
            if config is _COLLISION_CONFIG:
                assert len(calls) > len(want.table) // 2

    def test_no_transmissions(self):
        """A run too short for any arrival still gives an empty result."""
        config = _NO_TX_CONFIG
        result = self._assert_equivalent(config)
        assert not result.transmissions and not result.records
        assert result.table.payload.shape == (0, 2 * config.payload_bytes)
        meta, blob = result_to_parts(result)
        again = result_from_parts(meta, blob)
        assert not again.transmissions and not len(again.table)
        assert result_to_parts(again) == (meta, blob)
        for run in (result, again):
            for evaluation in evaluate_schemes(run, _every_scheme()):
                assert not len(evaluation.stats)

    @pytest.mark.parametrize("fading_sigma_db", [0.0, 3.0])
    def test_fades_are_one_draw(self, fading_sigma_db):
        """One vector draw equals one scalar draw per pair."""
        config = SimulationConfig(
            load_bits_per_s_per_node=13800.0,
            duration_s=2.0,
            seed=11,
            fading_sigma_db=fading_sigma_db,
        )
        sim = NetworkSimulation(config)
        transmissions, _air = sim._generate_transmissions()
        gains = sim._draw_fades(transmissions)
        assert gains.shape == (
            len(transmissions),
            len(sim.testbed.receiver_ids),
        )
        fades = _fades_per_pair(sim, transmissions)
        assert np.array_equal(gains, _fade_matrix(sim, transmissions, fades))


class TestHeaderRowsEquivalence:
    """Batched header/trailer CRC verdicts vs the byte parsers."""

    @staticmethod
    def _assert_equivalent(rows):
        verdicts = header_rows_ok(rows)
        assert verdicts.dtype == bool and verdicts.shape == (len(rows),)
        for row, ok in zip(rows, verdicts.tolist(), strict=True):
            data = symbols_to_bytes(row)
            assert ok == parse_header_bytes(data)[1]
            assert ok == parse_trailer_bytes(data)[1]
        return verdicts

    @staticmethod
    def _valid_rows(rng, count):
        return np.stack(
            [
                bytes_to_symbols(
                    FrameHeader(*rng.integers(0, 0x10000, 4).tolist()).pack()
                )
                for _ in range(count)
            ]
        ).astype(np.int8)

    def test_random_rows(self, rng):
        rows = rng.integers(0, 16, (500, 20)).astype(np.int8)
        self._assert_equivalent(rows)

    def test_valid_rows(self, rng):
        assert self._assert_equivalent(self._valid_rows(rng, 200)).all()

    @pytest.mark.parametrize("span", [(0, 16), (16, 20)])
    def test_corrupted_rows(self, rng, span):
        """One nibble changed in the protected fields, or in the CRC."""
        rows = self._valid_rows(rng, 200)
        at = rng.integers(*span, len(rows))
        flip = rng.integers(1, 16, len(rows)).astype(np.int8)
        rows[np.arange(len(rows)), at] ^= flip
        assert not self._assert_equivalent(rows).any()

    def test_no_rows(self):
        assert self._assert_equivalent(np.zeros((0, 20), np.int8)).size == 0
