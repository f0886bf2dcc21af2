"""Tests for the network-coded partial recovery subsystem."""

import numpy as np
import pytest

from repro.coding.gf2 import (
    gf2_coefficients,
    gf2_eliminate,
    gf2_encode,
    pack_bytes_to_words,
    unpack_words_to_bytes,
)
from repro.coding.rlnc import SegmentedRlncCodec


class TestPacking:
    def test_roundtrip_various_widths(self, rng):
        for n_bytes in (1, 7, 8, 9, 16, 33):
            rows = rng.integers(0, 256, (4, n_bytes)).astype(np.uint8)
            words = pack_bytes_to_words(rows)
            assert words.shape == (4, -(-n_bytes // 8))
            assert np.array_equal(
                unpack_words_to_bytes(words, n_bytes), rows
            )

    def test_byte_zero_lands_in_msb(self):
        words = pack_bytes_to_words(
            np.array([[0x80] + [0] * 7], dtype=np.uint8)
        )
        assert words[0, 0] == np.uint64(0x8000000000000000)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_bytes_to_words(np.zeros(8, dtype=np.uint8))


class TestGf2Kernels:
    def test_encode_xor_semantics(self, rng):
        rows = rng.integers(0, 256, (3, 10)).astype(np.uint8)
        packed = pack_bytes_to_words(rows)
        coeffs = np.array([[1, 0, 1]], dtype=np.uint8)
        coded = unpack_words_to_bytes(gf2_encode(coeffs, packed), 10)
        assert np.array_equal(coded[0], rows[0] ^ rows[2])

    def test_eliminate_recovers_erasures(self, rng):
        k, n_bytes = 6, 20
        src = rng.integers(0, 256, (k, n_bytes)).astype(np.uint8)
        packed = pack_bytes_to_words(src)
        # Lose two source rows; supply three coded rows covering them.
        coeffs = np.concatenate(
            [
                np.eye(k, dtype=np.uint8)[2:],
                gf2_coefficients(1, "test", shape=(3, k)),
            ]
        )
        payload = np.concatenate(
            [packed[2:], gf2_encode(coeffs[k - 2 :], packed)]
        )
        recovered, solved = gf2_eliminate(coeffs, payload)
        assert recovered.all()
        assert np.array_equal(
            unpack_words_to_bytes(solved, n_bytes), src
        )

    def test_eliminate_partial_rank(self):
        # One equation over two unknowns: neither is determined,
        # but a unit equation pins its coordinate.
        coeffs = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        payload = pack_bytes_to_words(
            np.array([[3], [5]], dtype=np.uint8)
        )
        recovered, solved = gf2_eliminate(coeffs, payload)
        assert recovered.tolist() == [True, True]
        assert unpack_words_to_bytes(solved, 1)[0, 0] == 3 ^ 5
        recovered2, _ = gf2_eliminate(coeffs[:1], payload[:1])
        assert recovered2.tolist() == [False, False]

    def test_eliminate_empty_system(self):
        recovered, solved = gf2_eliminate(
            np.zeros((0, 4), dtype=np.uint8),
            np.zeros((0, 1), dtype=np.uint64),
        )
        assert not recovered.any()
        assert solved.shape == (4, 1)

    def test_coefficients_deterministic_and_nonzero(self):
        a = gf2_coefficients(7, "x", 1, 2, shape=(40, 3))
        b = gf2_coefficients(7, "x", 1, 2, shape=(40, 3))
        assert np.array_equal(a, b)
        assert a.any(axis=1).all()  # no all-zero (useless) rows
        c = gf2_coefficients(7, "x", 1, 3, shape=(40, 3))
        assert not np.array_equal(a, c)


class TestSegmentedRlncCodec:
    def test_clean_roundtrip(self, rng):
        codec = SegmentedRlncCodec(8, 3)
        payload = bytes(rng.integers(0, 256, 101, dtype=np.uint8))
        wire = codec.encode(payload)
        assert len(wire) == codec.wire_length(len(payload))
        assert codec.payload_length(len(wire)) == len(payload)
        result = codec.decode(wire)
        assert result.delivered.all()
        assert result.payload() == payload
        assert not result.coded_recovered.any()

    def test_recovers_corrupted_segments(self, rng):
        codec = SegmentedRlncCodec(10, 5)
        payload = bytes(rng.integers(0, 256, 250, dtype=np.uint8))
        wire = bytearray(codec.encode(payload))
        for idx in (0, 4, 9):
            offset, _ = codec.data_spans(len(payload))[idx]
            wire[offset] ^= 0x55
        result = codec.decode(bytes(wire))
        assert not result.data_ok[[0, 4, 9]].any()
        assert result.data_ok.sum() == 7
        # 5 intact repair equations over 3 unknowns: GF(2) solves
        # unless the random 5x3 minor loses rank (not the case for
        # this seed).
        assert result.delivered.all()
        assert result.payload() == payload
        assert result.coded_recovered.sum() == 3

    def test_unrecoverable_marks_segments_none(self, rng):
        codec = SegmentedRlncCodec(6, 2)
        payload = bytes(rng.integers(0, 256, 120, dtype=np.uint8))
        wire = bytearray(codec.encode(payload))
        # Corrupt more segments than repair equations exist.
        for idx in range(4):
            offset, _ = codec.data_spans(len(payload))[idx]
            wire[offset] ^= 0xFF
        result = codec.decode(bytes(wire))
        assert not result.delivered.all()
        assert result.delivered.sum() < 6
        undelivered = [
            i for i, seg in enumerate(result.segments) if seg is None
        ]
        assert undelivered
        # Zero-fill keeps the delivered segments addressable.
        rebuilt = result.payload()
        for i, (lo, size) in enumerate(
            zip(
                np.cumsum([0] + codec.segment_sizes(len(payload))[:-1]),
                codec.segment_sizes(len(payload)), strict=True,
            )
        ):
            if result.delivered[i]:
                assert rebuilt[lo : lo + size] == payload[lo : lo + size]

    def test_corrupted_repair_segments_are_dropped(self, rng):
        codec = SegmentedRlncCodec(6, 3)
        payload = bytes(rng.integers(0, 256, 90, dtype=np.uint8))
        wire = bytearray(codec.encode(payload))
        for offset, _ in codec.repair_spans(len(payload)):
            wire[offset] ^= 0x01
        data_offset, _ = codec.data_spans(len(payload))[2]
        wire[data_offset] ^= 0x01
        result = codec.decode(bytes(wire))
        assert not result.repair_ok.any()
        assert not result.delivered[2]

    def test_recoverable_mask_matches_decode(self, rng):
        codec = SegmentedRlncCodec(8, 4)
        payload = bytes(rng.integers(0, 256, 160, dtype=np.uint8))
        for _trial in range(10):
            wire = bytearray(codec.encode(payload))
            erase = rng.random(8) < 0.4
            for idx in np.flatnonzero(erase):
                offset, _ = codec.data_spans(len(payload))[int(idx)]
                wire[offset] ^= 0xA5
            result = codec.decode(bytes(wire))
            mask = codec.recoverable_mask(
                result.data_ok, result.repair_ok
            )
            assert np.array_equal(mask, result.delivered)

    def test_recoverable_mask_matches_full_system(self, rng):
        """The erased-columns elimination (memoised) agrees with the
        full system — unit rows for intact segments plus the surviving
        repair rows — on random erasure patterns, repeats included."""
        k, r = 12, 6
        codec = SegmentedRlncCodec(k, r)
        eye = np.eye(k, dtype=np.uint8)
        for _trial in range(60):
            data_ok = rng.random(k) < rng.uniform(0.2, 1.0)
            repair_ok = rng.random(r) < 0.7
            coeffs = np.concatenate(
                [eye[data_ok], codec.coefficients()[repair_ok]]
            )
            want, _ = gf2_eliminate(
                coeffs, np.zeros((coeffs.shape[0], 1), dtype=np.uint64)
            )
            got = codec.recoverable_mask(data_ok, repair_ok)
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert not codec.coefficients().flags.writeable
        assert codec.coefficients() is codec.coefficients()

    def test_wire_length_inversion_exhaustive(self):
        codec = SegmentedRlncCodec(7, 3)
        for payload_len in range(7, 200):
            wire_len = codec.wire_length(payload_len)
            assert codec.payload_length(wire_len) == payload_len

    def test_rejects_undersized_payload(self):
        codec = SegmentedRlncCodec(10, 2)
        with pytest.raises(ValueError, match="cannot fill"):
            codec.encode(b"short")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_segments"):
            SegmentedRlncCodec(0, 1)
        with pytest.raises(ValueError, match="n_repair"):
            SegmentedRlncCodec(4, 0)
        with pytest.raises(ValueError, match="one byte"):
            SegmentedRlncCodec(300, 2)
