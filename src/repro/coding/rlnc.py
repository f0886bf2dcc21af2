"""Segmented random-linear-network-coding codec (S-PRAC, PAPERS.md).

The wire format protects a payload twice over:

* the payload is cut into ``k`` nearly-equal **data segments**, each
  followed by its own CRC-32 (exactly the fragmented-CRC baseline's
  per-fragment protection), and
* ``r`` **repair segments** follow — random linear combinations of
  the (zero-padded) data segments over GF(2), each with its own
  CRC-32.

A receiver keeps every segment whose CRC verifies.  Erased data
segments are unknowns in a linear system whose equations are the
intact data segments (unit vectors) and the intact repair segments
(their coefficient rows); Gaussian elimination recovers every segment
the surviving equations pin down.  *Any* sufficient subset of repair
segments works — no individual loss has to be repaired by name, which
is what makes coded repair efficient in very noisy channels.

Layout (no header): ``seg_1 crc_1 ... seg_k crc_k rep_1 crc_1 ...
rep_r crc_r``.  Data segments are sized like
:func:`repro.link.fragmentation.fragment_payload` (leading segments
take the remainder); repair segments are as long as the largest data
segment.  Total wire length is strictly increasing in payload length,
so the payload length is recoverable from the wire length alone.

Coefficient matrices are addressed, not transmitted: both ends derive
the same matrix from ``(0, "rlnc-coeffs", k, r)`` via the keyed
counter-based streams of :mod:`repro.utils.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.gf2 import (
    gf2_coefficients,
    gf2_eliminate,
    gf2_encode,
    pack_bytes_to_words,
    unpack_words_to_bytes,
)
from repro.utils.crc import CRC32_IEEE

_CRC_BYTES = 4

# Seed of the coefficient stream: every codec of a given (k, r) draws
# the same matrix, so sender and receiver agree without a handshake.
_COEFF_SEED = 0


@dataclass(frozen=True)
class RlncDecodeResult:
    """What one decode attempt delivered.

    ``segments[i]`` is data segment ``i``'s recovered bytes, or
    ``None`` when neither its CRC nor the coded repair could produce
    it.  ``data_ok`` / ``repair_ok`` record the raw CRC outcomes;
    ``coded_recovered`` marks segments the elimination (not their own
    CRC) delivered.
    """

    segments: tuple[bytes | None, ...]
    data_ok: np.ndarray
    repair_ok: np.ndarray
    coded_recovered: np.ndarray

    @property
    def delivered(self) -> np.ndarray:
        """Per-segment delivery mask (own CRC or coded recovery)."""
        return self.data_ok | self.coded_recovered

    def payload(self) -> bytes:
        """Reassembled payload, zero-filling undelivered segments.

        Zero-fill keeps byte offsets stable so callers can still
        address the delivered ranges.
        """
        out = []
        for seg, size in zip(self.segments, self._segment_sizes, strict=True):
            out.append(seg if seg is not None else bytes(size))
        return b"".join(out)

    # set by the codec; needed to zero-fill undelivered segments
    _segment_sizes: tuple[int, ...] = ()


class SegmentedRlncCodec:
    """Encode/decode the segmented-RLNC wire format.

    ``n_segments`` (k) data segments, ``n_repair`` (r) coded repair
    segments, combined over GF(2) (XOR on bit-packed uint64 words).
    """

    def __init__(
        self,
        n_segments: int,
        n_repair: int,
    ) -> None:
        if n_segments < 1:
            raise ValueError(
                f"n_segments must be >= 1, got {n_segments}"
            )
        if n_repair < 1:
            raise ValueError(f"n_repair must be >= 1, got {n_repair}")
        if n_segments > 255 or n_repair > 255:
            raise ValueError(
                "segment and repair counts must fit in one byte"
            )
        self.n_segments = int(n_segments)
        self.n_repair = int(n_repair)
        self._coefficients: np.ndarray | None = None
        # recoverable_mask results keyed by the packed erasure pattern
        self._recoverable: dict[bytes, np.ndarray] = {}

    def __repr__(self) -> str:
        return (
            f"SegmentedRlncCodec(n_segments={self.n_segments}, "
            f"n_repair={self.n_repair})"
        )

    # -- layout --------------------------------------------------------------

    def coefficients(self) -> np.ndarray:
        """The keyed ``(r, k)`` coefficient matrix of this codec.

        Drawn once per codec and returned read-only thereafter.
        """
        if self._coefficients is None:
            coeffs = gf2_coefficients(
                _COEFF_SEED,
                "rlnc-coeffs",
                self.n_segments,
                self.n_repair,
                shape=(self.n_repair, self.n_segments),
            )
            coeffs.flags.writeable = False
            self._coefficients = coeffs
        return self._coefficients

    def segment_sizes(self, payload_len: int) -> list[int]:
        """Per-data-segment byte counts (leading take the remainder)."""
        if payload_len < self.n_segments:
            raise ValueError(
                f"payload of {payload_len} bytes cannot fill "
                f"{self.n_segments} segments"
            )
        base, extra = divmod(payload_len, self.n_segments)
        return [
            base + (1 if i < extra else 0)
            for i in range(self.n_segments)
        ]

    def repair_size(self, payload_len: int) -> int:
        """Bytes per repair segment (the largest data segment)."""
        return -(-payload_len // self.n_segments)

    def wire_length(self, payload_len: int) -> int:
        """Total encoded bytes for a payload."""
        return (
            payload_len
            + _CRC_BYTES * self.n_segments
            + (self.repair_size(payload_len) + _CRC_BYTES) * self.n_repair
        )

    def payload_length(self, wire_len: int) -> int:
        """Invert :meth:`wire_length` (it is strictly increasing)."""
        k, r = self.n_segments, self.n_repair
        fixed = _CRC_BYTES * (k + r)
        # wire = L + fixed + r*S with S = ceil(L/k), so S is within one
        # of (wire - fixed) / (k + r); check the nearby candidates.
        approx = max(1, (wire_len - fixed) // (k + r))
        for size in (approx - 1, approx, approx + 1):
            if size < 1:
                continue
            payload_len = wire_len - fixed - r * size
            if (
                payload_len >= k
                and self.repair_size(payload_len) == size
            ):
                return payload_len
        raise ValueError(
            f"wire length {wire_len} inconsistent with k={k}, r={r}"
        )

    def data_spans(self, payload_len: int) -> list[tuple[int, int]]:
        """Wire byte ranges ``(offset, size)`` of the data segments."""
        spans = []
        offset = 0
        for size in self.segment_sizes(payload_len):
            spans.append((offset, size))
            offset += size + _CRC_BYTES
        return spans

    def repair_spans(self, payload_len: int) -> list[tuple[int, int]]:
        """Wire byte ranges ``(offset, size)`` of the repair segments."""
        size = self.repair_size(payload_len)
        offset = payload_len + _CRC_BYTES * self.n_segments
        return [
            (offset + j * (size + _CRC_BYTES), size)
            for j in range(self.n_repair)
        ]

    # -- encode / decode -----------------------------------------------------

    def encode(self, payload: bytes) -> bytes:
        """Payload -> wire bytes (segments, repair, per-segment CRCs)."""
        sizes = self.segment_sizes(len(payload))
        size = self.repair_size(len(payload))
        data = np.frombuffer(payload, dtype=np.uint8)
        rows = np.zeros((self.n_segments, size), dtype=np.uint8)
        offset = 0
        for i, seg_size in enumerate(sizes):
            rows[i, :seg_size] = data[offset : offset + seg_size]
            offset += seg_size
        repair = unpack_words_to_bytes(
            gf2_encode(self.coefficients(), pack_bytes_to_words(rows)),
            size,
        )
        data_crcs = CRC32_IEEE.checksum_many(
            rows, np.asarray(sizes, dtype=np.int64)
        )
        repair_crcs = CRC32_IEEE.checksum_many(repair)
        pieces = []
        offset = 0
        for i, seg_size in enumerate(sizes):
            pieces.append(payload[offset : offset + seg_size])
            pieces.append(int(data_crcs[i]).to_bytes(_CRC_BYTES, "big"))
            offset += seg_size
        for j in range(self.n_repair):
            pieces.append(repair[j].tobytes())
            pieces.append(int(repair_crcs[j]).to_bytes(_CRC_BYTES, "big"))
        return b"".join(pieces)

    def decode(self, wire: bytes) -> RlncDecodeResult:
        """Wire bytes (possibly corrupted) -> per-segment recovery.

        Segments whose CRC verifies are kept; erased data segments
        are recovered by elimination over the intact equations.
        Recovered segments are *not* re-checked against their (also
        possibly corrupted) wire CRC fields: their integrity follows
        from the coding arithmetic over CRC-verified inputs.
        """
        payload_len = self.payload_length(len(wire))
        sizes = self.segment_sizes(payload_len)
        size = self.repair_size(payload_len)
        data = np.frombuffer(wire, dtype=np.uint8)

        seg_rows = np.zeros((self.n_segments, size), dtype=np.uint8)
        seg_crcs = np.zeros(self.n_segments, dtype=np.uint64)
        for i, (offset, seg_size) in enumerate(
            self.data_spans(payload_len)
        ):
            seg_rows[i, :seg_size] = data[offset : offset + seg_size]
            seg_crcs[i] = int.from_bytes(
                wire[offset + seg_size : offset + seg_size + _CRC_BYTES],
                "big",
            )
        lengths = np.asarray(sizes, dtype=np.int64)
        data_ok = (
            CRC32_IEEE.checksum_many(seg_rows, lengths) == seg_crcs
        )

        rep_rows = np.zeros((self.n_repair, size), dtype=np.uint8)
        rep_crcs = np.zeros(self.n_repair, dtype=np.uint64)
        for j, (offset, rep_size) in enumerate(
            self.repair_spans(payload_len)
        ):
            rep_rows[j] = data[offset : offset + rep_size]
            rep_crcs[j] = int.from_bytes(
                wire[offset + rep_size : offset + rep_size + _CRC_BYTES],
                "big",
            )
        repair_ok = CRC32_IEEE.checksum_many(rep_rows) == rep_crcs

        coded_recovered = np.zeros(self.n_segments, dtype=bool)
        solved = np.zeros((self.n_segments, size), dtype=np.uint8)
        if not data_ok.all() and repair_ok.any():
            eye = np.eye(self.n_segments, dtype=np.uint8)
            coeffs = np.concatenate(
                [eye[data_ok], self.coefficients()[repair_ok]]
            )
            rhs = np.concatenate(
                [seg_rows[data_ok], rep_rows[repair_ok]]
            )
            recovered, packed = gf2_eliminate(
                coeffs, pack_bytes_to_words(rhs)
            )
            solved = unpack_words_to_bytes(packed, size)
            coded_recovered = recovered & ~data_ok

        segments: list[bytes | None] = []
        for i, seg_size in enumerate(sizes):
            if data_ok[i]:
                segments.append(seg_rows[i, :seg_size].tobytes())
            elif coded_recovered[i]:
                segments.append(solved[i, :seg_size].tobytes())
            else:
                segments.append(None)
        return RlncDecodeResult(
            segments=tuple(segments),
            data_ok=data_ok,
            repair_ok=repair_ok,
            coded_recovered=coded_recovered,
            _segment_sizes=tuple(sizes),
        )

    def recoverable_mask(
        self, data_ok: np.ndarray, repair_ok: np.ndarray
    ) -> np.ndarray:
        """Which data segments the surviving equations pin down.

        Rank-only form of :meth:`decode` for trace post-processing
        (where segment *outcomes* are known but no wire bytes exist):
        intact data segments contribute unit vectors, intact repair
        segments their coefficient rows, and the elimination reports
        every uniquely-determined coordinate.

        Intact data segments are known, so only the erased columns of
        the surviving repair rows are eliminated: an erased segment is
        pinned down by the whole system iff its unit vector lies in
        the row space of those columns.  The answer depends only on
        the erasure pattern, so it is memoised per codec and returned
        as a read-only array.
        """
        data_ok = np.asarray(data_ok, dtype=bool)
        repair_ok = np.asarray(repair_ok, dtype=bool)
        if data_ok.shape != (self.n_segments,):
            raise ValueError(
                f"data_ok must have shape ({self.n_segments},)"
            )
        if repair_ok.shape != (self.n_repair,):
            raise ValueError(
                f"repair_ok must have shape ({self.n_repair},)"
            )
        key = np.packbits(np.concatenate([data_ok, repair_ok])).tobytes()
        recovered = self._recoverable.get(key)
        if recovered is None:
            recovered = data_ok.copy()
            erased = ~data_ok
            if erased.any():
                coeffs = self.coefficients()[repair_ok][:, erased]
                dummy = np.zeros((coeffs.shape[0], 1), dtype=np.uint64)
                pinned, _ = gf2_eliminate(coeffs, dummy)
                recovered[erased] = pinned
            recovered.flags.writeable = False
            self._recoverable[key] = recovered
        return recovered
