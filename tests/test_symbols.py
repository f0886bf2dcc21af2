"""Tests for the SoftPHY interface containers."""

import numpy as np
import pytest

from repro.phy.symbols import SoftPacket


class TestSoftPacket:
    def _packet(self):
        return SoftPacket(
            symbols=np.array([1, 2, 3, 4]),
            hints=np.array([0.0, 7.0, 1.0, 9.0]),
            truth=np.array([1, 5, 3, 4]),
        )

    def test_length(self):
        assert len(self._packet()) == 4
        assert self._packet().n_symbols == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SoftPacket(symbols=np.array([1]), hints=np.array([0.0, 1.0]))

    def test_truth_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="truth"):
            SoftPacket(
                symbols=np.array([1, 2]),
                hints=np.zeros(2),
                truth=np.array([1]),
            )

    def test_correct_mask(self):
        assert self._packet().correct_mask().tolist() == [
            True,
            False,
            True,
            True,
        ]

    def test_correct_mask_requires_truth(self):
        packet = SoftPacket(symbols=np.array([1]), hints=np.array([0.0]))
        with pytest.raises(ValueError, match="truth"):
            packet.correct_mask()

    def test_payload_bytes(self):
        packet = SoftPacket(
            symbols=np.array([3, 10]), hints=np.zeros(2)
        )
        assert packet.payload_bytes() == b"\xa3"
