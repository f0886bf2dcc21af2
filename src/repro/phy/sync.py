"""Frame synchronisation: preamble and postamble detection (paper §4).

The preamble follows 802.15.4: eight zero symbols then the start-frame
delimiter 0xA7.  PPR appends a *postamble* — a distinct well-known
sequence (eight 15-symbols then the end-frame delimiter 0x7A) — so a
receiver that missed the preamble can lock late and roll back through
its sample buffer (the Fig. 5 scenario).

This module holds the sync field definitions and the peak detector
:func:`peak_offsets`.  There is one sync correlator:
:class:`~repro.phy.batch.WaveformBatchEngine` correlates a capture
against the modulated sync waveforms in the sample domain, and rolls
back through the capture it holds whole.
"""

from __future__ import annotations

import numpy as np

# 802.15.4 SHR: 8 zero symbols, then SFD byte 0xA7 (low nibble first).
PREAMBLE_SYMBOLS = tuple([0] * 8)
SFD_SYMBOLS = (7, 10)
# PPR postamble: mirrored structure, distinct content (§4: "a well-known
# sequence ... that uniquely identifies it as the postamble").
POSTAMBLE_SYMBOLS = tuple([15] * 8)
EFD_SYMBOLS = (10, 7)
# Symbols in either sync field, delimiter included; the postamble
# mirrors the preamble's length.
SYNC_SYMBOLS = len(PREAMBLE_SYMBOLS + SFD_SYMBOLS)
# The largest chip error rate at which a sync field is detectable:
# beyond 0.5 a correlator cannot distinguish signal from noise.
SYNC_ERROR_THRESHOLD = 0.25


def sync_field_symbols(kind: str) -> np.ndarray:
    """Symbol sequence of a sync field: ``"preamble"`` or ``"postamble"``.

    The returned sequence includes the delimiter (SFD / EFD).
    """
    if kind == "preamble":
        return np.array(PREAMBLE_SYMBOLS + SFD_SYMBOLS, dtype=np.int64)
    if kind == "postamble":
        return np.array(POSTAMBLE_SYMBOLS + EFD_SYMBOLS, dtype=np.int64)
    raise ValueError(f"kind must be 'preamble' or 'postamble', got {kind!r}")


def peak_offsets(
    corr: np.ndarray, threshold: float, min_gap: int
) -> list[int]:
    """Non-maximum suppression over a correlation trace.

    Above-threshold offsets are grouped wherever consecutive indices
    are at most ``min_gap`` apart (``np.split`` on the gap boundaries
    — no per-index Python walk); each group contributes the offset of
    its correlation maximum, mirroring a hardware correlator's peak
    detector.
    """
    above = np.flatnonzero(corr >= threshold)
    if above.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(above) > min_gap) + 1
    return [
        int(group[0] + corr[group[0] : group[-1] + 1].argmax())
        for group in np.split(above, boundaries)
    ]
