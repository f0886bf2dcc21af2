"""The SoftPHY interface: decoded symbols annotated with confidence hints.

This is the paper's central abstraction (§3): the PHY keeps making hard
decisions, but passes each decision upward together with a *hint*.  The
library-wide convention is that **lower hints mean higher confidence**
(Hamming distance is the canonical instance); a hint source whose
natural metric is higher-is-better (such as a soft-decision correlation
margin) negates it so the monotonicity contract of §3.3 holds in one
direction everywhere.

Higher layers must not interpret hint *values* beyond that ordering —
they apply a fixed threshold η to label symbols good or bad.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.spreading import symbols_to_bytes


@dataclass
class SoftPacket:
    """A decoded frame as delivered by the SoftPHY interface.

    Array-oriented for performance: ``symbols[i]`` and ``hints[i]``
    describe the i-th decoded codeword of the frame body (header +
    payload + trailer region, depending on the producer).  ``truth``
    is the transmitted symbol sequence when the producer knows it (a
    simulation does; a real receiver does not).
    """

    symbols: np.ndarray
    hints: np.ndarray
    truth: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        self.hints = np.asarray(self.hints, dtype=np.float64)
        if self.symbols.shape != self.hints.shape:
            raise ValueError(
                f"symbols shape {self.symbols.shape} != hints shape "
                f"{self.hints.shape}"
            )
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=np.int64)
            if self.truth.shape != self.symbols.shape:
                raise ValueError(
                    "truth must have the same shape as symbols"
                )

    def __len__(self) -> int:
        return int(self.symbols.size)

    def correct_mask(self) -> np.ndarray:
        """Boolean mask of symbols that actually decoded correctly.

        Requires ground truth (available in simulation); raises
        otherwise, since a real receiver cannot know this.
        """
        if self.truth is None:
            raise ValueError("no ground truth attached to this SoftPacket")
        return self.symbols == self.truth

    def payload_bytes(self) -> bytes:
        """Reassemble the decoded symbols into bytes (low nibble first)."""
        n = self.symbols.size - self.symbols.size % 2
        return symbols_to_bytes(self.symbols[:n])
