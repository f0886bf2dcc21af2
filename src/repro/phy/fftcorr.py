"""FFT-domain sliding correlation against fixed patterns of one length.

The one sync correlator (:class:`~repro.phy.batch.WaveformBatchEngine`,
in the sample domain) needs the raw valid-mode cross-correlation of
a complex capture against the fixed sync waveforms, which share one
length.  The direct ``np.correlate`` is O(n·p) per capture; for a
pattern of 1280 samples (4 samples/chip) the FFT product
``ifft(fft(capture) · conj(fft(pattern)))`` is ~8x faster.

FFT reassociates the sums, so the result differs from the per-offset
dot product in the last few ulps (relative error ~1e-15).  The loop
twin ``WaveformBatchEngine.correlation_reference`` remains the
executable spec; the equivalence suite pins the FFT path to it at
1e-12 — the one sanctioned deviation from the bit-for-bit pin,
documented where it happens.

The transforms are numpy's (pocketfft).  Each is zero-padded to
:func:`next_fast_len`, the smallest length at or above the linear
correlation's whose only prime factors are 2, 3, 5, 7 and 11 — the
radices pocketfft has fast kernels for, and the length
``scipy.fft.next_fast_len(n, real=False)`` returns.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

_FAST_RADICES = (2, 3, 5, 7, 11)


def next_fast_len(n: int) -> int:
    """The smallest length ``>= n`` with no prime factor above 11."""
    if n < 1:
        raise ValueError(f"FFT length must be >= 1, got {n}")
    while True:
        rest = n
        for radix in _FAST_RADICES:
            while rest % radix == 0:
                rest //= radix
        if rest == 1:
            return n
        n += 1


class FftCorrelator:
    """Valid-mode raw cross-correlation of a capture vs named patterns.

    Matches ``np.correlate(capture, pattern, mode="valid")`` semantics
    for each pattern: output lag ``i`` is ``sum_k capture[i + k] *
    conj(pattern[k])``.  The patterns share one length, so one forward
    transform of a capture serves every pattern asked for.  Patterns
    are held as complex128 and every transform is a full complex
    ``fft``/``ifft``.  Each pattern's spectrum is cached per padded FFT
    length, so repeated calls over same-length captures pay one
    pattern transform total.
    """

    def __init__(self, patterns: Mapping[str, np.ndarray]) -> None:
        self._patterns = {}
        for name, pattern in patterns.items():
            pattern = np.asarray(pattern)
            if pattern.ndim != 1 or pattern.size == 0:
                raise ValueError(
                    f"pattern {name!r} must be a non-empty 1-D array, got "
                    f"shape {pattern.shape}"
                )
            self._patterns[name] = pattern.astype(np.complex128, copy=True)
        sizes = {pattern.size for pattern in self._patterns.values()}
        if len(sizes) != 1:
            raise ValueError(f"patterns must share one length, got {sizes}")
        (self.pattern_size,) = sizes
        self._spectra: dict[tuple[str, int], np.ndarray] = {}

    def _spectrum(self, name: str, length: int) -> np.ndarray:
        spectrum = self._spectra.get((name, length))
        if spectrum is None:
            spectrum = np.conj(np.fft.fft(self._patterns[name], length))
            self._spectra[name, length] = spectrum
        return spectrum

    def correlate(
        self, capture: np.ndarray, names: Sequence[str]
    ) -> list[np.ndarray]:
        """Raw valid-mode correlation of one capture with each named
        pattern, from one forward transform of the capture.

        ``capture`` is ``(n,)``; each output is the complex128
        ``(n - pattern_size + 1,)`` correlation.
        """
        capture = np.asarray(capture)
        if capture.ndim != 1:
            raise ValueError(
                f"capture must be 1-D, got shape {capture.shape}"
            )
        n_out = capture.size - self.pattern_size + 1
        if n_out <= 0:
            return [np.zeros(0, dtype=np.complex128) for _ in names]
        # Zero-padding past n + pattern_size - 1 keeps the circular
        # correlation free of wraparound over the valid lags.
        length = next_fast_len(capture.size + self.pattern_size - 1)
        spectrum = np.fft.fft(capture, length)
        return [
            np.fft.ifft(spectrum * self._spectrum(name, length), length)[:n_out]
            for name in names
        ]
