"""FFT-domain sliding correlation against a fixed pattern.

The one sync correlator (:class:`~repro.phy.batch.WaveformBatchEngine`,
in the sample domain) needs the raw valid-mode cross-correlation of
a complex capture against one fixed sync waveform.  The direct
``np.correlate`` is O(n·p) per capture; for a pattern of 1280 samples
(4 samples/chip) the FFT product
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
    """Valid-mode raw cross-correlation of a capture vs a pattern.

    Matches ``np.correlate(capture, pattern, mode="valid")`` semantics:
    output lag ``i`` is ``sum_k capture[i + k] * conj(pattern[k])``.  The
    pattern is held as complex128 and every transform is a full
    complex ``fft``/``ifft``.  The pattern's spectrum is cached per
    padded FFT length, so repeated calls over same-length captures pay
    one pattern transform total.
    """

    def __init__(self, pattern: np.ndarray) -> None:
        pattern = np.asarray(pattern)
        if pattern.ndim != 1 or pattern.size == 0:
            raise ValueError(
                f"pattern must be a non-empty 1-D array, got shape "
                f"{pattern.shape}"
            )
        self._pattern = pattern.astype(np.complex128, copy=True)
        self._spectra: dict[int, np.ndarray] = {}

    def _spectrum(self, length: int) -> np.ndarray:
        spectrum = self._spectra.get(length)
        if spectrum is None:
            spectrum = np.conj(np.fft.fft(self._pattern, length))
            self._spectra[length] = spectrum
        return spectrum

    def correlate(self, capture: np.ndarray) -> np.ndarray:
        """Raw valid-mode correlation of one capture, in one FFT program.

        ``capture`` is ``(n,)``; the output is the complex128
        ``(n - len(pattern) + 1,)`` correlation.
        """
        capture = np.asarray(capture)
        if capture.ndim != 1:
            raise ValueError(
                f"capture must be 1-D, got shape {capture.shape}"
            )
        psize = self._pattern.size
        n_out = capture.size - psize + 1
        if n_out <= 0:
            return np.zeros(0, dtype=np.complex128)
        # Zero-padding past n + psize - 1 keeps the circular
        # correlation free of wraparound over the valid lags.
        length = next_fast_len(capture.size + psize - 1)
        product = np.fft.fft(capture, length) * self._spectrum(length)
        return np.fft.ifft(product, length)[:n_out]
