"""Power unit conversion.

The radio-medium model works in dBm for powers; the SINR arithmetic
happens in linear (milliwatt) units.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike


def dbm_to_mw(dbm: ArrayLike) -> np.ndarray:
    """Convert power in dBm to milliwatts."""
    return np.power(10.0, np.asarray(dbm, dtype=np.float64) / 10.0)
