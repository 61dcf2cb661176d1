"""Decibel and power unit conversions used across the optical substrate.

The telemetry pipeline mixes decibel quantities (SNR, gain, attenuation)
with linear quantities (noise powers that add, signal powers that are
attenuated multiplicatively).  Keeping the conversions in one module keeps
the rest of the codebase honest about which domain a number lives in.
"""

from __future__ import annotations

import math
from typing import overload

import numpy as np

#: Floor used when converting a non-positive linear ratio to dB.  A signal
#: with zero (or numerically negative) power has no meaningful SNR; we map
#: it to this sentinel instead of ``-inf`` so downstream statistics stay
#: finite.  -60 dB is far below any modulation threshold in the system.
DB_FLOOR = -60.0


@overload
def db_to_linear(value_db: float) -> float: ...
@overload
def db_to_linear(value_db: np.ndarray) -> np.ndarray: ...


def db_to_linear(value_db):
    """Convert a decibel power ratio to a linear power ratio.

    >>> db_to_linear(3.0103)  # doctest: +ELLIPSIS
    2.000...
    """
    if isinstance(value_db, np.ndarray):
        return np.power(10.0, value_db / 10.0)
    return 10.0 ** (value_db / 10.0)


@overload
def linear_to_db(value: float, *, floor_db: float = DB_FLOOR) -> float: ...
@overload
def linear_to_db(value: np.ndarray, *, floor_db: float = DB_FLOOR) -> np.ndarray: ...


def linear_to_db(value, *, floor_db: float = DB_FLOOR):
    """Convert a linear power ratio to decibels.

    Non-positive inputs are clamped to ``floor_db`` rather than producing
    ``-inf`` or raising, because loss-of-light events legitimately drive
    signal power to zero and the telemetry pipeline must keep going.
    """
    if isinstance(value, np.ndarray):
        out = np.full(value.shape, floor_db, dtype=float)
        positive = value > 0
        out[positive] = 10.0 * np.log10(value[positive])
        return np.maximum(out, floor_db)
    if value <= 0:
        return floor_db
    return max(10.0 * math.log10(value), floor_db)


def dbm_to_watts(power_dbm: float) -> float:
    """Convert absolute power in dBm to watts (0 dBm == 1 mW)."""
    return 1e-3 * 10.0 ** (power_dbm / 10.0)


def add_powers_db(*values_db: float) -> float:
    """Sum powers expressed in dB (converting through the linear domain).

    Useful for accumulating independent noise contributions:

    >>> round(add_powers_db(-20.0, -20.0), 4)
    -16.9897
    """
    if not values_db:
        raise ValueError("at least one value is required")
    total = sum(db_to_linear(v) for v in values_db)
    return linear_to_db(total)
