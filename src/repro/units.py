"""Unit helpers and conversion constants.

All internal quantities use SI base units: seconds, bytes, hertz, joules and
watts.  These helpers exist so that configuration files read like the
hardware datasheets they are derived from (``2 * GHZ``, ``59 * GB``) instead
of opaque exponents.

Convention (enforced by ``tests/test_units_config.py``): data **sizes** are
binary — ``KB``/``MB``/``GB`` are powers of 1024, as capacities are
specified in memory datasheets — while **bandwidths** are decimal —
``KB_S``/``MB_S``/``GB_S`` are powers of 1000, as link and DRAM
bandwidths are customarily quoted.  Never write a capacity with a ``_S``
constant (or vice versa), and never spell either as a raw exponent: a
mixed site is off by ~7% (GB vs GB_S) and silently skews bandwidth and
energy math.
"""

from __future__ import annotations

# --- frequency -------------------------------------------------------------
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

# --- data size (binary) ----------------------------------------------------
KB = 1024
MB = 1024**2
GB = 1024**3
TB = 1024**4

# Bandwidths are customarily quoted in decimal units.
KB_S = 1e3
MB_S = 1e6
GB_S = 1e9

# --- time ------------------------------------------------------------------
NS = 1e-9
US = 1e-6
MS = 1e-3

# --- energy ----------------------------------------------------------------
PJ = 1e-12
NJ = 1e-9
UJ = 1e-6
MJ = 1e-3

# --- compute ---------------------------------------------------------------
GFLOPS = 1e9
TFLOPS = 1e12

FLOAT32_BYTES = 4


def seconds_per_cycle(frequency_hz: float) -> float:
    """Duration of one clock cycle at ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return 1.0 / frequency_hz
