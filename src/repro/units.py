"""Units used throughout the photonic-rails reproduction.

Conventions
-----------
The whole library uses a single, consistent set of base units:

* **time** — seconds (``float``)
* **data size** — bytes (``float``; fractional bytes are allowed in analytic
  formulas)
* **bandwidth / rate** — bytes per second
* **compute** — floating-point operations per second

Helper constants convert the units that appear in the paper (milliseconds for
OCS reconfiguration times, Gbps for link rates, TFLOPS for GPU peaks) into the
base units.  Keeping conversions explicit at call sites -- e.g.
``25 * MILLISECONDS`` or ``400 * GBPS`` -- keeps the code readable and removes
a whole class of unit-mismatch bugs.
"""

from __future__ import annotations

#: One millisecond, in seconds.
MILLISECONDS: float = 1e-3

#: One gigabit per second, expressed in bytes per second.
GBPS: float = 1e9 / 8.0

#: One teraFLOP per second, in FLOP/s.
TFLOPS: float = 1e12
