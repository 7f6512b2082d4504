"""Unit-of-measure type aliases for the model layer.

The paper's models are *dimensional identities*: AMAT (Eq. 1) is
seconds, APPR (Eq. 2-3) is joules, and a silent ns<->s or pJ<->J slip
anywhere in the pipeline invalidates every figure while all value-level
tests keep passing.  These aliases make the intended dimension part of
a signature without changing runtime behaviour (they are plain
``float``/``int`` at runtime): annotate a dataclass field, function
return or parameter with one of them to document its dimension.  The
dimensions themselves are pinned by the literal Eq. 1/Eq. 2 tests in
``tests/test_models.py``, which recompute each model by hand.

Values carry SI base units: a ``Seconds`` value is in seconds (use the
``NANOSECOND``/``MILLISECOND`` constants from
:mod:`repro.memory.devices` to write one), a ``Joules`` value in
joules, a ``Bytes`` value in bytes.
"""

from __future__ import annotations

#: A duration or latency in seconds.
Seconds = float

#: An energy in joules.
Joules = float

#: A power in watts (joules per second).  ``static_power_per_gb`` is
#: annotated with this although it is watts *per GiB*: the GiB
#: normalisation (division by ``GIB``) belongs to the byte dimension,
#: so the product with a byte capacity comes out in plain watts.
Watts = float

#: A size or capacity in bytes.
Bytes = int

#: A dimensionless event/object count (requests, pages, frames, ...).
Count = int

#: A dimensionless ratio or probability.
Ratio = float
