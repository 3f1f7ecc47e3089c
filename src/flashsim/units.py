"""Time unit helpers.

All user-facing times are microseconds; the engine schedules on integer
nanoseconds so that identical inputs always produce identical timelines.
"""

from __future__ import annotations

NS_PER_US = 1000


def us_to_ns(us: float) -> int:
    """Microseconds to the internal integer-nanosecond timebase (rounded)."""
    return round(us * NS_PER_US)
