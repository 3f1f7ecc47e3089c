"""The time domain: microseconds in trace and report text, and whole
nanoseconds below `TIME_LIMIT_NS` (2**63, about 292 years) for every
arrival, duration, start and end, so that identical inputs give identical
timelines and every time fits a signed 64-bit integer.
"""

from __future__ import annotations

NS_PER_US = 1000
TIME_LIMIT_NS = 2**63
