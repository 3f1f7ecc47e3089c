"""A probe of the host's current speed, timed next to every sample.

The benchmark's sandbox is a small machine shared with other tenants, and
its speed drifts by 10 to 25% within tens of seconds. The loop below is a
fixed slice of pure-Python work (tuple hashing, dict updates, string
formatting, sorting) that shares no code with flashsim. child.py times it
in the sample's own process, right before and right after the cli.main
call, and run.py rescales the sample's wall time by it.
"""

import time


def calibrate(rounds: int = 3) -> float:
    """Median seconds of `rounds` (odd) passes over the fixed loop."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        table: dict = {}
        # ten small batches rather than one large one keep the loop's peak
        # memory far below any workload's, so it cannot set peak_rss_mb
        for batch in range(10):
            labels = []
            for i in range(batch * 3000, (batch + 1) * 3000):
                key = (i % 31, i & 7)
                table[key] = table.get(key, 0) + i
                labels.append(f"{i % 7}.{i % 5}.{i % 3}")
            labels.sort()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]
