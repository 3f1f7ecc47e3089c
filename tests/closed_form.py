"""Per-command latencies in closed form, on an idle device.

The paper's timing model prices each primitive event, and a command's
latency follows from how its events chain and contend. For a command that
arrives at an idle device, under the default policy, that latency has a
closed form in the timing parameters:

    c = t_cmd, s = t_sense, p = t_prog, e = t_erase, b = t_buf,
    x = one page transfer (page_size * t_bus_per_byte)

| command                        | latency                  |
| ------------------------------ | ------------------------ |
| read                           | c+s+x                    |
| write                          | c+x+p                    |
| erase                          | c+e                      |
| copy_back                      | c+s+b+p                  |
| cache_read of n pages          | c+s+x+(n-1)*max(s,x)     |
| cache_write of n pages         | c+x+p+(n-1)*max(p,x)     |
| multi-plane read of k planes   | c+s+k*x                  |
| multi-plane write of k planes  | c+k*x+p                  |
| multi-plane erase of k planes  | c+e                      |
| interleaved read of k dies     | c+s+k*x                  |
| interleaved write of k dies    | c+k*x+p                  |
| interleaved erase of k dies    | c+e                      |
| multi-plane copy-back, k pairs | c+s+b+p                  |

Nothing here reads `commands.shape`, `decompose` or the models, so a wrong
row of the command-kind table is wrong in the engine only, and criterion 3
of `test_acceptance.py` sees the two disagree. The energy formulas and the
`cmd_overhead_on_bus` and `die_serialization` variants are not written yet.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from flashsim.commands import CommandKind


class Timing(NamedTuple):
    """The parameters of the formulas, in whole nanoseconds."""

    c: int
    s: int
    p: int
    e: int
    b: int
    x: int


# Each kind's latency from its timing and its count: the pages of a cache
# command, the planes, dies or pairs of a multi-plane or interleaved one,
# else 1.
LATENCY_NS: dict[CommandKind, Callable[[Timing, int], int]] = {
    CommandKind.READ: lambda t, n: t.c + t.s + t.x,
    CommandKind.WRITE: lambda t, n: t.c + t.x + t.p,
    CommandKind.ERASE: lambda t, n: t.c + t.e,
    CommandKind.COPY_BACK: lambda t, n: t.c + t.s + t.b + t.p,
    CommandKind.CACHE_READ: lambda t, n: t.c + t.s + t.x + (n - 1) * max(t.s, t.x),
    CommandKind.CACHE_WRITE: lambda t, n: t.c + t.x + t.p + (n - 1) * max(t.p, t.x),
    CommandKind.MULTI_PLANE_READ: lambda t, k: t.c + t.s + k * t.x,
    CommandKind.MULTI_PLANE_WRITE: lambda t, k: t.c + k * t.x + t.p,
    CommandKind.MULTI_PLANE_ERASE: lambda t, k: t.c + t.e,
    CommandKind.INTERLEAVED_READ: lambda t, k: t.c + t.s + k * t.x,
    CommandKind.INTERLEAVED_WRITE: lambda t, k: t.c + k * t.x + t.p,
    CommandKind.INTERLEAVED_ERASE: lambda t, k: t.c + t.e,
    CommandKind.MULTI_PLANE_COPY_BACK: lambda t, k: t.c + t.s + t.b + t.p,
}
