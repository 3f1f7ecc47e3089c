"""Per-command latencies in closed form, on an idle device.

The paper's timing model prices each primitive event, and a command's
latency follows from how its events chain and contend. For a command that
arrives at an idle device, under the default policy, that latency has a
closed form in the timing parameters (the rows for serialized dies are
under `die_serialization`):

    c = t_cmd, s = t_sense, p = t_prog, e = t_erase, b = t_buf,
    x = one page transfer (page_size * t_bus_per_byte)

| command                                         | latency              |
| ----------------------------------------------- | -------------------- |
| read                                            | c+s+x                |
| write                                           | c+x+p                |
| erase                                           | c+e                  |
| copy_back                                       | c+s+b+p              |
| cache_read of n pages                           | c+s+x+(n-1)*max(s,x) |
| cache_write of n pages                          | c+x+p+(n-1)*max(p,x) |
| multi-plane read of k planes                    | c+s+k*x              |
| multi-plane write of k planes                   | c+k*x+p              |
| multi-plane erase of k planes                   | c+e                  |
| interleaved read of k dies                      | c+s+k*x              |
| interleaved write of k dies                     | c+k*x+p              |
| interleaved erase of k dies                     | c+e                  |
| multi-plane copy-back, k pairs                  | c+s+b+p              |
| multi-plane read of k planes, serialized dies   | c+s+x+(k-1)*max(s,x) |
| multi-plane write of k planes, serialized dies  | c+x+p+(k-1)*max(p,x) |
| multi-plane erase of k planes, serialized dies  | c+k*e                |
| multi-plane copy-back, k pairs, serialized dies | c+k*(s+b+p)          |

`die_serialization` makes the array steps of a multi-plane command take
turns on their one die: each sense or program after the first pipelines
against the transfers, as in a cache command, and the erases and the
copy-back chains run one after another. Every other row holds under it
as written: no other kind has array steps on two planes of one die. Under
`cmd_overhead_on_bus` every row holds too: the overhead comes first, so on
an idle device its bus is free, and it only adds c to that bus's busy
time, which is otherwise the command's transfers (BUS_BUSY_NS).

A command's energy is the sum over its events of power x duration. With
the power of each event kind named by the letter of its duration
(P_c = p_cmd, P_s = p_sense, P_p = p_prog, P_e = p_erase, P_x = p_bus,
P_b = p_buf, in mW) and the durations in ns, it is, in pJ (10^-6 uJ):

| command                        | energy                         |
| ------------------------------ | ------------------------------ |
| read                           | P_c*c+P_s*s+P_x*x              |
| write                          | P_c*c+P_x*x+P_p*p              |
| erase                          | P_c*c+P_e*e                    |
| copy_back                      | P_c*c+P_s*s+P_b*b+P_p*p        |
| cache_read of n pages          | P_c*c+n*(P_s*s+P_x*x)          |
| cache_write of n pages         | P_c*c+n*(P_x*x+P_p*p)          |
| multi-plane read of k planes   | P_c*c+k*(P_s*s+P_x*x)          |
| multi-plane write of k planes  | P_c*c+k*(P_x*x+P_p*p)          |
| multi-plane erase of k planes  | P_c*c+k*P_e*e                  |
| interleaved read of k dies     | P_c*c+k*(P_s*s+P_x*x)          |
| interleaved write of k dies    | P_c*c+k*(P_x*x+P_p*p)          |
| interleaved erase of k dies    | P_c*c+k*P_e*e                  |
| multi-plane copy-back, k pairs | P_c*c+k*(P_s*s+P_b*b+P_p*p)    |

The energy also tells apart two steps whose durations are equal but whose
powers are not (a sense and a transfer when s = x), which the latency
cannot.

Neither policy changes an energy: it moves events in time, not their
durations or powers.

Nothing here reads `commands.shape`, `decompose` or the models, so a wrong
row of the command-kind table is wrong in the engine only, and criterion 3
of `test_acceptance.py` sees the two disagree.
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

# The kinds whose latency `die_serialization` changes, with their latency
# under it.
DIE_SERIALIZED_LATENCY_NS: dict[CommandKind, Callable[[Timing, int], int]] = {
    CommandKind.MULTI_PLANE_READ: lambda t, k: t.c + t.s + t.x + (k - 1) * max(t.s, t.x),
    CommandKind.MULTI_PLANE_WRITE: lambda t, k: t.c + t.x + t.p + (k - 1) * max(t.p, t.x),
    CommandKind.MULTI_PLANE_ERASE: lambda t, k: t.c + k * t.e,
    CommandKind.MULTI_PLANE_COPY_BACK: lambda t, k: t.c + k * (t.s + t.b + t.p),
}

# Each kind's busy time on its channel bus, its page transfers, under
# either die policy; `cmd_overhead_on_bus` adds c.
BUS_BUSY_NS: dict[CommandKind, Callable[[Timing, int], int]] = {
    CommandKind.READ: lambda t, n: t.x,
    CommandKind.WRITE: lambda t, n: t.x,
    CommandKind.ERASE: lambda t, n: 0,
    CommandKind.COPY_BACK: lambda t, n: 0,
    CommandKind.CACHE_READ: lambda t, n: n * t.x,
    CommandKind.CACHE_WRITE: lambda t, n: n * t.x,
    CommandKind.MULTI_PLANE_READ: lambda t, k: k * t.x,
    CommandKind.MULTI_PLANE_WRITE: lambda t, k: k * t.x,
    CommandKind.MULTI_PLANE_ERASE: lambda t, k: 0,
    CommandKind.INTERLEAVED_READ: lambda t, k: k * t.x,
    CommandKind.INTERLEAVED_WRITE: lambda t, k: k * t.x,
    CommandKind.INTERLEAVED_ERASE: lambda t, k: 0,
    CommandKind.MULTI_PLANE_COPY_BACK: lambda t, k: 0,
}


class Power(NamedTuple):
    """The power of each event kind, in milliwatts, by the letter of its
    duration in `Timing`."""

    c: float
    s: float
    p: float
    e: float
    b: float
    x: float


# Each kind's energy in microjoules (mW x ns / 10**6) from its timing, its
# powers and its count, as for LATENCY_NS.
ENERGY_UJ: dict[CommandKind, Callable[[Timing, Power, int], float]] = {
    CommandKind.READ: lambda t, w, n: (w.c * t.c + w.s * t.s + w.x * t.x) / 1e6,
    CommandKind.WRITE: lambda t, w, n: (w.c * t.c + w.x * t.x + w.p * t.p) / 1e6,
    CommandKind.ERASE: lambda t, w, n: (w.c * t.c + w.e * t.e) / 1e6,
    CommandKind.COPY_BACK: lambda t, w, n: (
        w.c * t.c + w.s * t.s + w.b * t.b + w.p * t.p
    ) / 1e6,
    CommandKind.CACHE_READ: lambda t, w, n: (w.c * t.c + n * (w.s * t.s + w.x * t.x)) / 1e6,
    CommandKind.CACHE_WRITE: lambda t, w, n: (w.c * t.c + n * (w.x * t.x + w.p * t.p)) / 1e6,
    CommandKind.MULTI_PLANE_READ: lambda t, w, k: (
        w.c * t.c + k * (w.s * t.s + w.x * t.x)
    ) / 1e6,
    CommandKind.MULTI_PLANE_WRITE: lambda t, w, k: (
        w.c * t.c + k * (w.x * t.x + w.p * t.p)
    ) / 1e6,
    CommandKind.MULTI_PLANE_ERASE: lambda t, w, k: (w.c * t.c + k * w.e * t.e) / 1e6,
    CommandKind.INTERLEAVED_READ: lambda t, w, k: (
        w.c * t.c + k * (w.s * t.s + w.x * t.x)
    ) / 1e6,
    CommandKind.INTERLEAVED_WRITE: lambda t, w, k: (
        w.c * t.c + k * (w.x * t.x + w.p * t.p)
    ) / 1e6,
    CommandKind.INTERLEAVED_ERASE: lambda t, w, k: (w.c * t.c + k * w.e * t.e) / 1e6,
    CommandKind.MULTI_PLANE_COPY_BACK: lambda t, w, k: (
        w.c * t.c + k * (w.s * t.s + w.b * t.b + w.p * t.p)
    ) / 1e6,
}
