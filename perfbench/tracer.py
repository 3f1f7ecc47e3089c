"""Per-layer host-time tracing by wrapping flashsim's functions from outside.

Each hook replaces one name that the pipeline looks up at call time (a
module global or a class attribute) with a wrapper that counts calls and
adds up total and self seconds. Self time is total time minus the time of
the hooked calls made from inside it, found with a stack of open frames.
The wrapper aggregates in place and keeps no per-call record, so about a
million calls cost a few seconds and no memory growth. A hook whose target
does not exist (a later change removed or renamed it) is listed as absent,
and the metrics built only from absent hooks read ``None``.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable


def _length(result) -> int:
    return len(result)


def _schedule_length(result) -> int:
    return len(result.schedule)


def _encoded_length(result) -> int:
    return len(result.encode())


# (hook name, module, attribute path, item counter applied to the result)
HOOKS = (
    ("cli.parse_config", "flashsim.cli", "parse_config", None),
    ("cli.parse_trace", "flashsim.cli", "parse_trace", _length),
    ("cli.validate", "flashsim.cli", "validate", _length),
    ("cli.run", "flashsim.cli", "run", _schedule_length),
    ("cli.idle_accounting", "flashsim.cli", "idle_accounting", None),
    ("cli.build_report", "flashsim.cli", "build_report", None),
    ("cli.emit", "flashsim.cli", "emit", _encoded_length),
    ("engine.validate", "flashsim.engine", "validate", _length),
    ("engine.decompose", "flashsim.engine", "decompose", _length),
    ("EventContext.for_event", "flashsim.models", "EventContext.for_event", None),
    ("ModelSet.latency_us", "flashsim.models", "ModelSet.latency_us", None),
    ("ModelSet.energy_uj", "flashsim.models", "ModelSet.energy_uj", None),
    ("Expression.evaluate", "flashsim.expr", "Expression.evaluate", None),
    ("SubsystemState.write_page", "flashsim.topology", "SubsystemState.write_page", _length),
    ("SubsystemState.erase_block", "flashsim.topology", "SubsystemState.erase_block", _length),
    ("topology.encode", "flashsim.topology", "encode", None),
    ("FlashAddress.__str__", "flashsim.topology", "FlashAddress.__str__", None),
)

# ru_maxrss high-water mark read after each top-level pipeline call
RSS_MARKS = {
    "cli.parse_trace": "rss.after_parse_mb",
    "cli.run": "rss.after_run_mb",
    "cli.build_report": "rss.after_report_mb",
    "cli.emit": "rss.after_emit_mb",
}

_VALIDATE = ("cli.validate", "engine.validate")
_STATE = ("SubsystemState.write_page", "SubsystemState.erase_block")

# per-layer metric -> (statistic, hooks summed); statistic is one of
# calls, total (seconds), self (seconds) or items (the hook's item counter)
LAYER_METRICS = {
    "trace_io.parse_trace_s": ("total", ("cli.parse_trace",)),
    "trace_io.parse_config_s": ("total", ("cli.parse_config",)),
    "trace_io.commands": ("items", ("cli.parse_trace",)),
    "commands.validate_s": ("total", _VALIDATE),
    "commands.validate_calls": ("calls", _VALIDATE),
    "commands.violations": ("items", _VALIDATE + _STATE),
    "topology.state_s": ("total", _STATE),
    "topology.page_writes": ("calls", ("SubsystemState.write_page",)),
    "topology.block_erases": ("calls", ("SubsystemState.erase_block",)),
    "topology.encode_calls": ("calls", ("topology.encode",)),
    "topology.label_s": ("total", ("FlashAddress.__str__",)),
    "topology.label_calls": ("calls", ("FlashAddress.__str__",)),
    "commands.decompose_s": ("total", ("engine.decompose",)),
    "commands.events": ("items", ("engine.decompose",)),
    "models.contexts": ("calls", ("EventContext.for_event",)),
    "models.context_s": ("total", ("EventContext.for_event",)),
    "models.latency_s": ("total", ("ModelSet.latency_us",)),
    "models.energy_s": ("total", ("ModelSet.energy_uj",)),
    "models.price_calls": ("calls", ("ModelSet.latency_us", "ModelSet.energy_uj")),
    "expr.evaluations": ("calls", ("Expression.evaluate",)),
    "expr.evaluate_s": ("total", ("Expression.evaluate",)),
    "engine.run_s": ("total", ("cli.run",)),
    "engine.self_s": ("self", ("cli.run",)),
    "engine.idle_s": ("total", ("cli.idle_accounting",)),
    "engine.events_scheduled": ("items", ("cli.run",)),
    "stats.build_report_s": ("total", ("cli.build_report",)),
    "stats.emit_s": ("total", ("cli.emit",)),
    "stats.report_bytes": ("items", ("cli.emit",)),
    "cli.main_s": ("total", ("cli.main",)),
    "cli.self_s": ("self", ("cli.main",)),
}

_STAT_INDEX = {"calls": 0, "total": 1, "self": 2, "items": 3}


class Tracer:
    """Installs the hooks, aggregates them, and restores the originals."""

    def __init__(self, max_rss_mb: Callable[[], float]):
        self._max_rss_mb = max_rss_mb
        self.stats: dict[str, list] = {}  # hook -> [calls, total_s, self_s, items]
        self.edges: dict[tuple[str, str], float] = {}  # (parent, child) -> seconds
        self.rss: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # open frames: [hook name, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, path, counter in HOOKS:
            owner, attr, raw = _resolve(module, path)
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                hooked = classmethod(self.wrap_call(name, raw.__func__, counter))
            else:
                hooked = self.wrap_call(name, raw, counter)
            setattr(owner, attr, hooked)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def wrap_call(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        rss_key = RSS_MARKS.get(name)

        def hooked(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edge = (parent[0], name)
                    edges[edge] = edges.get(edge, 0.0) + elapsed
            if counter is not None:
                stat[3] += counter(result)
            if rss_key is not None:
                self.rss[rss_key] = self._max_rss_mb()
            return result

        return hooked

    def layers(self) -> dict:
        """Every per-layer metric except the ones the caller measures itself."""
        out = {}
        for metric, (statistic, hooks) in LAYER_METRICS.items():
            present = [self.stats[h] for h in hooks if h in self.stats]
            index = _STAT_INDEX[statistic]
            out[metric] = sum(s[index] for s in present) if present else None
        for key in RSS_MARKS.values():
            out[key] = self.rss.get(key, 0.0)  # 0 when the phase did not run
        return out

    def hook_table(self) -> dict:
        return {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "items": s[3]}
            for name, s in self.stats.items()
        }

    def children_of(self, parent: str) -> dict[str, float]:
        """Seconds spent in each hooked callee called directly by `parent`."""
        return {c: t for (p, c), t in self.edges.items() if p == parent}


def _resolve(module: str, path: str) -> tuple[object, str, object]:
    """The owner of `path`, its last component, and the raw attribute or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, path, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    # read the class dict directly so a classmethod stays a classmethod
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, raw
