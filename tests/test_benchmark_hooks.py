"""The benchmark's per-layer metrics must each have a hook that resolves.

`perfbench/tracer.py` measures a layer by wrapping a flashsim name; a name
that no longer exists is skipped, and a metric whose hooks are all missing
reads null in the benchmark's result line. This guard reads the tracer's
hook list (loaded from its source, so nothing is written under
`perfbench/`) and resolves every hook against the current package, so that
renaming or deleting a hooked name fails here first.
"""

from __future__ import annotations

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# wrapped by the benchmark's child process itself, not through a hook
SELF_WRAPPED = {"cli.main_s", "cli.self_s"}


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_layer_metric_has_a_hook_that_resolves():
    tracer = _load_tracer()
    live = {
        name
        for name, module, path, _ in tracer.HOOKS
        if tracer._resolve(module, path)[2] is not None
    }
    dead = {
        metric: hooks
        for metric, (_, hooks) in tracer.LAYER_METRICS.items()
        if metric not in SELF_WRAPPED and not live.intersection(hooks)
    }
    assert dead == {}
    assert SELF_WRAPPED <= tracer.LAYER_METRICS.keys()
