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


# hooks on methods of the package's records and state classes
RECORD_HOOKS = (
    "FlashAddress.__str__",
    "EventContext.for_event",
    "ModelSet.latency_us",
    "ModelSet.energy_uj",
    "Expression.evaluate",
    "SubsystemState.write_page",
    "SubsystemState.erase_block",
)


def test_record_method_hooks_wrap_and_restore():
    """Each record method the tracer hooks can be wrapped: the wrapped call
    is counted and returns what the original returns, and uninstalling puts
    the original back."""
    from flashsim import EventContext, EventKind, FlashAddress, Geometry, ModelSet
    from flashsim import SubsystemState, parse_expression

    tracer = _load_tracer()
    geometry = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
    addr = FlashAddress(1, 0, 1, 0, 3, 5)
    expr = parse_expression("page + 1", frozenset({"page"}))
    hooked = [entry for entry in tracer.HOOKS if entry[0] in RECORD_HOOKS]
    assert sorted(name for name, *_ in hooked) == sorted(RECORD_HOOKS)

    def calls():
        ctx = EventContext.for_event(EventKind.ARRAY_SENSE, addr, 0, geometry)
        models = ModelSet()
        state = SubsystemState(geometry, endurance_limit=0)
        return (
            str(addr),
            ctx,
            models.latency_us(ctx),
            models.energy_uj(ctx._replace(duration_us=25.0)),
            expr.evaluate({"page": 3.0}),
            state.write_page(addr),
            state.erase_block(addr),
        )

    expected = calls()
    originals = [tracer._resolve(module, path)[2] for _, module, path, _ in hooked]
    hooks = tracer.Tracer(lambda: 0.0)
    hooks.install()
    try:
        assert calls() == expected
    finally:
        hooks.uninstall()
    assert {name: hooks.stats[name][0] for name in RECORD_HOOKS} == dict.fromkeys(
        RECORD_HOOKS, 1
    )
    for (_, module, path, _), original in zip(hooked, originals):
        assert tracer._resolve(module, path)[2] is original
