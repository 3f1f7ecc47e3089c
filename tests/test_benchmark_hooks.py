"""The benchmark's per-layer metrics must each have a hook that resolves.

`perfbench/tracer.py` measures a layer by wrapping a flashsim name; a name
that no longer exists is skipped, and a metric whose hooks are all missing
reads null in the benchmark's result line. This guard reads the tracer's
hook list (loaded from its source, so nothing is written under
`perfbench/`) and resolves every hook against the current package, so that
renaming or deleting a hooked name fails here first.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"

# wrapped by the benchmark's child process itself, not through a hook
SELF_WRAPPED = {"cli.main_s", "cli.self_s"}


def _load(path: Path, name: str) -> types.ModuleType:
    """Execute a benchmark module from its source, so that no bytecode is
    written next to it."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # a dataclass looks its module up by name
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def _load_tracer() -> types.ModuleType:
    return _load(TRACER, "perfbench_tracer")


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
    from flashsim import EventKind, FlashAddress, Geometry, ModelSet
    from flashsim import SubsystemState, parse_expression
    from flashsim.models import EventContext

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


@pytest.mark.parametrize("workload", ["ssd_mixed_events", "expr_serialized", "check_writes"])
def test_a_traced_benchmark_run_reads_no_null_metric(workload, tmp_path, capsys):
    """A traced run of each workload's argv shape, as the benchmark's child
    process makes it, ends with a value for every per-layer metric; a metric
    whose hooks are all absent reads null and spoils the result line."""
    import flashsim.cli

    tracer = _load_tracer()
    bench = _load(WORKLOADS, "perfbench_workloads").WORKLOADS[workload]
    config, trace = tmp_path / "config.ini", tmp_path / "workload.trace"
    config.write_text(bench.config)
    trace.write_text(bench.make_trace(1, 60))
    argv = bench.argv(str(config), str(trace), str(tmp_path / "report.out"))
    hooks = tracer.Tracer(lambda: 0.0)
    hooks.install()
    try:
        # an item counter that raises would propagate out of this call
        code = hooks.wrap_call("cli.main", flashsim.cli.main)(argv)
    finally:
        hooks.uninstall()
    capsys.readouterr()
    assert code == 0
    layers = hooks.layers()
    assert None not in layers.values(), [k for k, v in layers.items() if v is None]
    assert hooks.stats["cli.parse_trace"][3] == 60  # the parse hook's item count
