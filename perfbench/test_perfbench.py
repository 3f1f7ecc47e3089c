"""Tests of the benchmark itself: seeded inputs and live hooks.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SIMULATING_HOOKS = {name for name, *_ in tracer.HOOKS} - {"cli.validate"}

# hooks each workload must reach; a dead hook would report its layer as free
EXPECTED_HOOKS = {
    "ssd_mixed_events": SIMULATING_HOOKS - {"Expression.evaluate"},
    "expr_serialized": SIMULATING_HOOKS,
    "check_writes": {
        "cli.parse_config", "cli.parse_trace", "cli.validate",
        "SubsystemState.write_page", "SubsystemState.erase_block", "topology.encode",
    },
}

# layers the --check path must bypass entirely
CHECK_BYPASSES = ("commands.decompose_s", "commands.events", "models.contexts",
                  "models.price_calls", "expr.evaluations", "engine.run_s")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_trace_bytes(name):
    make = WORKLOADS[name].make_trace
    assert make(7, 300) == make(7, 300)
    assert make(7, 300) != make(8, 300)


def _traced_sample(name: str, tmp_path: Path, commands: int = 60) -> dict:
    workload = WORKLOADS[name]
    config, trace = tmp_path / "config.ini", tmp_path / "workload.trace"
    config.write_text(workload.config)
    trace.write_text(workload.make_trace(3, commands))
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "child.py"), str(ROOT), name,
         str(config), str(trace), str(tmp_path / "report.out"), "traced"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_hook_fires_on_a_tiny_trace(name, tmp_path):
    sample = _traced_sample(name, tmp_path)
    assert sample["exit_code"] == 0
    assert sample["absent"] == []
    silent = {h for h in EXPECTED_HOOKS[name] if sample["hooks"][h]["calls"] == 0}
    assert not silent
    layers = sample["layers"]
    assert None not in layers.values()
    if name == "check_writes":
        assert all(layers[m] == 0 for m in CHECK_BYPASSES)
    else:
        children = sum(sample["engine_children"].values())
        assert layers["engine.self_s"] + children == pytest.approx(layers["engine.run_s"])


def test_missing_hook_target_reads_as_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    bogus = ("expr.gone", "flashsim.expr", "Expression.no_such_method", None)
    monkeypatch.setattr(tracer, "HOOKS", (bogus,))
    monkeypatch.setitem(tracer.LAYER_METRICS, "expr.evaluations", ("calls", ("expr.gone",)))
    t = tracer.Tracer(lambda: 0.0)
    t.install()
    t.uninstall()
    assert t.absent == ["expr.gone"]
    assert t.layers()["expr.evaluations"] is None
