"""flashsim host-time benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root. The workload's config and trace are generated
from the seed into a scratch directory inside the checkout; flashsim itself
is imported from ``src/``. Samples run one after another, each in a fresh
single-threaded interpreter (child.py) that calls ``flashsim.cli.main`` once,
until ``--seconds`` have passed. End-to-end metrics are medians over the
samples; host times are rescaled by a speed probe timed in each sample
(calibrate.py) to the reference host's usual speed. With ``--trace 1`` the
first third of the time takes untraced samples and the rest traced ones
(tracer.py), and the per-layer metrics are medians over the traced samples.

Every sample's exit code, report and stderr sha256 and sim.* statistics must
equal those of the first sample, and, for the default seed, the values
pinned in pinned.json; a sample that differs, crashes or exits with another
code counts as failed. The last stdout line is the result object; the lines
before it give every metric and identity value by name for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, RSS_MARKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_SAMPLES = 5  # per phase, however long the samples take
CHILD_TIMEOUT_S = 120
# calibrate() on the reference host (see design.md); wall_s is in seconds
# at that speed
CALIBRATION_REF_S = 0.040
CONFIG_NAME, TRACE_NAME = "config.ini", "workload.trace"
IDENTITY_KEYS = ("exit_code", "report_sha256", "stderr_sha256", "sim")

END_TO_END_UNITS = {"wall_s": "s", "cmds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    name: "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else
    "bytes" if name.endswith("_bytes") else "count"
    for name in [*LAYER_METRICS, *RSS_MARKS.values(), "cli.diagnostic_lines"]
}
PER_LAYER_UNITS["trace.overhead_frac"] = "ratio"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "flashsim" / "__init__.py").is_file():
        print(f"perfbench: no flashsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    config_text = workload.config
    trace_text = workload.make_trace(args.seed, workload.commands)
    (work / CONFIG_NAME).write_text(config_text)
    (work / TRACE_NAME).write_text(trace_text)

    def sample(mode: str) -> dict | None:
        # relative paths: diagnostics name the trace file, and their bytes
        # must not depend on where the scratch directory is
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "child.py"), str(ROOT), workload.name,
             CONFIG_NAME, TRACE_NAME, "report.out", mode],
            cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(f"perfbench: sample failed (exit {proc.returncode}):\n{proc.stderr}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    # one unmeasured sample first: compiles bytecode and warms the file cache
    samples = [sample("plain")]
    untraced_s = args.seconds / 3 if args.trace else args.seconds
    timed = _sample_for(untraced_s, lambda: sample("plain"))
    traced = _sample_for(args.seconds - untraced_s, lambda: sample("traced")) if args.trace else []
    samples += timed + traced

    reference = next((s for s in samples if s is not None), None)
    pinned = _pinned(workload.name) if args.seed == DEFAULT_SEED else None
    failed = sum(
        1 for s in samples
        if s is None or s["exit_code"] != 0 or _identity(s) != _identity(reference)
        or (pinned is not None and _identity(s) != pinned)
    )
    good = [s for s in timed if s is not None]
    good_traced = [s for s in traced if s is not None]
    if not good or (args.trace and not good_traced):
        print("perfbench: no successful samples", file=sys.stderr)
        return 1

    scaled = [_rescaled(s, s["wall_s"]) for s in good]
    end_to_end = {
        "wall_s": statistics.median(scaled),
        "cmds_per_s": statistics.median(s["commands"] / w for s, w in zip(good, scaled)),
        "setup_s": statistics.median(_rescaled(s, s["setup_s"]) for s in good),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace_sha256": hashlib.sha256(trace_text.encode()).hexdigest(),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "samples": {"untraced": len(timed), "traced": len(traced), "warm_up": 1},
        "failed_frac": failed / len(samples),
        "pinned_checked": pinned is not None,
        "identity": _identity(reference),
        "end_to_end": end_to_end,
        "raw_wall_s": statistics.median(s["wall_s"] for s in good),
        "calibration_s": statistics.median(s["calibration_s"] for s in good),
        "raw_wall_samples_s": [s["wall_s"] for s in good],
        "calibration_samples_s": [s["calibration_s"] for s in good],
        "setup_samples_s": [s["setup_s"] for s in good],
    }
    if args.trace:
        layers = _layer_medians(good_traced)
        traced_wall = statistics.median(_rescaled(s, s["wall_s"]) for s in good_traced)
        layers["trace.overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1
        detail["layers"] = layers
        detail["absent_hooks"] = good_traced[0]["absent"]
        detail["hooks"] = good_traced[0]["hooks"]
        detail["engine_children_s"] = good_traced[0]["engine_children"]
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}

    _print_readable(detail, failed, len(samples))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _sample_for(seconds: float, take) -> list:
    out: list = []
    deadline = time.monotonic() + seconds
    while len(out) < MIN_SAMPLES or time.monotonic() < deadline:
        out.append(take())
    return out


def _identity(sample: dict | None) -> dict | None:
    return None if sample is None else {k: sample[k] for k in IDENTITY_KEYS}


def _pinned(workload: str) -> dict | None:
    return json.loads((HERE / "pinned.json").read_text()).get(workload)


def _rescaled(sample: dict, seconds: float) -> float:
    """Host seconds of `sample` rescaled to the reference calibration speed."""
    return seconds * CALIBRATION_REF_S / sample["calibration_s"]


def _layer_medians(samples: list[dict]) -> dict:
    """Median of each per-layer metric over the traced samples.

    Times are rescaled like wall_s, so that they compare with it.
    """
    out = {}
    for key in samples[0]["layers"]:
        values = [s["layers"][key] for s in samples]
        if None in values:
            out[key] = None
            continue
        if PER_LAYER_UNITS[key] == "s":
            out[key] = statistics.median(_rescaled(s, v) for s, v in zip(samples, values))
        else:  # counts and MB: a value that was measured, never a midpoint
            out[key] = statistics.median_low(values)
    out["cli.diagnostic_lines"] = samples[0]["diagnostic_lines"]
    return out


def _print_readable(detail: dict, failed: int, attempted: int) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}")
    print(f"  trace sha256  {detail['trace_sha256']}")
    print(f"  config sha256 {detail['config_sha256']}")
    print(f"  samples {detail['samples']}  failed {failed}/{attempted}"
          f"  failed_frac {detail['failed_frac']:.4f}"
          f"  pinned identity checked: {detail['pinned_checked']}")
    identity = dict(detail["identity"])
    print(f"  {'exit_code':<28} {identity.pop('exit_code')}")
    for name, value in {**identity.pop("sim"), **identity}.items():
        print(f"  sim.{name:<24} {value}")
    print(f"  {'raw_wall_s':<28} {detail['raw_wall_s']:.6g} s (median, not rescaled)")
    print(f"  {'calibration_s':<28} {detail['calibration_s']:.6g} s"
          f" (reference {CALIBRATION_REF_S} s)")
    for name, value in detail["end_to_end"].items():
        print(f"  {name:<28} {value:.6g} {END_TO_END_UNITS[name]}")
    if detail.get("engine_children_s"):
        run = detail["hooks"]["cli.run"]
        accounted = run["self_s"] + sum(detail["engine_children_s"].values())
        print(f"  engine accounting (first traced sample, raw): self + hooked children"
              f" = {accounted:.6g} s of engine.run_s {run['total_s']:.6g} s")
    for name, value in detail.get("layers", {}).items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown} {PER_LAYER_UNITS[name]}")


if __name__ == "__main__":
    sys.exit(main())
