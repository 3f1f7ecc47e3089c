"""One measured sample: a fresh interpreter that sets up and calls cli.main once.

Usage: python3 -I child.py ROOT WORKLOAD CONFIG TRACE OUT {plain|traced}

Prints one JSON object on stdout. The clock starts before flashsim is
imported, so ``setup_s`` covers the package import plus parse_config and
parse_trace on the workload's files. ``wall_s`` is one cli.main call with the
workload's argv, from entry to return, including its own reading of the
inputs and writing of the report. stderr is captured in memory rather than
discarded: printing diagnostics is part of the timed work, and its bytes
are part of the identity gate. The speed probe (calibrate.py) is timed in
this process right before and right after the call; run.py rescales by it.
"""

import sys
import time

_t0 = time.perf_counter()
ROOT, WORKLOAD, CONFIG, TRACE, OUT, MODE = sys.argv[1:7]
SRC = ROOT + "/src"
sys.path[:0] = [SRC, ROOT + "/perfbench"]

import flashsim  # noqa: E402
import flashsim.cli  # noqa: E402
from flashsim import parse_config, parse_trace  # noqa: E402

with open(CONFIG) as f:
    _config = parse_config(f.read())
with open(TRACE) as f:
    _n_commands = len(parse_trace(f.read(), _config.geometry))
setup_s = time.perf_counter() - _t0

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from calibrate import calibrate  # noqa: E402
from identity import sim_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main() -> None:
    if not os.path.realpath(flashsim.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"flashsim imported from {flashsim.__file__}, not from {SRC}")
    workload = WORKLOADS[WORKLOAD]
    argv = workload.argv(CONFIG, TRACE, OUT)
    tracer = None
    call = flashsim.cli.main
    if MODE == "traced":
        from tracer import Tracer

        tracer = Tracer(_max_rss_mb)
        tracer.install()
        call = tracer.wrap_call("cli.main", call)

    speed_before = calibrate()
    captured = io.StringIO()
    real_stderr, sys.stderr = sys.stderr, captured
    try:
        start = time.perf_counter()
        code = call(argv)
        wall_s = time.perf_counter() - start
    finally:
        sys.stderr = real_stderr
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = _max_rss_mb()
    calibration_s = (speed_before + calibrate()) / 2

    report = b""
    if workload.report and os.path.exists(OUT):
        with open(OUT, "rb") as f:
            report = f.read()
        os.remove(OUT)
    stderr_bytes = captured.getvalue().encode()
    out = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "commands": _n_commands,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration_s,
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr_bytes).hexdigest(),
        "sim": sim_stats(report, stderr_bytes),
        "diagnostic_lines": stderr_bytes.count(b"\n"),
    }
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["hooks"] = tracer.hook_table()
        out["absent"] = tracer.absent
        out["engine_children"] = tracer.children_of("cli.run")
    print(json.dumps(out))


main()
