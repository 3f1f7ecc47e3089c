#!/usr/bin/env python3
"""Check that this checkout's flashsim writes the same bytes as another revision.

    python3 scripts/same_bytes.py REV [--seeds 1 2 3]

Run from anywhere inside the repository. REV's ``src/`` is extracted with
``git archive`` into a temporary directory. The inputs are the benchmark
workloads' config and trace for each seed, generated by
``perfbench/workloads.py`` (imported, never written to). Each input runs
through ``python -m flashsim`` from both trees with no flag, ``--events``,
``--format table``, ``--format table --events``, ``--check`` and
``--check --strict``, and the exit code, stdout and stderr of the two runs
are compared.

Prints one line per case. For a case that differs it prints each side's
exit code and stdout and stderr sha256, and the script exits 1. Exits 0
when every case matches. Stdlib only; the cases run one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAG_SETS = (
    (),
    ("--events",),
    ("--format", "table"),
    ("--format", "table", "--events"),
    ("--check",),
    ("--check", "--strict"),
)
CASE_TIMEOUT_S = 300


def load_workloads() -> dict:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def extract_src(rev: str, dest: Path) -> Path:
    """`rev`'s src/ under `dest`, as `git archive` gives it."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def simulate(src: Path, argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "flashsim", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=CASE_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def digest(outcome: tuple[int, bytes, bytes]) -> str:
    code, out, err = outcome
    return (
        f"exit {code}, stdout {hashlib.sha256(out).hexdigest()}, "
        f"stderr {hashlib.sha256(err).hexdigest()}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    workloads = load_workloads()

    differing = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        theirs = extract_src(args.rev, work / "rev")
        ours = ROOT / "src"
        for name, workload in workloads.items():
            for seed in args.seeds:
                inputs = work / f"{name}-{seed}"
                inputs.mkdir()
                config, trace = inputs / "config.ini", inputs / "workload.trace"
                config.write_text(workload.config)
                trace.write_text(workload.make_trace(seed, workload.commands))
                for flags in FLAG_SETS:
                    argv = ["--config", str(config), "--trace", str(trace), *flags]
                    label = f"{name} seed {seed} {' '.join(flags) or '(no flag)'}"
                    before = simulate(theirs, argv, inputs)
                    after = simulate(ours, argv, inputs)
                    if before == after:
                        print(f"same     {label}: {digest(after)}")
                        continue
                    differing += 1
                    print(f"DIFFERS  {label}")
                    print(f"  {args.rev}: {digest(before)}")
                    print(f"  checkout: {digest(after)}")
    total = len(workloads) * len(args.seeds) * len(FLAG_SETS)
    print(f"{differing} of {total} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
