#!/usr/bin/env python3
"""Check that this checkout's flashsim writes the same bytes as another revision.

    python3 scripts/same_bytes.py REV [--seeds 1 2 3]

Run from anywhere inside the repository. REV's ``src/`` is extracted with
``git archive`` into a temporary directory. The inputs are:

- the benchmark workloads' config and trace for each seed, generated by
  ``perfbench/workloads.py`` (imported, never written to);
- each trace of ``tests/data`` and ``sample/`` under each config of those
  two directories;
- for each seed, two traces on ``sample/ssd.ini`` whose indices are spelled
  in many ways a trace may spell them (leading zeros, signs, underscores,
  non-ASCII digits, whitespace around them) and repeated, so that parsing reads each
  text more than once: one with only addresses in range, and one with bad
  and out-of-range addresses added;
- for each seed, a trace of cache reads and writes on ``sample/ssd.ini``
  whose extents rise to the block length and fall back to one page, in
  rounds that each end with an erase and a read, so that shorter commands
  run prefixes of a chain already compiled for a longer extent; the same
  trace also runs under an edited ``sample/ssd.ini`` whose
  ``bus_transfer_out`` latency reads ``page`` and whose ``[power]
  block_erase = -duration`` always fails, so that events priced per event,
  events whose price is folded into their step, and the error raised at
  the first erase are compared;
- ``sample/mixed.trace`` under edited copies of ``sample/ssd.ini``: die
  serialization with idle power (no benchmark workload has both), die
  serialization with the command overhead on the bus, energies of -0.0 on
  channel 0 and 0.0 on channel 1 (equal floats that render apart), an idle
  power of -0.0 on the planes (whose idle energies render as -0.0), policy
  flags spelled ``yes``, ``on`` and ``1``, an empty ``[DEFAULT]`` header,
  configs that each fail with one of the config diagnostics
  ``tests/test_trace_io.py`` pins, and one config for each malformed-config
  diagnostic, so that their stderr is compared;
- ``sample/mixed.trace`` with every arrival moved later, on
  ``sample/ssd.ini``: so that event starts cross 10^15 ns, where a start
  in microseconds may need more than 15 digits, and so that arrivals pass
  2^63 ns, which the trace reader rejects.

Each input runs through ``python -m flashsim`` from both trees with no flag,
``--events``, ``--format table``, ``--format table --events``,
``--strict``, ``--check`` and ``--check --strict``, and the exit code,
stdout and stderr of the two runs are compared. Each benchmark workload
also runs with its own argv, as ``perfbench/workloads.py`` builds it,
``--out`` included, and the bytes of the file each tree writes are compared
as well. Last, each of ARGV_FORMS runs once on ``sample/ssd.ini`` and
``sample/mixed.trace``: help and usage errors, which argparse answers, an
abbreviated option, and an argv of ``--config=`` and ``--trace=`` words.
``cases`` builds this list; ``scripts/reachable.py`` runs the same list.

Prints one line per case. For a case that differs it prints each side's
exit code and stdout, stderr and ``--out`` file sha256, and the script
exits 1. Exits 0 when every case matches. Stdlib only; the cases run one
after another.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
FLAG_SETS = (
    (),
    ("--events",),
    ("--format", "table"),
    ("--format", "table", "--events"),
    ("--strict",),
    ("--check",),
    ("--check", "--strict"),
)
CASE_TIMEOUT_S = 300
DATA_FOLDERS = (ROOT / "tests" / "data", ROOT / "sample")
SPELLING_CONFIG = ROOT / "sample" / "ssd.ini"
EDITED_TRACE = ROOT / "sample" / "mixed.trace"
# (name, the (old, new) texts replaced in sample/ssd.ini)
CONFIG_EDITS = (
    (
        "dies-idle",
        (
            ("die_serialization = false", "die_serialization = true"),
            ("p_idle_plane = 0", "p_idle_plane = 1.5"),
            ("p_idle_bus = 0", "p_idle_bus = 0.5"),
        ),
    ),
    (
        "flags-spelled",
        (
            ("die_serialization = false", "die_serialization = yes"),
            ("cmd_overhead_on_bus = false", "cmd_overhead_on_bus = on"),
            ("initially_written = false", "initially_written = 1"),
            ("multi_plane_same_offsets = true", "multi_plane_same_offsets = YES"),
        ),
    ),
    ("unknown-geometry-key", (("oob_size = 128", "oob_bytes = 128"),)),
    ("unknown-policy-key", (("violation_severity", "loud = yes\nviolation_severity"),)),
    ("missing-geometry-key", (("pages_per_block = 8\n", ""),)),
    (
        "unknown-key-before-missing-key",
        (("pages_per_block = 8\n", ""), ("oob_size", "oob_bytes")),
    ),
    ("bad-int", (("channels = 2", "channels = two"),)),
    ("bad-float", (("p_sense = 30", "p_sense = fast"),)),
    ("bad-bool", (("die_serialization = false", "die_serialization = maybe"),)),
    ("bad-severity", (("violation_severity = warn", "violation_severity = LOUD"),)),
    ("negative-endurance-limit", (("endurance_limit = none", "endurance_limit = -1"),)),
    ("bad-endurance-limit", (("endurance_limit = none", "endurance_limit = Nothing"),)),
    ("nan-timing", (("t_sense = 25", "t_sense = nan"),)),
    ("negative-timing", (("t_sense = 25", "t_sense = -4"),)),
    (
        "power-key-before-timing-range",
        (("t_sense = 25", "t_sense = -4"), ("p_buf = 0", "p_warp = 0")),
    ),
    (
        "performance-expression",
        (("#array_sense = 25 + 0.001 * block", "array_sense = 25 +"),),
    ),
    (
        "power-expression",
        (("#array_sense = 0.030 * duration", "array_sense = nonsense_var"),),
    ),
    ("default-key", (("[geometry]", "[DEFAULT]\nt_sense = 30\n[geometry]"),)),
    ("empty-default", (("[geometry]", "[DEFAULT]\n[geometry]"),)),
    ("signed-zero-idle", (("p_idle_plane = 0", "p_idle_plane = -0"),)),
    # one config for each malformed-config diagnostic
    ("malformed-before-header", (("[geometry]", "channels = 2\n[geometry]"),)),
    ("malformed-duplicate-section", (("[policy]", "[power]\n[policy]"),)),
    ("malformed-duplicate-key", (("t_sense = 25", "t_sense = 25\nT_SENSE: 30"),)),
    ("malformed-neither-header-nor-key", (("channels = 2", "channels 2"),)),
    ("malformed-no-key", (("t_prog = 200", "= 200"),)),
    (
        "dies-overhead-on-bus",
        (
            ("die_serialization = false", "die_serialization = true"),
            ("cmd_overhead_on_bus = false", "cmd_overhead_on_bus = true"),
        ),
    ),
    (
        "signed-zero-energies",
        (
            (
                "#array_sense = 0.030 * duration",
                "\n".join(
                    f"{kind} = (channel - 0.5) * 0.0 * duration"
                    for kind in (
                        "cmd_overhead", "array_sense", "array_program", "block_erase",
                        "bus_transfer_in", "bus_transfer_out", "buffer_copy",
                    )
                ),
            ),
        ),
    ),
)
# (old, new) texts replaced in sample/ssd.ini for the extent traces' second
# config: one address-reading binding and one that fails at every erase
MIXED_PRICING_EDITS = (
    (
        "#array_sense = 25 + 0.001 * block",
        "bus_transfer_out = byte_count * 0.025 + 0.001 * page",
    ),
    ("#array_sense = 0.030 * duration", "block_erase = -duration"),
)
# argvs in the forms the command line reads, with CONFIG and TRACE for
# SPELLING_CONFIG and EDITED_TRACE. argparse answers ANSWERED_FORMS: it
# prints the help or a usage error (a --format outside its choices, a
# missing --trace, a value that looks like an option) and exits. It reads
# abbreviations and runs on; --config=C --trace=T is read without it.
ANSWERED_FORMS = (
    ("--help",),
    ("-h",),
    ("--config", "CONFIG", "--trace", "TRACE", "--format", "json"),
    ("--config", "CONFIG"),
    ("--config", "-x", "--trace", "TRACE"),
)
ARGV_FORMS = (
    *ANSWERED_FORMS,
    ("--conf", "CONFIG", "--tr", "TRACE"),
    ("--config=CONFIG", "--trace=TRACE"),
)
EXTENT_ROUNDS = 3
# microseconds added to every arrival of EDITED_TRACE: starts from just
# below 10^15 ns to above it, and arrivals past 2^63 ns, which the trace
# reader rejects (exit 2 and no report), pinning that rejection
ARRIVAL_SHIFTS_US = (10**12 - 1, 10**16)
# digit sets `int` reads: ASCII, Arabic-Indic and fullwidth
DIGITS = (
    "0123456789",
    "".join(map(chr, range(0x660, 0x66A))),
    "".join(map(chr, range(0xFF10, 0xFF1A))),
)
# whitespace that ends no line; `int` does not strip \x1c-\x1f itself
SPACES = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000")
# pieces that spell no index
BAD_PIECES = ("", "x", "1__0", "_1", "1_", "+-1", "\u00b2", "0x1", "1 0")


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


def simulate(
    src: Path, argv: list[str], cwd: Path, out: Path | None = None
) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout and stderr of one run, and the bytes it wrote to
    `out` (None when it wrote no file there), which is then removed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "flashsim", *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=CASE_TIMEOUT_S,
    )
    written = None
    if out is not None and out.exists():
        written = out.read_bytes()
        out.unlink()
    return proc.returncode, proc.stdout, proc.stderr, written


def digest(outcome: tuple[int, bytes, bytes, bytes | None]) -> str:
    code, out, err, written = outcome
    text = (
        f"exit {code}, stdout {hashlib.sha256(out).hexdigest()}, "
        f"stderr {hashlib.sha256(err).hexdigest()}"
    )
    if written is not None:
        text += f", --out {hashlib.sha256(written).hexdigest()}"
    return text


def spelled(rng: random.Random, value: int) -> str:
    """`value` as one index piece, spelled one of the ways a trace index
    may be."""
    digits = "".join(rng.choice(DIGITS)[int(d)] for d in "0" * rng.randrange(3) + str(value))
    if len(digits) > 1 and rng.random() < 0.3:
        cut = rng.randrange(1, len(digits))
        digits = digits[:cut] + "_" + digits[cut:]
    sign = rng.choice(("", "", "+", "-" if value == 0 else ""))
    before = rng.choice(("", "", rng.choice(SPACES)))
    after = rng.choice(("", "", rng.choice(SPACES)))
    return before + sign + digits + after


def spelling_trace(counts: list[int], seed: int, bad: bool) -> str:
    """A trace of reads, writes, erases and multi-plane reads whose indices
    are spelled in many ways and repeat; with `bad`, every tenth line is
    instead an address that does not parse or is out of range."""
    rng = random.Random(seed)
    lines = ["flashsim-trace v1"]
    for arrival in range(200):
        indices = [rng.randrange(count) for count in counts]
        if bad and arrival % 10 == 9:
            broken = [spelled(rng, i) for i in indices]
            level = rng.randrange(6)
            broken[level] = rng.choice(
                (rng.choice(BAD_PIECES), spelled(rng, counts[level]), f"-{rng.randrange(1, 3)}")
            )
            address = rng.choice(
                (".".join(broken), ".".join(broken[:5]), str(rng.randrange(10**6)), "zz")
            )
            lines.append(f"{arrival},{rng.choice(('read', 'write'))},{address}")
            continue
        kind = rng.choice(("read", "write", "erase", "multi_plane_read"))
        if kind == "multi_plane_read":
            planes = rng.sample(range(counts[3]), rng.randint(1, counts[3]))
            separator = rng.choice((";", " ; ", ";;", "\x1c;"))
            address = separator.join(
                ".".join(spelled(rng, i) for i in indices[:3] + [p] + indices[4:])
                for p in sorted(planes)
            )
        else:
            address = ".".join(spelled(rng, i) for i in indices)
        lines.append(f"{arrival},{kind},{address}")
    return "\n".join(lines) + "\n"


def extent_trace(counts: list[int], seed: int) -> str:
    """Rounds of cache reads and writes whose extents rise from one page to
    the block length and fall back to one, each round ending with an erase
    and a read, at random places and arrivals."""
    rng = random.Random(seed)
    pages = counts[5]
    lines = ["flashsim-trace v1"]
    arrival = 0

    def add(kind: str, page: int, extent: str = "") -> None:
        nonlocal arrival
        indices = [rng.randrange(count) for count in counts[:5]] + [page]
        lines.append(f"{arrival},{kind},{'.'.join(map(str, indices))}{extent}")
        arrival += rng.randrange(30)

    for _ in range(EXTENT_ROUNDS):
        for n in [*range(1, pages + 1), *range(pages, 0, -1)]:
            kind = rng.choice(("cache_read", "cache_write"))
            add(kind, rng.randrange(pages - n + 1), f",{n}")
        add("erase", 0)
        add("read", rng.randrange(pages))
    return "\n".join(lines) + "\n"


def edited_config(edits: Iterable[tuple[str, str]], name: str) -> str:
    """`SPELLING_CONFIG`'s text with each (old, new) edit made; exits when
    an old text is not there exactly once."""
    text = SPELLING_CONFIG.read_text(encoding="utf-8")
    for old, new in edits:
        if text.count(old) != 1:
            raise SystemExit(f"{SPELLING_CONFIG}: no single '{old}' for {name}")
        text = text.replace(old, new)
    return text


def shifted_trace(text: str, shift_us: int) -> str:
    """`text` with `shift_us` added to each command's whole-microsecond
    arrival."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], 1):
        if line and not line.startswith("#"):
            arrival, rest = line.split(",", 1)
            lines[i] = f"{int(arrival) + shift_us},{rest}"
    return "\n".join(lines) + "\n"


def workload_inputs(work: Path, seeds: list[int]) -> list[tuple[str, object, Path, Path]]:
    """(label, workload, config, trace) for each benchmark workload and
    seed; writes the config and trace under `work`."""
    out = []
    for name, workload in load_workloads().items():
        for seed in seeds:
            inputs = work / f"{name}-{seed}"
            inputs.mkdir()
            config, trace = inputs / "config.ini", inputs / "workload.trace"
            config.write_text(workload.config)
            trace.write_text(workload.make_trace(seed, workload.commands))
            out.append((f"{name} seed {seed}", workload, config, trace))
    return out


def input_sets(
    work: Path, seeds: list[int], workloads: list[tuple[str, object, Path, Path]]
) -> list[tuple[str, Path, Path]]:
    """(label, config, trace) for every input: the `workloads`' and the
    others, whose generated files are written under `work`."""
    out = [(label, config, trace) for label, _, config, trace in workloads]
    configs = [path for folder in DATA_FOLDERS for path in sorted(folder.glob("*.ini"))]
    traces = [path for folder in DATA_FOLDERS for path in sorted(folder.glob("*.trace"))]
    for config in configs:
        for trace in traces:
            out.append((f"{config.name} {trace.name}", config, trace))
    geometry = configparser.ConfigParser(interpolation=None)
    geometry.read(SPELLING_CONFIG, encoding="utf-8")
    counts = [
        int(geometry["geometry"][key])
        for key in (
            "channels", "chips_per_channel", "dies_per_chip",
            "planes_per_die", "blocks_per_plane", "pages_per_block",
        )
    ]
    for seed in seeds:
        for bad in (False, True):
            trace = work / f"spellings-{'bad' if bad else 'good'}-{seed}.trace"
            trace.write_text(spelling_trace(counts, seed, bad), encoding="utf-8")
            out.append((f"{SPELLING_CONFIG.name} {trace.name}", SPELLING_CONFIG, trace))
    mixed_pricing = work / "ssd-mixed-pricing.ini"
    mixed_pricing.write_text(
        edited_config(MIXED_PRICING_EDITS, "mixed-pricing"), encoding="utf-8"
    )
    for seed in seeds:
        trace = work / f"extents-{seed}.trace"
        trace.write_text(extent_trace(counts, seed), encoding="utf-8")
        for config in (SPELLING_CONFIG, mixed_pricing):
            out.append((f"{config.name} {trace.name}", config, trace))
    for name, edits in CONFIG_EDITS:
        config = work / f"ssd-{name}.ini"
        config.write_text(edited_config(edits, name), encoding="utf-8")
        out.append((f"{config.name} {EDITED_TRACE.name}", config, EDITED_TRACE))
    for shift in ARRIVAL_SHIFTS_US:
        trace = work / f"mixed-later-by-{shift}.trace"
        trace.write_text(shifted_trace(EDITED_TRACE.read_text(encoding="utf-8"), shift))
        out.append((f"{SPELLING_CONFIG.name} {trace.name}", SPELLING_CONFIG, trace))
    return out


def form_argv(form: tuple[str, ...]) -> list[str]:
    """The argv of one of ARGV_FORMS."""
    return [
        arg.replace("CONFIG", str(SPELLING_CONFIG)).replace("TRACE", str(EDITED_TRACE))
        for arg in form
    ]


def cases(work: Path, seeds: list[int], out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for every case, in the order they run: each input under
    each of FLAG_SETS, each workload's own argv, which writes its report to
    `out`, and each of ARGV_FORMS. Writes the generated inputs under `work`."""
    workloads = workload_inputs(work, seeds)
    out_cases = [
        (
            f"{name} {' '.join(flags) or '(no flag)'}",
            ["--config", str(config), "--trace", str(trace), *flags],
        )
        for name, config, trace in input_sets(work, seeds, workloads)
        for flags in FLAG_SETS
    ]
    out_cases += [
        (f"{name} perfbench argv", workload.argv(str(config), str(trace), str(out)))
        for name, workload, config, trace in workloads
    ]
    out_cases += [(f"argv {' '.join(form)}", form_argv(form)) for form in ARGV_FORMS]
    return out_cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    differing = total = 0
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        theirs = extract_src(args.rev, work / "rev")
        ours = ROOT / "src"
        out = work / "report.out"
        for label, argv in cases(work, args.seeds, out):
            before = simulate(theirs, argv, work, out)
            after = simulate(ours, argv, work, out)
            total += 1
            if before == after:
                print(f"same     {label}: {digest(after)}")
                continue
            differing += 1
            print(f"DIFFERS  {label}")
            print(f"  {args.rev}: {digest(before)}")
            print(f"  checkout: {digest(after)}")
    print(f"{differing} of {total} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
