"""Simulated identity statistics, read back from the bytes a run produced.

They are taken from the report and the diagnostics rather than from library
objects, so they depend only on the output formats that every change must
keep byte-identical. A statistic the output does not carry is ``None``: the
table report has no event log, and ``--check`` prints only a summary line.
"""

from __future__ import annotations

import json
import re

_TABLE_HEAD = re.compile(
    rb"^commands: (\d+)\s+makespan: ([0-9.]+) us\s+total energy: ([0-9.]+) uJ", re.M
)
_TABLE_WARNINGS = re.compile(rb"^warnings \((\d+)\)$", re.M)
_CHECK_SUMMARY = re.compile(rb"^checked (\d+) commands: (\d+) errors, (\d+) warnings$", re.M)

SIM_KEYS = ("commands", "events", "makespan_us", "total_energy_uj", "warnings")


def sim_stats(report: bytes, stderr: bytes) -> dict:
    """The sim.* statistics of one run, keyed without the ``sim.`` prefix."""
    out = dict.fromkeys(SIM_KEYS)
    if report.startswith(b"{"):
        doc = json.loads(report)
        out.update(
            commands=doc["command_count"],
            makespan_us=doc["makespan_us"],
            total_energy_uj=doc["total_energy_uj"],
            warnings=len(doc["warnings"]),
        )
        if "events" in doc:
            out["events"] = len(doc["events"])
    elif report:
        head = _TABLE_HEAD.search(report)
        if head:
            out.update(
                commands=int(head[1]),
                makespan_us=float(head[2]),
                total_energy_uj=float(head[3]),
            )
        warnings = _TABLE_WARNINGS.search(report)
        out["warnings"] = int(warnings[1]) if warnings else 0
    else:
        summary = _CHECK_SUMMARY.search(stderr)
        if summary:
            out.update(commands=int(summary[1]), warnings=int(summary[3]))
    return out
