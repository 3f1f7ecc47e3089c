"""Trace-driven latency and energy simulator for NAND flash storage subsystems."""

from .commands import (
    Command,
    CommandKind,
    EventKind,
    validate,
)
from .engine import (
    CommandResult,
    Policy,
    RunResult,
    ScheduledEvent,
    idle_accounting,
    replay,
    run,
)
from .errors import (
    FlashSimError,
    Rule,
    Severity,
    TraceOrderError,
    TraceParseError,
    ValidationFatal,
    Violation,
)
from .expr import Expression, parse_expression
from .models import ModelSet, PowerParams, TimingParams
from .stats import Report, build_report, emit, write_report
from .topology import (
    FlashAddress,
    Geometry,
    PageState,
    Resource,
    SubsystemState,
    decode,
    encode,
    validate_geometry,
)
from .trace_io import Config, emit_trace, parse_config, parse_trace

__version__ = "0.1.0"

__all__ = [
    "Command",
    "CommandKind",
    "CommandResult",
    "Config",
    "EventKind",
    "Expression",
    "FlashAddress",
    "FlashSimError",
    "Geometry",
    "ModelSet",
    "PageState",
    "Policy",
    "PowerParams",
    "Report",
    "Resource",
    "Rule",
    "RunResult",
    "ScheduledEvent",
    "Severity",
    "SubsystemState",
    "TimingParams",
    "TraceOrderError",
    "TraceParseError",
    "ValidationFatal",
    "Violation",
    "build_report",
    "decode",
    "emit",
    "emit_trace",
    "encode",
    "idle_accounting",
    "parse_config",
    "parse_expression",
    "parse_trace",
    "replay",
    "run",
    "validate",
    "validate_geometry",
    "write_report",
]
