"""Exception types and validation diagnostics shared across the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class FlashSimError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(FlashSimError):
    """Geometry invariant broken (zero dimension, index-domain overflow)."""


class AddressRangeError(FlashSimError):
    """An address index lies outside the configured geometry."""


class ConfigError(FlashSimError):
    """Configuration file rejected (missing section/key, unknown key, bad value)."""


class TraceParseError(FlashSimError):
    """One or more trace lines failed to parse. Collects every diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"line {d.line}: {d.message}" for d in self.diagnostics))


class ExpressionSyntaxError(FlashSimError):
    """Model expression text rejected by the parser; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class UnknownIdentifierError(FlashSimError):
    """Model expression references a variable that is not defined for its context."""

    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier '{name}' (at offset {position})")


class ModelEvaluationError(FlashSimError):
    """A model binding failed to price an event, or an energy total overflowed.

    `key` names the binding as ``[section] key`` of the config, or the
    overflowing total after ``[power]``; `line` is the trace line of the
    command whose event failed, once the engine has located it.
    """

    def __init__(self, key: str, detail: str, line: int | None = None):
        self.key = key
        self.detail = detail
        self.line = line
        super().__init__(f"{key}: {detail}")

    def located(self, line: int | None, event: str) -> ModelEvaluationError:
        """Copy naming the event being priced and its command's trace line."""
        return type(self)(self.key, f"{self.detail} for {event}", line)


class NegativeResultError(ModelEvaluationError):
    """A model binding evaluated to a negative, NaN or infinite latency or energy."""


class ValidationFatal(FlashSimError):
    """A command failed validation fatally; carries the offending violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class TraceOrderError(FlashSimError):
    """Command stream handed to the engine is not sorted by arrival time."""


@dataclass(frozen=True)
class Diagnostic:
    """A per-line parse problem, reported with its 1-based line number."""

    line: int
    message: str


class Rule(Enum):
    """Identifiers for every check validate() and the state machine can flag."""

    UNSUPPORTED_COMMAND = "unsupported_command"
    ADDRESS_RANGE = "address_range"
    COPY_BACK_CROSS_PLANE = "copy_back_cross_plane"
    COPY_BACK_PARITY = "copy_back_parity"
    MULTI_PLANE_SHAPE = "multi_plane_shape"
    INTERLEAVE_SHAPE = "interleave_shape"
    CACHE_EXTENT = "cache_extent"
    ERASE_BEFORE_WRITE = "erase_before_write"
    ENDURANCE_EXCEEDED = "endurance_exceeded"


class Severity(Enum):
    # errors are always fatal; warnings escalate to fatal only under strict policy
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Violation:
    """One flagged constraint or structural problem on a command."""

    rule: Rule
    severity: Severity
    message: str
    sequence_id: int | None = None
    line: int | None = None

    def located(self, sequence_id: int | None, line: int | None) -> Violation:
        """Copy with command provenance filled in for diagnostics."""
        return Violation(self.rule, self.severity, self.message, sequence_id, line)
