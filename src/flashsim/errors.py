"""Exception types and validation diagnostics shared across the simulator,
and `Record`, the base every record of the package is declared on."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import wraps


class _RecordMeta(type):
    """Builds a class declared on `Record` as the `collections.namedtuple`
    that `typing.NamedTuple` builds from the same body: the same fields,
    defaults, docstring, methods and properties. Its annotations stay the
    text the body wrote, which `typing.get_type_hints` still resolves;
    typing would compile each of them at import.

    A body that defines `_check(self)` declares a checked record: its
    constructor and its `_make`, and so `_replace`, call `_check` on the
    built tuple, which raises to reject its values. `_make` is otherwise the
    named tuple's own, so it takes exactly one value per field, defaults or
    not. The constructor is wrapped with `functools.wraps`, so
    `inspect.signature` still lists the fields."""

    def __new__(mcls, typename: str, bases: tuple, namespace: dict) -> type:
        annotations = namespace.get("__annotations__", {})
        defaulted: list[str] = []
        for field in annotations:
            if field in namespace:
                defaulted.append(field)
            elif defaulted:
                raise TypeError(
                    f"Non-default namedtuple field {field} cannot follow default "
                    f"field{'s' if len(defaulted) > 1 else ''} {', '.join(defaulted)}"
                )
        record = namedtuple(
            typename,
            annotations,
            defaults=[namespace[field] for field in defaulted],
            module=namespace["__module__"],
        )
        record.__new__.__annotations__ = annotations
        # the body's docstring, methods and properties, and its
        # __annotations__; a field's default is already the record's
        for key, value in namespace.items():
            if key not in annotations:
                setattr(record, key, value)
        check = namespace.get("_check")
        if check is not None:
            new, make = record.__new__, record._make.__func__

            @wraps(new)
            def checked_new(cls, *args, **kwargs):
                self = new(cls, *args, **kwargs)
                check(self)
                return self

            @wraps(make)
            def checked_make(cls, iterable):
                self = make(cls, iterable)
                check(self)
                return self

            record.__new__ = staticmethod(checked_new)
            record._make = classmethod(checked_make)
        return record


# `class R(Record):` with annotated fields declares a named tuple, as
# `class R(typing.NamedTuple):` does.
Record = type.__new__(_RecordMeta, "Record", (), {"__module__": __name__})


class FlashSimError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(FlashSimError):
    """Geometry invariant broken (zero dimension, index-domain overflow)."""


class AddressRangeError(FlashSimError):
    """An address index lies outside the configured geometry."""


class ConfigError(FlashSimError):
    """Configuration file rejected (missing section/key, unknown key, bad value).

    `line` is the config line a malformed-syntax error was found on; the
    other config errors carry none.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)


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


class Diagnostic(Record):
    """A per-line parse problem, reported with its 1-based line number."""

    line: int
    message: str


class IdentityEnum(Enum):
    """Base of the package's enums, whose members hash by identity: they are
    singletons compared by identity, so the C identity hash fits, where
    Enum's own __hash__ hashes the name in Python. No output iterates a set
    of members, so their order in a set is never seen."""

    __hash__ = object.__hash__


class Rule(IdentityEnum):
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


class Severity(IdentityEnum):
    # errors are always fatal; warnings escalate to fatal only under strict policy
    WARNING = "warning"
    ERROR = "error"


class Violation(Record):
    """One flagged constraint or structural problem on a command."""

    rule: Rule
    severity: Severity
    message: str
    sequence_id: int | None = None
    line: int | None = None

    def located(self, sequence_id: int | None, line: int | None) -> Violation:
        """Copy with command provenance filled in for diagnostics."""
        return Violation(self.rule, self.severity, self.message, sequence_id, line)
