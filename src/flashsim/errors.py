"""Exception types and validation diagnostics shared across the simulator,
and `Record`, the base every record of the package is declared on."""

from __future__ import annotations

from collections import _tuplegetter
from enum import Enum
from types import CodeType, FunctionType


# The methods every record shares. A named tuple's are closures over its
# fields, made anew for each class; these read the fields from `_fields`.
def _make(cls, iterable):
    """Make a record from a sequence or iterable of one value per field."""
    result = tuple.__new__(cls, iterable)
    if len(result) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
    return result


def _checked_make(cls, iterable):
    """A checked record's `_make`: `_make`, then the body's `_check`."""
    self = _make(cls, iterable)
    cls._check(self)
    return self


def _checked_tuple(cls, values):
    """A checked record's constructor builds through this: the tuple of
    `values`, then the body's `_check`."""
    self = tuple.__new__(cls, values)
    cls._check(self)
    return self


def _replace(self, /, **changes):
    """Return a new record replacing the named fields with new values."""
    result = self._make(map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return result


def _asdict(self):
    """Return a new dict which maps field names to their values."""
    return dict(zip(self._fields, self))


def _repr(self):
    """Return a nicely formatted representation string."""
    return f"{type(self).__name__}({', '.join(map('%s=%r'.__mod__, zip(self._fields, self)))})"


def _getnewargs(self):
    """Return self as a plain tuple.  Used by copy and pickle."""
    return tuple(self)


# The code of a record's `__new__` for each count of fields, compiled once
# with positional parameter names that each record renames to its fields.
# `_tuple` is a global of the function built on it: `tuple.__new__`, or
# `_checked_tuple` for a checked record.
_NEW_CODES: dict[int, CodeType] = {}
_PLAIN_GLOBALS = {"_tuple": tuple.__new__}
_CHECKED_GLOBALS = {"_tuple": _checked_tuple}


def _new_code(count: int) -> CodeType:
    code = _NEW_CODES.get(count)
    if code is None:
        names = [f"_{index}" for index in range(count)]
        parameters = ", ".join(["_cls", *names])
        values = "".join(f"{name}, " for name in names)
        function = eval(f"lambda {parameters}: _tuple(_cls, ({values}))", {})
        code = _NEW_CODES[count] = function.__code__.replace(co_name="__new__")
    return code


class _RecordMeta(type):
    """Builds a class declared on `Record` as the named tuple that
    `typing.NamedTuple` builds from the same body: a `tuple` subclass with
    the same fields, defaults, docstring, methods and properties, and a C
    accessor per field. Its annotations stay the text the body wrote, which
    `typing.get_type_hints` still resolves; typing would compile each of
    them at import.

    The class is built here, not by `collections.namedtuple`, which compiles
    a `__new__` from source for each class. Its `__new__` runs the code
    `_new_code` compiled once for its count of fields, with the parameters
    renamed to its fields and its defaults attached, so keywords, defaults
    and `inspect.signature` work as a named tuple's do; its `_make`,
    `_replace`, `_asdict`, `__repr__` and `__getnewargs__` are the functions
    above, shared by every record.

    A body that defines `_check(self)` declares a checked record: its
    constructor and its `_make`, and so `_replace`, call `_check` on the
    built tuple, which raises to reject its values. `_make` otherwise takes
    exactly one value per field, defaults or not, as a named tuple's does."""

    def __new__(mcls, typename: str, bases: tuple, namespace: dict) -> type:
        annotations = namespace.get("__annotations__", {})
        fields = tuple(annotations)
        defaulted: list[str] = []
        for field in fields:
            if field in namespace:
                defaulted.append(field)
            elif defaulted:
                raise TypeError(
                    f"Non-default namedtuple field {field} cannot follow default "
                    f"field{'s' if len(defaulted) > 1 else ''} {', '.join(defaulted)}"
                )
        for field in fields:
            if field.startswith("_"):
                raise ValueError(f"Field names cannot start with an underscore: {field!r}")
        defaults = tuple(namespace[field] for field in defaulted)
        checked = "_check" in namespace
        new = FunctionType(
            _new_code(len(fields)).replace(co_varnames=("_cls", *fields)),
            _CHECKED_GLOBALS if checked else _PLAIN_GLOBALS,
            "__new__",
            defaults,
        )
        arguments = ", ".join(fields) + ("," if len(fields) == 1 else "")
        new.__qualname__ = f"{typename}.__new__"
        new.__doc__ = f"Create new instance of {typename}({arguments})"
        new.__annotations__ = annotations
        body = {
            "__doc__": f"{typename}({arguments})",
            "__slots__": (),
            "_fields": fields,
            "_field_defaults": dict(zip(defaulted, defaults)),
            "__new__": new,
            "_make": classmethod(_checked_make if checked else _make),
            "_replace": _replace,
            "__repr__": _repr,
            "_asdict": _asdict,
            "__getnewargs__": _getnewargs,
            "__match_args__": fields,
        }
        for index, field in enumerate(fields):
            body[field] = _tuplegetter(index, f"Alias for field number {index}")
        # the body's docstring, methods and properties, and its
        # __annotations__; a field's default is already the record's
        for key, value in namespace.items():
            if key not in annotations:
                body[key] = value
        return type(typename, (tuple,), body)


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
