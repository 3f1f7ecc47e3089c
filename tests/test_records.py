"""The records and enums of the package, as `flashsim.errors` declares them.

Every record's `_make` takes exactly one value per field, as a named
tuple's does. A record whose body defines `_check` is a checked record:
its signature lists its fields and their defaults, and it rejects an
invalid value with the same `ValueError` text whether it is built, made
with `_make` or copied with `_replace`. Every enum of the package hashes its members by identity.
The classes are found in the package's modules, so a record or enum added
later is held to the same contract.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import math
import pkgutil

import pytest

import flashsim
from flashsim.commands import Command, CommandKind
from flashsim.models import PowerParams, TimingParams

from conftest import A

MODULES = [
    importlib.import_module(f"flashsim.{info.name}")
    for info in pkgutil.iter_modules(flashsim.__path__)
    if info.name != "__main__"
]
CLASSES = [
    cls
    for module in MODULES
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__
]
RECORDS = [cls for cls in CLASSES if issubclass(cls, tuple)]
CHECKED = [cls for cls in RECORDS if "_check" in vars(cls)]
ENUMS = [cls for cls in CLASSES if issubclass(cls, enum.Enum)]

READ = Command(0, CommandKind.READ, (A(),))
# (a valid record, a change of fields that its check rejects, the text)
INVALID = [
    (READ, {"arrival_ns": -1}, "arrival time must be >= 0"),
    (READ, {"arrival_ns": 2**63}, "arrival time must be below 2**63 ns"),
    (READ, {"operands": ()}, "read takes exactly 1 operand, got 0"),
    (READ, {"page_count": 2}, "read does not take a page count"),
    (
        Command(0, CommandKind.CACHE_READ, (A(),), 4),
        {"page_count": 0},
        "page_count must be >= 1, got 0",
    ),
    (TimingParams(), {"t_sense": -1.0}, "t_sense must be finite and >= 0, got -1.0"),
    (PowerParams(), {"p_bus": math.nan}, "p_bus must be finite and >= 0, got nan"),
    (PowerParams(), {"p_idle_bus": math.inf}, "p_idle_bus must be finite and >= 0, got inf"),
]


def test_the_checked_records_are_found():
    assert {"Command", "TimingParams", "PowerParams"} <= {cls.__name__ for cls in CHECKED}
    assert {type(valid) for valid, _, _ in INVALID} == set(CHECKED)


@pytest.mark.parametrize("record", CHECKED, ids=lambda cls: cls.__name__)
def test_a_checked_record_signature_lists_its_fields(record):
    parameters = inspect.signature(record).parameters
    assert tuple(parameters) == record._fields
    defaults = {
        name: p.default for name, p in parameters.items() if p.default is not p.empty
    }
    assert defaults == record._field_defaults


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_make_takes_exactly_one_value_per_field(record):
    n = len(record._fields)
    with pytest.raises(TypeError) as caught:
        record._make(range(n - 1))
    assert str(caught.value) == f"Expected {n} arguments, got {n - 1}"


@pytest.mark.parametrize("valid, change, text", INVALID)
def test_every_way_of_building_runs_the_same_check(valid, change, text):
    record = type(valid)
    assert record(*valid) == record._make(valid) == valid._replace() == valid
    values = [change.get(name, value) for name, value in zip(record._fields, valid)]
    for build in (
        lambda: record(*values),
        lambda: record(**dict(zip(record._fields, values))),
        lambda: record._make(values),
        lambda: record._make(iter(values)),
        lambda: valid._replace(**change),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == text


def test_every_enum_hashes_by_identity():
    names = {cls.__name__ for cls in ENUMS}
    assert {"CommandKind", "EventKind", "PageState", "Rule", "Severity"} <= names
    for cls in ENUMS:
        assert cls.__hash__ is object.__hash__, cls.__name__
        for member in cls:
            assert hash(member) == object.__hash__(member)
