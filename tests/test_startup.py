"""Importing the package stays cheap: it loads no module the tool does not
need to start, and it compiles no annotation text.

Every run of the tool pays for `import flashsim`. The `dataclasses` module
pulls in `inspect`, `ast`, `dis` and `tokenize`, and each `@dataclass`
compiles its generated methods at import, which once made up most of the
start-up time; `json` (with its regular expressions), `pathlib` and
`decimal` cost milliseconds more, and `typing.NamedTuple` compiles each
field's annotation into a `ForwardRef`. The package's records are named
tuples declared on `errors.Record`, which keeps their annotations as text;
its annotations name the abstract types of `collections.abc`, so it loads
no `typing` (some 5 ms of its own); and its report writer renders JSON
itself. The config has a reader of the package's own, and the command
line reads the usual argv without `argparse`, which it imports only for help and usage errors; so a run
loads none of `configparser`, `argparse`, `gettext` and `locale`. These
guards keep it that way: they check which modules are loaded, and time
nothing, and they check that
a record declared on `Record` is the class `typing.NamedTuple` builds from
the same body. The first probe also checks that importing the package
leaves Python's cyclic collector on: only a `cli.main` run pauses it, and
only while it runs.
"""

from __future__ import annotations

import subprocess
import sys
import typing
from pathlib import Path

import pytest

from flashsim.errors import Record

SRC = Path(__file__).resolve().parent.parent / "src"


def _probe(flags: list[str], code: str) -> str:
    """What a fresh interpreter run with `flags` prints after importing
    the package and running `code`."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import flashsim, flashsim.cli\n"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe + code],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_dataclasses():
    # -I: a fresh interpreter that ignores PYTHON* variables and user site
    out = _probe(["-I"], "import gc; print('dataclasses' in sys.modules, gc.isenabled())")
    assert out == "False True"


def test_import_loads_no_json_pathlib_decimal_or_dataclasses():
    # -S as well: no site module, so no .pth file preloads a module that
    # the package would otherwise be the one to load
    out = _probe(
        ["-I", "-S"],
        "print(sorted({'json', 'pathlib', 'decimal', 'dataclasses', 'typing'}"
        " & set(sys.modules)))",
    )
    assert out == "[]"


def test_a_run_loads_no_configparser_or_argparse(tmp_path):
    # the config has a reader of flashsim's own, and a canonical argv is
    # read without argparse, which would import gettext and locale as well
    data = SRC.parent / "tests" / "data"
    inputs = ["--config", str(data / "fixture.ini"), "--trace", str(data / "single_read.trace")]
    events = [*inputs, "--events", "--out", str(tmp_path / "r.json")]
    out = _probe(
        ["-I", "-S"],
        "import contextlib, io\n"
        "from flashsim import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.main({events!r}), cli.main({[*inputs, '--check']!r})]\n"
        "parsers = {'configparser', 'argparse', 'gettext', 'locale'}\n"
        "print(codes, sorted(parsers & set(sys.modules)))",
    )
    assert out == "[0, 0] []"
    assert (tmp_path / "r.json").read_text().startswith("{")


# the whole --help text at 80 columns: each option of `cli._OPTIONS` in its
# order, with its help and choices
HELP = """\
usage: flashsim [-h] --config CONFIG --trace TRACE
                [--format {structured,table}] [--events] [--check] [--strict]
                [--out OUT]

Trace-driven latency and energy simulator for NAND flash subsystems.

options:
  -h, --help            show this help message and exit
  --config CONFIG       configuration file (INI)
  --trace TRACE         command trace file
  --format {structured,table}
                        report format (default: structured JSON)
  --events              append the per-event log to the report
  --check               validate the trace against the config and constraints;
                        no simulation
  --strict              treat constraint warnings as fatal
  --out OUT             write the report to this file instead of stdout
"""


def test_help_is_argparse_s():
    out = _probe(
        ["-I", "-S"],
        "import contextlib, io, os\n"
        "from flashsim import cli\n"
        "os.environ['COLUMNS'] = '80'  # argparse wraps its help to the terminal\n"
        "help = io.StringIO()\n"
        "try:\n"
        "    with contextlib.redirect_stdout(help):\n"
        "        cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
        "    print(help.getvalue(), end='')",
    )
    assert out == "0 True\n" + HELP.rstrip("\n")


def test_record_annotations_stay_text():
    out = _probe(
        ["-I", "-S"],
        "records = [cls for name, module in list(sys.modules.items())\n"
        "           if name.startswith('flashsim.')\n"
        "           for cls in vars(module).values()\n"
        "           if isinstance(cls, type) and issubclass(cls, tuple)\n"
        "           and cls.__module__ == name and '_fields' in vars(cls)]\n"
        "compiled = sorted(cls.__qualname__ for cls in records\n"
        "                  if not all(isinstance(a, str) for a in cls.__annotations__.values()))\n"
        "print(len(records), compiled)",
    )
    count, compiled = out.split(" ", 1)
    assert int(count) > 0
    assert compiled == "[]"


class _Typed(typing.NamedTuple):
    """A record of typing's making."""

    count: int
    names: tuple[str, ...] = ()
    line: int | None = None

    def first(self) -> str:
        return self.names[0]

    @property
    def twice(self) -> int:
        return 2 * self.count


class _Built(Record):
    """A record of typing's making."""

    count: int
    names: tuple[str, ...] = ()
    line: int | None = None

    def first(self) -> str:
        return self.names[0]

    @property
    def twice(self) -> int:
        return 2 * self.count


def test_a_record_is_the_named_tuple_typing_builds():
    assert _Built.__bases__ == _Typed.__bases__ == (tuple,)
    assert _Built._fields == _Typed._fields
    assert _Built._field_defaults == _Typed._field_defaults
    assert _Built.__doc__ == _Typed.__doc__
    assert _Built.__annotations__ == {
        "count": "int", "names": "tuple[str, ...]", "line": "int | None"
    }
    assert typing.get_type_hints(_Built) == typing.get_type_hints(_Typed)
    for record in (_Typed, _Built):
        made = record._make([3, ("a", "b"), None])
        assert made == (3, ("a", "b"), None) == record(3, ("a", "b"))
        assert made._replace(line=7) == (3, ("a", "b"), 7)
        assert made._asdict() == {"count": 3, "names": ("a", "b"), "line": None}
        assert (made.first(), made.twice, record(1)) == ("a", 6, (1, (), None))


def test_a_record_rejects_a_field_without_default_after_one_with():
    with pytest.raises(TypeError) as typed:
        class _T(typing.NamedTuple):
            a: int = 0
            b: int
    with pytest.raises(TypeError) as built:
        class _B(Record):
            a: int = 0
            b: int
    assert str(built.value) == str(typed.value)
