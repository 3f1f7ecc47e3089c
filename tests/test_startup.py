"""Importing the package stays cheap: no dataclass machinery at start-up.

Every run of the tool pays for `import flashsim`. The `dataclasses` module
pulls in `inspect`, `ast`, `dis` and `tokenize`, and each `@dataclass`
compiles its generated methods at import, which once made up most of the
start-up time. The package's records are named tuples and plain classes,
and this guard keeps it that way.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_dataclasses():
    # -I: a fresh interpreter that ignores PYTHON* variables and user site
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import flashsim, flashsim.cli; print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
