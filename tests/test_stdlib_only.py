"""The package runs on the standard library alone.

The CLI is imported in a fresh interpreter started with ``-I -S``: no
site-packages on ``sys.path``, no ``PYTHON*`` environment variables, and
only ``src`` added.  A third-party import would fail there, and a test
dependency imported lazily would show up in ``sys.modules``.  ``-B``
keeps it from writing bytecode into ``src``: ``-I`` ignores
``PYTHONDONTWRITEBYTECODE``.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from hodgeideals.cli import main
code = main(["parse", "--vars", "x,y", "x + y"])
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] in ("sympy", "hypothesis", "pytest"))
print(code, loaded)
"""


def test_cli_parse_loads_no_third_party_module():
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", SCRIPT.format(src=str(SRC))],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["x + y", "0 []"]
