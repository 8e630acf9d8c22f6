"""Child interpreters that the tests start (``python -m opideal``) import the
package from ``src/``, like the test process itself, so a bare ``pytest``
runs the whole suite without PYTHONPATH set."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
