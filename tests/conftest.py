"""Child interpreters that the tests start (``python -m opideal``) import the
package from ``src/``, like the test process itself, so a bare ``pytest``
runs the whole suite without PYTHONPATH set."""

import collections
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def op_counts(monkeypatch):
    """Counts, while the test runs, of rotations into ("in") and out of
    ("out") the adapted basis of a non-standard flag, and of the numpy.linalg
    calls svd, solve, qr and eigh."""
    import numpy as np
    from opideal.nest import Flag

    counts = collections.Counter()

    def counting(name, fn, rotation):
        def wrapper(*args, **kwargs):
            if not (rotation and args[0].is_standard):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, method in (("in", "to_adapted"), ("out", "from_adapted")):
        monkeypatch.setattr(Flag, method, counting(name, getattr(Flag, method), True))
    for name in ("svd", "solve", "qr", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name), False))
    return counts
