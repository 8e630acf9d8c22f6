"""Child interpreters that the tests start (``python -m opideal``) import the
package from ``src/``, like the test process itself, so a bare ``pytest``
runs the whole suite without PYTHONPATH set."""

import collections
import importlib.util
import os
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
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


@pytest.fixture(scope="session")
def bench_requests(tmp_path_factory):
    """The requests of the cli-small and matrix-large benchmark workloads at
    seed 3, by (workload, argv with file names for paths), inputs written
    under a temporary root."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  _ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    root = tmp_path_factory.mktemp("workloads")
    built = {}
    try:    # its dataclasses look their module up in sys.modules
        spec.loader.exec_module(workloads)
        for name in ("cli-small", "matrix-large"):
            reqs, _ = workloads.build(name, 3, str(root), name)
            for r in reqs:
                label = " ".join(os.path.basename(a) for a in r.argv)
                built[name, label] = [os.path.join(root, a) if a.startswith(name + os.sep)
                                      else a for a in r.argv]
    finally:
        del sys.modules[spec.name]
    return built
