"""Every run of the command line, over every subcommand, loader and flag,
ends with exit 0 and a report or exit 1 and a structured error report:
never a traceback.  Inputs are small (n <= 6, group order <= 16, --cap <=
16, --trials <= 4), well formed and malformed alike."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opideal import InputError
from opideal.classical import CLASSICAL_TYPES, default_structure, random_group_element
from opideal.cli import main
from opideal.serialize import matrix_to_obj
from opideal.utils import crandn

_FIELDS = ["rows", "cols", "data", "basis", "dims", "order", "table", "labels",
           "weights"]
_SCALAR = (st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=4)
           | st.sampled_from([0.5, -1.0, 1e300, math.inf, math.nan]))
_JUNK_JSON = st.recursive(
    _SCALAR, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=4), max_leaves=10)
_JUNK_TEXT = st.sampled_from(["", "{", "[1, 2", "nan", "[" * 5000, "\x00"])
_INTS = st.integers(-2, 8)
_SMALL = st.integers(-2, 16)


def _int_list(draw, elements=_INTS, max_size=4):
    """A comma list of integers, or text that is none."""
    if draw(st.booleans()):
        return ",".join(map(str, draw(st.lists(elements, max_size=max_size))))
    return draw(st.sampled_from(["", ",", "x", "1,,2", "2.5", "1e3", " 3 "]))


def _shape(draw, n):
    """n x n three times in four, else any shape up to 6 x 6."""
    return _often(draw, lambda: (n, n),
                  lambda: (draw(st.integers(1, 6)), draw(st.integers(1, 6))))


def _matrix(draw, rows, cols):
    """Matrix JSON of a drawn kind; the square kinds need a square shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["gauss", "pd", "eye", "unitary", "rank1", "zero",
                                 "huge", "tiny"]))
    g = crandn(rng, rows, cols)
    if kind == "pd" and rows == cols:
        g = g.conj().T @ g + np.eye(rows)
    elif kind == "eye" and rows == cols:
        g = np.eye(rows, dtype=complex)
    elif kind == "unitary" and rows == cols:
        g = np.linalg.qr(g)[0]
    elif kind == "rank1":
        g = np.outer(g[:, 0], g[0].conj())
    elif kind == "zero":
        g = np.zeros_like(g)
    elif kind in ("huge", "tiny"):
        g = g * (1e300 if kind == "huge" else 1e-300)
    return matrix_to_obj(g)


def _matrix_file(draw, d, name, n):
    obj = draw(st.sampled_from(["matrix", "matrix", "matrix", "junk", "text",
                                "special", "short"]))
    if obj == "junk":
        return _write(d, name, json.dumps(draw(_JUNK_JSON)))
    if obj == "text":
        return _write(d, name, draw(_JUNK_TEXT))
    m = _matrix(draw, *_shape(draw, n))
    if obj == "special":
        m["data"][draw(st.integers(0, len(m["data"]) - 1))][0] = draw(
            st.sampled_from([math.inf, math.nan, "1", True, None]))
    elif obj == "short":
        m["data"].pop()
    return _write(d, name, json.dumps(m))


def _flag_file(draw, d, n):
    dims = sorted(draw(st.sets(st.integers(1, n), max_size=n)) | {n})
    if not draw(st.integers(0, 3)):
        dims = draw(st.lists(st.integers(-1, 8) | st.just("2"), max_size=4))
    basis = _often(draw, lambda: _matrix(draw, n, n), lambda: draw(_JUNK_JSON))
    return _write(d, "f.json", json.dumps({"basis": basis, "dims": dims}))


def _group_spec(draw, d):
    """A builtin name, or a JSON Cayley table (cyclic, maybe corrupted)."""
    kind = draw(st.sampled_from(["name", "name", "table", "junk"]))
    if kind == "name":
        return draw(st.sampled_from(["z1", "z3", "z6", "z16", "d1", "d3", "d8", "s3",
                                     "s4", "q8", "trivial", "z0", "d0", "z", "x7",
                                     "Z05", "z²"]))
    if kind == "junk":
        return str(_write(d, "grp.json", json.dumps(draw(_JUNK_JSON))))
    k = draw(st.integers(1, 16))
    table = ((np.arange(k)[:, None] + np.arange(k)[None, :]) % k).tolist()
    if draw(st.booleans()):
        table[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(
            st.integers(-1, k) | st.just(0.5) | st.just("0"))
    obj = {"order": draw(st.sampled_from([k, k, k + 1, True])), "table": table}
    if draw(st.booleans()):
        obj["labels"] = draw(st.sampled_from([[str(i) for i in range(k)], 5, []]))
    return str(_write(d, "grp.json", json.dumps(obj)))


def _functional_file(draw, d, name, order):
    count = _often(draw, lambda: order, lambda: draw(st.integers(0, 17)))
    weights = [[draw(st.floats(-2.0, 2.0)), 0.0] for _ in range(count)]
    obj = draw(st.sampled_from(["weights", "weights", "junk"]))
    body = {"weights": weights} if obj == "weights" else draw(_JUNK_JSON)
    return _write(d, name, json.dumps(body))


def _sequence_file(draw, d):
    values = draw(st.lists(st.floats(0.0, 1e3) | st.sampled_from([1e300, 1e-300]),
                           min_size=0, max_size=8))
    if draw(st.integers(0, 3)):
        values.sort(reverse=True)
    lines = [repr(v) for v in values]
    if not draw(st.integers(0, 5)):
        lines.append(draw(st.sampled_from(["-1", "x", "nan", "inf", "", "1,2"])))
    if not draw(st.integers(0, 9)):
        return _write(d, "eta.csv", b"\xff\xfe")
    return _write(d, "eta.csv", "\n".join(lines))


def _phi(draw):
    return draw(st.sampled_from(["schatten:1", "schatten:1.5", "schatten:2", "schatten:3",
                                 "schatten:inf", "schatten:1000", "kyfan:1", "kyfan:3",
                                 "kyfan:9", "kyfan:0", "schatten:0.5", "schatten:nan",
                                 "kyfan:x", "bogus", "schatten", "schatten:1:2"]))


def _write(d, name, content):
    path = d / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


def _often(draw, good, bad):
    """The well-formed value three times in four, else the malformed one;
    each is a callable, so only the chosen one draws or writes."""
    return good() if draw(st.integers(0, 3)) else bad()


def _argv(draw, d):
    """One run's argv, its input files written under d.  Drawn numbers go as
    --flag=value, so a leading minus is not read as a flag."""
    n = draw(st.integers(1, 6))
    cmd = draw(st.sampled_from(["svalues", "norm", "dualnorm", "boyd", "truncate",
                                "integral", "ldl-nest", "qr-nest", "cartan", "iwasawa",
                                "hc", "mean", "gns", "arens", "experiment"]))
    argv = [cmd]
    if cmd in ("norm", "dualnorm", "boyd", "experiment"):
        argv += ["--phi", _phi(draw)]
    if cmd in ("svalues", "norm", "truncate", "integral", "qr-nest", "iwasawa", "hc"):
        argv += ["--matrix", str(_matrix_file(draw, d, "m.json", n))]
    if cmd == "ldl-nest":
        pd = matrix_to_obj(np.eye(n) + np.triu(np.ones((n, n)), 1) / n)
        pd = json.dumps(matrix_to_obj(np.eye(n)) if draw(st.booleans()) else pd)
        argv += ["--matrix", str(_often(draw, lambda: _write(d, "m.json", pd),
                                        lambda: _matrix_file(draw, d, "m.json", n)))]
    if cmd in ("truncate", "integral", "ldl-nest", "qr-nest") and draw(st.booleans()):
        argv += ["--flag", str(_flag_file(draw, d, n))]
    if cmd in ("truncate", "ldl-nest") and draw(st.booleans()):
        argv += ["--cuts=" + _int_list(draw)]
    if cmd == "dualnorm":
        argv += ["--sequence", str(_sequence_file(draw, d))]
    if cmd in ("dualnorm", "boyd", "experiment") and draw(st.booleans()):
        argv += [f"--seed={draw(st.integers(-2, 2 ** 70))}"]
    if cmd == "boyd":
        mmax = draw(_SMALL)
        cap = _often(draw, lambda: draw(st.integers(max(mmax, 2), 16)), lambda: draw(_SMALL))
        argv += [f"--mmax={mmax}", f"--cap={cap}"]
    if cmd == "cartan":
        typ = draw(st.sampled_from(CLASSICAL_TYPES))
        try:
            g = random_group_element(typ, default_structure(typ, n), draw(st.integers(0, 9)))
            matrix = _often(draw, lambda: _write(d, "m.json", json.dumps(matrix_to_obj(g))),
                            lambda: _matrix_file(draw, d, "m.json", n))
        except InputError:      # no structure of this type in dimension n
            matrix = _matrix_file(draw, d, "m.json", n)
        argv += ["--type", typ, "--matrix", str(matrix)]
        if draw(st.booleans()):
            argv += ["--split=" + _int_list(draw, max_size=3)]
    if cmd == "hc":
        p = draw(st.integers(0, n))
        argv += ["--split=" + _often(draw, lambda: f"{p},{n - p}",
                                     lambda: _int_list(draw, max_size=3))]
        if draw(st.booleans()):
            z = _often(draw, lambda: _write(d, "z.json", json.dumps(_matrix(draw, max(p, 1), max(n - p, 1)))),
                       lambda: _matrix_file(draw, d, "z.json", n))
            argv += ["--z", str(z)]
    if cmd == "iwasawa" and draw(st.booleans()):
        x0 = json.dumps(matrix_to_obj(np.diag(np.arange(n, 0, -1.0))))
        x0 = _often(draw, lambda: _write(d, "x0.json", x0),
                    lambda: _matrix_file(draw, d, "x0.json", n))
        argv += ["--x0", str(x0)]
    if cmd in ("mean", "gns"):
        argv += ["--group", _group_spec(draw, d)]
    if cmd == "arens":
        k = draw(st.integers(1, 16))
        argv += ["--group", _often(draw, lambda: f"z{k}", lambda: _group_spec(draw, d)),
                 "--mu", str(_functional_file(draw, d, "mu.json", k)),
                 "--nu", str(_functional_file(draw, d, "nu.json", k))]
    if cmd == "experiment":
        argv[1:1] = [_often(draw, lambda: "truncation-growth", lambda: "other")]
        argv += ["--sizes=" + _int_list(draw, elements=st.integers(-1, 6))]
        if draw(st.booleans()):
            argv += [f"--trials={draw(st.integers(-1, 4))}"]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--output", str(d / draw(st.sampled_from(["out.txt", "no/such/out.txt"])))]
    return argv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_run_ends_in_a_report_or_an_error_report(data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = _argv(data.draw, d)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        report = d / "out.txt"
        out = stdout.getvalue() or (report.read_text() if report.exists() else "")
    assert code in (0, 1), (argv, code)
    if code == 1:
        assert json.loads(out)["error"]["code"] in (
            "input-error", "domain-error", "io-error"), argv
    elif argv[0] == "experiment":
        assert out.startswith("n,ratio\n"), argv
    else:
        assert "error" not in json.loads(out), argv
