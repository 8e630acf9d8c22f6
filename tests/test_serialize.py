"""Matrix JSON: the [re, im] pair decoder against numpy's nested-list
conversion, and reports encoded array by array against the same reports
encoded all at once."""

import json
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opideal import Flag, InputError, cyclic_group, nest, serialize
from opideal.cli import _render, build_parser, main
from opideal.serialize import (functional_from_obj, matrix_from_obj, matrix_to_obj,
                               save_flag, save_matrix)
from opideal.utils import MAX_INPUT_BYTES, crandn

from oracles import complex_pairs_by_asarray, eager_report_json

EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2e-308, 1e308, -1e308]

_NUMBER = (st.floats() | st.integers(-2 ** 80, 2 ** 80) | st.booleans()
           | st.sampled_from(EDGE + [2 ** 53 + 1, -(2 ** 63) - 1, 10 ** 400, -10 ** 400]))
_NUMERIC_TEXT = st.sampled_from(["1.5", " -2 ", "-0", "1e400", "nan", "-inf", "1_0",
                                 "١", "0x10", "1,5", "", "x", "5e-324"])
_SCALAR = _NUMBER | _NUMERIC_TEXT | st.none()
_PAIR = st.lists(_NUMBER | _NUMERIC_TEXT, min_size=2, max_size=2)
_ODD = (st.lists(_SCALAR, max_size=3)                        # 1- and 3-element pairs
        | st.lists(st.lists(_SCALAR, max_size=2), min_size=2, max_size=2)
        | st.dictionaries(st.text(max_size=2), _SCALAR, max_size=2)
        | st.text(max_size=2) | _SCALAR)
_DATA = st.lists(_PAIR, max_size=6) | st.lists(_PAIR | _ODD, max_size=6)


def _outcome(load):
    """The loaded array's bytes, or the message of the InputError raised."""
    try:
        return load().tobytes()
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_DATA)
def test_pair_decoder_matches_nested_list_conversion(data):
    group = cyclic_group(max(len(data), 1))
    loads = [lambda: matrix_from_obj({"rows": 1, "cols": max(len(data), 1), "data": data}),
             lambda: functional_from_obj({"weights": data}, group).weights]
    for load in loads:
        got = _outcome(load)
        with mock.patch.object(serialize, "_complex_pairs", complex_pairs_by_asarray):
            assert got == _outcome(load), data


def test_pair_decoder_rejects_what_only_its_length_sum_would_accept():
    # 3 + 1 entries stream to two pairs' worth of floats; "12" iterates as two digits
    for data in ([[1.0, 2.0, 3.0], [4.0]], ["12"], [{"1": 0, "2": 0}], []):
        with pytest.raises(InputError, match="'weights' must be a list of"):
            functional_from_obj({"weights": data}, cyclic_group(max(len(data), 1)))


def test_saved_files_are_one_json_dumps(tmp_path):
    m = crandn(np.random.default_rng(4), 3, 3)
    save_matrix(tmp_path / "m.json", m)
    save_flag(tmp_path / "f.json", Flag.standard(3))
    assert (tmp_path / "m.json").read_text() == json.dumps(matrix_to_obj(m))
    assert (tmp_path / "f.json").read_text() == json.dumps(
        {"basis": matrix_to_obj(np.eye(3)), "dims": [1, 2, 3]})


def _with_edges(m, hermitian=False):
    """m with -0.0 and subnormal parts in its first off-diagonal entries."""
    m = m.copy()
    m[0, 1] = complex(-0.0, 5e-324)
    m[1, 2] = complex(-5e-324, -0.0)
    m[0, 3] = complex(2.2e-308, -2.2e-308)
    if hermitian:
        for i, j in ((0, 1), (1, 2), (0, 3)):
            m[j, i] = m[i, j].conjugate()
    return m


@pytest.fixture
def edge_inputs(tmp_path):
    rng = np.random.default_rng(17)
    save_matrix(tmp_path / "m.json", _with_edges(crandn(rng, 4, 4)))
    save_matrix(tmp_path / "g.json", _with_edges(crandn(rng, 4, 4) + 2.0 * np.eye(4)))
    a = crandn(rng, 4, 4)
    save_matrix(tmp_path / "a.json", _with_edges(a.conj().T @ a + 4.0 * np.eye(4), True))
    z = 0.3 * crandn(rng, 2, 2)
    z[0, 1] = complex(-0.0, 5e-324)
    save_matrix(tmp_path / "z.json", z)
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["truncate", "--matrix", "m.json", "--cuts", "1,3,4"],
    ["integral", "--matrix", "m.json"],
    ["ldl-nest", "--matrix", "a.json"],
    ["qr-nest", "--matrix", "g.json"],
    ["cartan", "--type", "A", "--matrix", "g.json"],
    ["iwasawa", "--matrix", "g.json"],
    ["hc", "--matrix", "g.json", "--split", "2,2", "--z", "z.json"],
], ids=lambda argv: argv[0])
def test_reports_equal_the_eagerly_encoded_report(edge_inputs, capsys, argv):
    argv = [str(edge_inputs / a) if a.endswith(".json") else a for a in argv]
    args = build_parser().parse_args(argv)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = args.func(args)
    arrays = [v for v in report.values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 2 and report.get("domain", True)
    assert main(argv) == 0
    assert capsys.readouterr().out == eager_report_json(report)


def test_render_writes_edge_floats_as_the_eager_report():
    m = np.empty((2, len(EDGE)), dtype=complex)
    m.real, m.imag = [EDGE, EDGE[::-1]], [EDGE[::-1], EDGE]
    report = {"z": m, "a": m.T, "v": m[0], "residuals": {"sum": 5e-324, "max": -1e308}}
    text = _render(report)
    assert text == eager_report_json(report)
    assert "-0.0" in text and "5e-324" in text and "1e+308" in text


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_array_reaching_the_encoder_is_an_input_error(
        edge_inputs, capsys, monkeypatch, bad):
    """InputError is a ValueError; the encoder's out-of-range ValueError is a
    domain-error, an array the loaders would refuse stays an input-error."""
    monkeypatch.setattr(nest, "split", lambda part, x: (x, np.full(x.shape, bad), x))
    assert main(["truncate", "--matrix", str(edge_inputs / "m.json")]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": "input-error", "message": "matrix must have finite entries"}
    with pytest.raises(InputError, match="finite entries"):
        _render({"a": np.full((2, 2), bad)})


@pytest.mark.parametrize("argv", [
    ["svalues", "--matrix"], ["dualnorm", "--phi", "schatten:2", "--sequence"],
    ["mean", "--group"]], ids=["matrix", "sequence", "group"])
def test_an_input_file_over_the_byte_cap_is_refused_before_it_is_read(tmp_path, capsys, argv):
    # a sparse file one byte over the cap: read, its zero bytes would be no
    # JSON or CSV, so the message shows that the size alone refused it
    path = tmp_path / "big"
    with open(path, "wb"):
        os.truncate(path, MAX_INPUT_BYTES + 1)
    assert main([*argv, str(path)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": "input-error", "message": (
        f"{path} is {MAX_INPUT_BYTES + 1} bytes, over the input limit of {MAX_INPUT_BYTES}")}


@pytest.mark.parametrize("load, text, want", [
    (serialize.load_matrix, '{"rows": 1, "cols": 1, "data": [[2.0, 0.0]]}', [[2.0]]),
    (serialize.load_sequence, "2.0\n1.0\n", [2.0, 1.0])], ids=["json", "csv"])
def test_a_fifo_over_the_byte_cap_is_refused_once_the_read_passes_it(
        tmp_path, monkeypatch, load, text, want):
    # a FIFO, like a pipe, has size 0 on disk: what bounds it is the read,
    # which stops one byte past the cap; one of exactly the cap still loads
    cap = 64
    monkeypatch.setattr(serialize, "MAX_INPUT_BYTES", cap)
    for size in (cap, cap + 1):
        path = tmp_path / f"fifo{size}"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text.ljust(size),), daemon=True)
        writer.start()
        if size == cap:
            loaded = load(path)
            assert np.array_equal(getattr(loaded, "values", loaded), want)
        else:
            with pytest.raises(InputError) as info:
                load(path)
            assert str(info.value) == f"{path} is over the input limit of {cap} bytes"
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_render_refuses_what_is_not_an_array_or_json():
    with pytest.raises(TypeError, match="not JSON serializable"):
        _render({"a": np.zeros((2, 2, 2))})
    with pytest.raises(TypeError, match="not JSON serializable"):
        _render({"a": object()})
