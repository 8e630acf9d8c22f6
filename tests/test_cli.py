"""Command-line interface: subcommands, schemas, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opideal.cli import main
from opideal.serialize import (load_matrix, matrix_from_obj, matrix_to_obj,
                               save_flag, save_matrix, sequence_from_csv)
from opideal import Flag, InputError, amenable, symmetric_group
from opideal.utils import crandn


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(31)
    save_matrix(tmp_path / "m.json", crandn(rng, 4, 4))
    g = crandn(rng, 4, 4)
    save_matrix(tmp_path / "g.json", g + 2.0 * np.eye(4))
    a = crandn(rng, 4, 4)
    save_matrix(tmp_path / "a.json", a.conj().T @ a + np.eye(4))
    save_matrix(tmp_path / "z.json", 0.3 * crandn(rng, 2, 2))
    save_flag(tmp_path / "flag.json", Flag.standard(4))
    (tmp_path / "eta.csv").write_text("4.0\n3.0\n1.0\n")
    mu = {"weights": [[1.0, 0.0]] + [[0.0, 0.0]] * 5}
    (tmp_path / "mu.json").write_text(json.dumps(mu))
    nu = {"weights": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 4}
    (tmp_path / "nu.json").write_text(json.dumps(nu))
    return tmp_path


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = crandn(rng, 3, 5)
    obj = matrix_to_obj(m)
    assert obj["rows"] == 3 and obj["cols"] == 5 and len(obj["data"]) == 15
    assert np.array_equal(matrix_from_obj(obj), m)
    save_matrix(tmp_path / "x.json", m)
    assert np.array_equal(load_matrix(tmp_path / "x.json"), m)


def test_matrix_schema_errors():
    with pytest.raises(InputError, match="rows"):
        matrix_from_obj({"cols": 2, "data": []})
    with pytest.raises(InputError, match="data"):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(InputError, match="pair"):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[1.0]]})
    with pytest.raises(InputError, match="pair"):
        matrix_from_obj({"rows": 1, "cols": 2, "data": [[1.0, 0.0], [1.0]]})
    with pytest.raises(InputError, match="pair"):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [{"re": 1.0}]})
    with pytest.raises(InputError, match="rows"):
        matrix_from_obj({"rows": True, "cols": 1, "data": [[1.0, 0.0]]})
    with pytest.raises(InputError, match="line 2"):
        sequence_from_csv("1.0\nbogus\n")


def test_matrix_json_matches_per_element_reference():
    rng = np.random.default_rng(8)
    edge = [0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, 3.0, -7.0, 0.1]
    m = crandn(rng, 4, 6)
    m.real.flat[:9] = edge
    m.imag.flat[:9] = edge[::-1]
    reference = {"rows": 4, "cols": 6,
                 "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}
    assert json.dumps(matrix_to_obj(m)) == json.dumps(reference)

    obj = json.loads(json.dumps(reference))
    obj["data"][0] = [1, -2]                    # JSON integers
    expected = np.array([complex(float(re), float(im)) for re, im in obj["data"]])
    got = matrix_from_obj(obj)
    assert got.dtype == complex and got.shape == (4, 6)
    assert got.tobytes() == expected.reshape(4, 6).tobytes()   # keeps -0.0


def test_group_json_schema(tmp_path):
    from opideal import cyclic_group
    from opideal.serialize import group_from_obj, resolve_group
    z3 = cyclic_group(3)
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"order": 3, "table": z3.table.tolist(),
                                "labels": ["e", "a", "b"]}))
    loaded = resolve_group(str(path))
    assert loaded.order == 3 and loaded.labels == ["e", "a", "b"]
    with pytest.raises(InputError, match="table"):
        group_from_obj({"order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(InputError):
        resolve_group("nosuchgroup")


def test_svalues_and_norm(workdir, capsys):
    code, out = run_cli(["svalues", "--matrix", str(workdir / "m.json")], capsys)
    assert code == 0
    vals = json.loads(out)["singular_values"]
    assert vals == sorted(vals, reverse=True)

    code, out = run_cli(["norm", "--phi", "schatten:2",
                         "--matrix", str(workdir / "m.json")], capsys)
    assert code == 0
    m = load_matrix(workdir / "m.json")
    assert json.loads(out)["norm"] == pytest.approx(np.linalg.norm(m))


def test_dualnorm(workdir, capsys):
    code, out = run_cli(["dualnorm", "--phi", "schatten:2",
                         "--sequence", str(workdir / "eta.csv")], capsys)
    assert code == 0
    rep = json.loads(out)
    exact = np.sqrt(16.0 + 9.0 + 1.0)
    assert rep["closed_form"] == pytest.approx(exact, abs=1e-12)
    assert rep["estimate"] == pytest.approx(exact, rel=1e-6)


def test_boyd(workdir, capsys):
    code, out = run_cli(["boyd", "--phi", "schatten:4", "--mmax", "8",
                         "--cap", "32"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["p_hat"] == pytest.approx(4.0, abs=0.05)
    assert rep["q_hat"] == pytest.approx(4.0, abs=0.05)


def test_truncate_and_integral(workdir, capsys):
    code, out = run_cli(["truncate", "--matrix", str(workdir / "m.json"),
                         "--cuts", "2,4"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["cuts"] == [2, 4]
    assert rep["residuals"]["sum"] < 1e-12

    code, out = run_cli(["integral", "--matrix", str(workdir / "m.json"),
                         "--flag", str(workdir / "flag.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["sum"] < 1e-12
    assert rep["residuals"]["adjoint_diag"] < 1e-12


def test_ldl_and_qr(workdir, capsys):
    code, out = run_cli(["ldl-nest", "--matrix", str(workdir / "a.json"),
                         "--cuts", "2,4"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["reconstruction"] < 1e-10
    assert rep["residuals"]["nilpotency_index"] <= 2

    code, out = run_cli(["qr-nest", "--matrix", str(workdir / "g.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["reconstruction"] < 1e-10
    assert rep["residuals"]["nest_membership"] is True


def test_cartan_iwasawa_hc(workdir, capsys):
    code, out = run_cli(["cartan", "--type", "AIII", "--split", "2,2",
                         "--matrix", str(workdir / "g.json")], capsys)
    assert code == 1  # generic matrix is not in the group
    assert json.loads(out)["error"]["code"] == "domain-error"

    from opideal import default_structure, random_group_element
    g = random_group_element("AIII", default_structure("AIII", 4, (2, 2)),
                             seed=4, radius=0.6)
    save_matrix(workdir / "u22.json", g)
    code, out = run_cli(["cartan", "--type", "AIII", "--split", "2,2",
                         "--matrix", str(workdir / "u22.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["reconstruction"] < 1e-9
    assert rep["residuals"]["k_in_group"] is True

    code, out = run_cli(["iwasawa", "--matrix", str(workdir / "g.json")], capsys)
    assert code == 0
    assert json.loads(out)["residuals"]["reconstruction"] < 1e-10

    code, out = run_cli(["hc", "--matrix", str(workdir / "u22.json"),
                         "--split", "2,2", "--z", str(workdir / "z.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["reconstruction"] < 1e-12
    assert rep["domain"] is True
    assert "action" in rep and "cocycle" in rep


def test_mean_gns_arens(workdir, capsys):
    code, out = run_cli(["mean", "--group", "s3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["unique"] is True
    assert rep["weights"][0][0] == pytest.approx(1 / 6)
    assert rep["invariance_residual"] <= 1e-12

    code, out = run_cli(["gns", "--group", "z2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 2
    assert rep["matches_regular_character"] is True

    code, out = run_cli(["arens", "--group", "s3", "--mu", str(workdir / "mu.json"),
                         "--nu", str(workdir / "nu.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    # delta_0 * delta_1 = delta_{0*1} = delta_1 for these fixtures
    assert rep["weights"][1][0] == pytest.approx(1.0)


def _strict_json(text):
    """json.loads that refuses the NaN/Infinity extensions."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, entries, expected", [
    # 10^400 and 10^501 overflow a double; the gauges do not
    (["norm", "--phi", "schatten:400"], [10.0, 1.0], {"norm": 10.0}),
    (["dualnorm", "--phi", "schatten:1.002"], [10.0, 1.0], {"closed_form": 10.0}),
    # the gauge itself lies outside the double range
    (["norm", "--phi", "schatten:1"], [1e308, 1e308], None),
    (["norm", "--phi", "kyfan:2"], [1e308, 1e308], None),
    (["dualnorm", "--phi", "kyfan:1"], [1e308, 1e308], None),
    (["dualnorm", "--phi", "schatten:inf"], [1e308, 1e308], None),
], ids=["norm-schatten:400", "dualnorm-schatten:1.002", "norm-schatten:1-out-of-range",
        "norm-kyfan:2-out-of-range", "dualnorm-kyfan:1-out-of-range",
        "dualnorm-schatten:inf-out-of-range"])
def test_gauge_reports_out_of_floating_range_are_strict_json(tmp_path, capsys, command,
                                                             entries, expected):
    if command[0] == "norm":
        save_matrix(tmp_path / "d.json", np.diag(entries))
        argv = command + ["--matrix", str(tmp_path / "d.json")]
    else:
        (tmp_path / "eta.csv").write_text("".join(f"{v!r}\n" for v in entries))
        argv = command + ["--sequence", str(tmp_path / "eta.csv")]
    code, out = run_cli(argv, capsys)
    rep = _strict_json(out)
    if expected is None:
        assert code == 1 and rep["error"] == {
            "code": "domain-error",
            "message": "a report value lies outside the double range"}
        return
    assert code == 0
    for key, value in expected.items():
        assert rep[key] == pytest.approx(value, rel=1e-15)
    if command[0] == "dualnorm":
        assert 10.0 <= rep["estimate"] <= rep["closed_form"] * (1 + 1e-12)


@pytest.mark.parametrize("group", ["trivial", "z6", "d5", "s4", "q8", "{file}"])
def test_mean_and_gns_build_no_second_representation(workdir, capsys, monkeypatch,
                                                      group):
    # The group axioms certify the uniform mean and the regular character,
    # so mean builds no representation; gns builds the left regular one
    # once, as permutations, and no matrix representation.
    if group == "{file}":
        group = str(workdir / "s3.json")
        table = symmetric_group(3).table.tolist()
        (workdir / "s3.json").write_text(json.dumps({"order": 6, "table": table}))

    regular = []
    left_regular_rep = amenable.left_regular_rep

    def counting_regular(group):
        regular.append(group.order)
        return left_regular_rep(group)

    built = []

    class CountingRep(amenable.UnitaryRep):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(amenable, "left_regular_rep", counting_regular)
    monkeypatch.setattr(amenable, "UnitaryRep", CountingRep)
    code, out = run_cli(["mean", "--group", group], capsys)
    assert code == 0 and json.loads(out)["unique"] is True
    assert regular == [] and built == []
    code, out = run_cli(["gns", "--group", group], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["matches_regular_character"] is True
    assert regular == [rep["dim"]] and built == []


@pytest.mark.parametrize("halves, index", [(False, 32), (True, 16)])
def test_ldl_nest_reports_the_longest_chain_of_nonzero_blocks(tmp_path, capsys,
                                                              halves, index):
    # on the maximal partition r is dense strictly upper for a generic a, of
    # index n; a = diag(A1, A2) factors half by half, so r's chains stop at 16
    rng = np.random.default_rng(8)
    g = crandn(rng, 32, 32)
    a = g.conj().T @ g + np.eye(32)
    if halves:
        a[:16, 16:] = a[16:, :16] = 0.0
    save_matrix(tmp_path / "a.json", a)
    code, out = run_cli(["ldl-nest", "--matrix", str(tmp_path / "a.json")], capsys)
    assert code == 0
    assert json.loads(out)["residuals"]["nilpotency_index"] == index


@pytest.mark.parametrize("argv", [["gns", "--group", "z1024"],
                                  ["gns", "--group", "d512"],
                                  ["mean", "--group", "z1024"]],
                         ids=["gns-z1024", "gns-d512", "mean-z1024"])
def test_group_requests_at_the_order_cap_fit_in_quadratic_memory(capsys, argv):
    # the Cayley table alone is 8 MB at order 1024; a dense representation
    # would be 16 GB
    tracemalloc.start()
    try:
        code, out = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    rep = json.loads(out)
    if argv[0] == "gns":
        assert rep["dim"] == 1024 and rep["matches_regular_character"] is True
        assert rep["character"][0] == [1024.0, 0.0]
    else:
        assert rep["unique"] is True and rep["invariance_residual"] == 0.0
    assert peak < 64 * 2**20


def test_experiment_csv(workdir, capsys):
    code, out = run_cli(["experiment", "truncation-growth", "--phi", "schatten:1",
                         "--sizes", "2,4", "--trials", "5", "--seed", "7"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,ratio"
    assert len(lines) == 3
    code, out = run_cli(["experiment", "bogus", "--phi", "schatten:1",
                         "--sizes", "2", "--trials", "1"], capsys)
    assert code == 1


def test_error_reports(workdir, capsys):
    code, out = run_cli(["svalues", "--matrix", str(workdir / "missing.json")],
                        capsys)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "io-error"

    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}))
    code, out = run_cli(["svalues", "--matrix", str(bad)], capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "input-error" and "data" in err["message"]


@pytest.mark.parametrize("command, payload, message", [
    (["svalues", "--matrix", "{file}"], "{not json", "not valid JSON"),
    (["svalues", "--matrix", "{file}"],
     {"rows": 1, "cols": 1, "data": [["x", 0]]}, "pair"),
    (["svalues", "--matrix", "{file}"],
     {"rows": True, "cols": 1, "data": [[1.0, 0.0]]}, "'rows'"),
    (["truncate", "--matrix", "{m}", "--flag", "{file}"], "[1, 2", "not valid JSON"),
    (["mean", "--group", "{file}"], "{", "not valid JSON"),
    (["mean", "--group", "{file}"],
     {"order": True, "table": [[0]]}, "'order'"),
    (["mean", "--group", "{file}"],
     {"order": 2, "table": [[0, 1], [1, 0.5]]}, "integer element indices"),
    (["mean", "--group", "{file}"],
     {"order": 2, "table": [[0, 1], [1]]}, "square"),
    (["arens", "--group", "z6", "--mu", "{file}", "--nu", "{file}"],
     "nan", "not valid JSON"),
    (["arens", "--group", "z6", "--mu", "{file}", "--nu", "{file}"],
     {"weights": [[1.0, "y"]] * 6}, "pair"),
    (["norm", "--phi", "kyfan:0", "--matrix", "{m}"], None,
     "kyfan gauge requires an integer k >= 1"),
    (["svalues", "--matrix", "{file}"], "[" * 100000, "not valid JSON"),
    (["truncate", "--matrix", "{m}", "--flag", "{file}"],
     {"basis": {"rows": 1, "cols": 1, "data": [[1, 0]]}, "dims": ["1"]}, "dims"),
    (["mean", "--group", "{file}"],
     {"order": 1, "table": [[0]], "labels": 5}, "labels"),
    (["dualnorm", "--phi", "schatten:2", "--sequence", "{file}"], b"\xff\xfe",
     "not a text file"),
    (["hc", "--matrix", "{m}", "--split", "2"], None, "--split"),
    (["cartan", "--type", "AIII", "--matrix", "{m}", "--split", "2"], None, "--split"),
    (["cartan", "--type", "B", "--matrix", "{m}", "--split", "1,3"], None,
     "--split applies only to types with a signature; B has none"),
    # numpy reads true/false among integers as 1/0: Z2, and a table without inverses
    (["mean", "--group", "{file}"], {"order": 2, "table": [[0, 1], [1, False]]},
     "cayley table entries must be integer element indices"),
    (["mean", "--group", "{file}"], {"order": 2, "table": [[0, 1], [1, True]]},
     "cayley table entries must be integer element indices"),
    # with no --split, a default split of this n would leave a block empty
    (["cartan", "--type", "AIII", "--matrix", "{file}"],
     {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
     "type AIII needs n >= 2 for its default split, got n=1"),
    (["cartan", "--type", "BI", "--matrix", "{file}"],
     {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]},
     "type BI needs n >= 2 for its default split, got n=1"),
    (["cartan", "--type", "CII", "--matrix", "{file}"],
     {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
     "type CII needs n >= 4 for its default split, got n=2"),
    # JSON true/false are not numbers, though they decode as 1.0/0.0
    (["svalues", "--matrix", "{file}"], {"rows": 1, "cols": 1, "data": [[True, 0.0]]},
     "field 'data' must be a list of [re, im] pairs"),
    (["arens", "--group", "z6", "--mu", "{file}", "--nu", "{file}"],
     {"weights": [[False, True]] * 6}, "field 'weights' must be a list of [re, im] pairs"),
    (["norm", "--phi", "schatten:abc", "--matrix", "{m}"], None,
     "bad schatten parameter 'abc'"),
    (["svalues", "--matrix", "{file}"], {"rows": 0, "cols": 1, "data": []},
     "field 'rows'/'cols' must be positive"),
    (["truncate", "--matrix", "{m}", "--flag", "{file}"], [1, 2],
     "flag object must be a JSON object"),
    (["arens", "--group", "z6", "--mu", "{file}", "--nu", "{file}"], [],
     "functional object must be a JSON object"),
    (["mean", "--group", "{file}"], {"order": 2, "table": [[0, 2], [2, 0]]},
     "cayley table entries must be element indices"),
    (["mean", "--group", "{file}"], {"order": 1, "table": [[0]], "labels": ["e", "a"]},
     "labels must match the group order"),
    # numeric strings are not numbers, though numpy parses them; null is not NaN
    (["svalues", "--matrix", "{file}"], {"rows": 1, "cols": 1, "data": [[" 2 ", "1e3"]]},
     "field 'data' must be a list of [re, im] pairs"),
    (["arens", "--group", "z6", "--mu", "{file}", "--nu", "{file}"],
     {"weights": [["1", 0]] * 6}, "field 'weights' must be a list of [re, im] pairs"),
    (["svalues", "--matrix", "{file}"], {"rows": 1, "cols": 1, "data": [[None, 0.0]]},
     "field 'data' must be a list of [re, im] pairs"),
])
def test_malformed_inputs_are_input_errors(workdir, capsys, command, payload, message):
    bad = workdir / "bad.json"
    if isinstance(payload, bytes):
        bad.write_bytes(payload)
    else:
        bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    argv = [a.format(file=bad, m=workdir / "m.json") for a in command]
    code, out = run_cli(argv, capsys)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "input-error"
    assert message in err["message"]


@pytest.mark.parametrize("argv, entries", [
    (["cartan", "--type", "B"], [1e300, 1e300]),     # ||g||^2 overflows a float
], ids=["cartan-overflow"])
def test_computations_leaving_the_double_range_are_domain_errors(tmp_path, capsys, argv,
                                                                 entries):
    save_matrix(tmp_path / "d.json", np.diag(entries))
    code, out = run_cli(argv + ["--matrix", str(tmp_path / "d.json")], capsys)
    assert code == 1
    assert _strict_json(out)["error"] == {
        "code": "domain-error", "message": "a computed value is not a finite double"}


def test_singular_values_past_the_double_range_are_a_domain_error(tmp_path, capsys):
    # every entry of this 2 x 2 matrix is 1e308, and its singular values are
    # 2e308 and 0: one DomainError from the library, with no overflow warning
    from opideal import DomainError, singular_values
    big = np.full((2, 2), 1e308)
    message = "the largest singular value lies outside the double range"
    with pytest.raises(DomainError, match=message):
        singular_values(big)
    save_matrix(tmp_path / "big.json", big)
    for argv in (["svalues"], ["norm", "--phi", "schatten:2"]):
        code, out = run_cli(argv + ["--matrix", str(tmp_path / "big.json")], capsys)
        assert code == 1
        assert _strict_json(out)["error"] == {"code": "domain-error", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["qr-nest"], "matrix is numerically singular (condition number inf)"),
    (["iwasawa"], "matrix is numerically singular (condition number inf)"),
    (["cartan", "--type", "A"], "matrix fails the A group relations at tol 1e-08"),
], ids=["qr-nest", "iwasawa", "cartan"])
def test_a_condition_number_past_the_double_range_is_singular(tmp_path, capsys, argv,
                                                              message):
    # sigma_1 / sigma_2 = 1e310 overflows to inf, a singular verdict, not an overflow
    save_matrix(tmp_path / "d.json", np.diag([1.0, 1e-310]))
    code, out = run_cli(argv + ["--matrix", str(tmp_path / "d.json")], capsys)
    assert code == 1
    assert _strict_json(out)["error"] == {"code": "domain-error", "message": message}


def test_hc_of_a_subnormal_lower_right_block(tmp_path, capsys):
    # d = [[1e-310]] has condition number 1; it is solved divided by its power
    # of 2, so no reciprocal of the subnormal pivot overflows
    save_matrix(tmp_path / "d.json", np.diag([1.0, 1e-310]))
    code, out = run_cli(["hc", "--split", "1,1", "--matrix", str(tmp_path / "d.json")],
                        capsys)
    assert code == 0
    rep = _strict_json(out)
    assert np.array_equal(matrix_from_obj(rep["zplus"]), np.zeros((1, 1)))
    assert np.array_equal(matrix_from_obj(rep["zminus"]), np.zeros((1, 1)))
    assert np.array_equal(matrix_from_obj(rep["kappa"]), np.diag([1.0, 1e-310]))
    assert rep["residuals"]["reconstruction"] == 0.0


def test_hc_reports_a_point_outside_the_domain(tmp_path, capsys):
    # g [[1, z], [0, 1]] = [[0, 1], [1, 0]]: its lower-right block is 0
    save_matrix(tmp_path / "g.json", np.array([[0.0, 1.0], [1.0, 1.0]]))
    save_matrix(tmp_path / "z.json", np.array([[-1.0]]))
    code, out = run_cli(["hc", "--matrix", str(tmp_path / "g.json"), "--split", "1,1",
                         "--z", str(tmp_path / "z.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["domain"] is False
    assert "action" not in rep and "cocycle" not in rep


@pytest.mark.parametrize("command, factors, unipotent", [
    ("ldl-nest", ("r", "d"), "r"), ("iwasawa", ("k", "a", "n"), "n")],
    ids=["ldl-nest", "iwasawa"])
def test_factorizations_of_a_subnormal_matrix(tmp_path, capsys, command, factors, unipotent):
    # 1e-310 [[2, 1], [1, 2]] has condition number 3; each pivot divides
    # the rows it eliminates after both are divided by its power of 2
    save_matrix(tmp_path / "a.json", 1e-310 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    code, out = run_cli([command, "--matrix", str(tmp_path / "a.json")], capsys)
    assert code == 0
    rep = _strict_json(out)
    assert all(np.isfinite(matrix_from_obj(rep[name])).all() for name in factors)
    off = matrix_from_obj(rep[unipotent])[0, 1]   # 1/2 of ldl-nest's r, 4/5 of iwasawa's n
    assert abs(off - {"ldl-nest": 0.5, "iwasawa": 0.8}[command]) <= 1e-12
    assert rep["residuals"]["reconstruction"] <= 1e-12


def test_cartan_of_an_element_near_the_bottom_of_the_range(tmp_path, capsys):
    # diag(1e-301) is in GL(1); its SVD is exact, where g* g would underflow
    save_matrix(tmp_path / "d.json", np.diag([1e-301]))
    code, out = run_cli(["cartan", "--type", "A", "--matrix", str(tmp_path / "d.json")],
                        capsys)
    assert code == 0
    report = _strict_json(out)
    assert np.array_equal(matrix_from_obj(report["k"]), np.eye(1))
    assert np.array_equal(matrix_from_obj(report["x"]), np.log([[1e-301]]))


def test_residual_norms_of_entries_past_the_square_root_of_the_range(tmp_path, capsys):
    # the squares of 1e300 overflow; the exact factorization u = 1, b = g is reported
    save_matrix(tmp_path / "d.json", np.diag([1e300, 1e300]))
    code, out = run_cli(["qr-nest", "--matrix", str(tmp_path / "d.json")], capsys)
    assert code == 0
    report = _strict_json(out)
    assert report["residuals"] == {"reconstruction": 0.0, "unitarity": 0.0,
                                   "nest_membership": True, "condition_number": 1.0}
    assert np.array_equal(matrix_from_obj(report["u"]), np.eye(2))


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_non_hermitian_input_is_refused_at_every_scale(tmp_path, capsys, scale):
    save_matrix(tmp_path / "h.json", scale * np.array([[2.0, 0.0], [1.0, 2.0]]))
    code, out = run_cli(["ldl-nest", "--matrix", str(tmp_path / "h.json")], capsys)
    assert code == 1
    err = _strict_json(out)["error"]
    assert err["code"] == "input-error" and "a is not Hermitian" in err["message"]


# A fixed well-conditioned positive definite 4 x 4 matrix, a regular x0 with
# a rotated eigenflag, an hc point, and a rotated flag, maximal and with a 2 x 2 block
_SCALE_B = crandn(np.random.default_rng(41), 4, 4)
_SCALE_A = _SCALE_B @ _SCALE_B.conj().T / 4.0 + np.eye(4)
_SCALE_FLAG = Flag(np.linalg.qr(crandn(np.random.default_rng(43), 4, 4))[0], range(1, 5))
_SCALE_BLOCKED_FLAG = Flag(_SCALE_FLAG.basis, [1, 3, 4])
_SCALE_X0 = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 1.0j, 0.0],
                      [0.0, -1.0j, 1.0, 0.5], [0.0, 0.0, 0.5, -1.0]])
_SCALE_Z = np.array([[0.3, -0.2j], [0.1, 0.4]])


def _assert_cartan_x_moves_by_k_log_2(base, report, k):
    # x = log p of 2^k g is x + k log 2, up to the rounding of the logarithm
    x0, x = matrix_from_obj(base["x"]), matrix_from_obj(report["x"])
    eps = np.finfo(float).eps
    assert np.abs(x - x0 - k * np.log(2.0) * np.eye(4)).max() <= 16 * eps * abs(k)
    assert report["residuals"]["x_hermitian"] <= 16 * eps * np.linalg.norm(x)


def _scaled_report(tmp_path, capsys, argv, k):
    save_matrix(tmp_path / "a.json", np.ldexp(1.0, k) * _SCALE_A)
    save_matrix(tmp_path / "x0.json", _SCALE_X0)
    save_matrix(tmp_path / "z.json", _SCALE_Z)
    save_flag(tmp_path / "flag.json", _SCALE_FLAG)
    save_flag(tmp_path / "blocked.json", _SCALE_BLOCKED_FLAG)
    argv = [a.format(d=tmp_path) for a in argv] + ["--matrix", str(tmp_path / "a.json")]
    code, out = run_cli(argv, capsys)
    return code, _strict_json(out)


@pytest.mark.parametrize("argv", [
    ["ldl-nest"],
    ["qr-nest"],
    ["iwasawa", "--x0", "{d}/x0.json"],
    ["hc", "--split", "2,2", "--z", "{d}/z.json"],
    ["ldl-nest", "--flag", "{d}/flag.json"],
    ["qr-nest", "--flag", "{d}/flag.json"],
    ["truncate", "--flag", "{d}/flag.json", "--cuts", "1,3,4"],
    ["integral", "--flag", "{d}/flag.json"],
    ["qr-nest", "--flag", "{d}/blocked.json"],
    ["svalues"],
    ["norm", "--phi", "schatten:1"],
    ["norm", "--phi", "schatten:1.5"],
    ["norm", "--phi", "schatten:2"],
    ["norm", "--phi", "schatten:3"],
    ["norm", "--phi", "kyfan:3"],
    ["cartan", "--type", "A"],
], ids=["ldl-nest", "qr-nest", "iwasawa", "hc",
        "ldl-nest-flag", "qr-nest-flag", "truncate-flag", "integral-flag",
        "qr-nest-blocked-flag", "svalues", "norm-schatten-1", "norm-schatten-1.5",
        "norm-schatten-2", "norm-schatten-3", "norm-kyfan-3", "cartan"])
@pytest.mark.parametrize("k", [-600, 600])
def test_residuals_are_exact_under_power_of_two_scaling(tmp_path, capsys, argv, k):
    """2^k A factors as A does, every residual is the same relative number,
    and every verdict is the same; its singular values and norms are 2^k
    times A's, and its Cartan k is A's."""
    code0, base = _scaled_report(tmp_path, capsys, argv, 0)
    code, report = _scaled_report(tmp_path, capsys, argv, k)
    assert code == code0 == 0
    if "residuals" not in base:
        values = "norm" if "norm" in base else "singular_values"
        assert np.array_equal(report[values], np.ldexp(base[values], k))
        return
    res0, res = base["residuals"], report["residuals"]
    relative = "reconstruction" if "reconstruction" in res0 else "sum"
    assert res0[relative] > 0.0     # a rounding error to carry across scales
    assert res[relative] == res0[relative]
    for same in ("nilpotency_index", "nest_membership", "unitarity", "adjoint_lower",
                 "adjoint_diag", "k_unitarity", "k_in_group", "x_in_algebra"):
        assert res.get(same) == res0.get(same)
    if "x_hermitian" in res0:
        assert np.array_equal(matrix_from_obj(report["k"]), matrix_from_obj(base["k"]))
        _assert_cartan_x_moves_by_k_log_2(base, report, k)
    if "a_commutes_x0" in res0:
        assert res["a_commutes_x0"] == np.ldexp(res0["a_commutes_x0"], k)
    assert res.get("condition_number") == res0.get("condition_number")


_SCALE_ETA = np.sort(np.random.default_rng(44).exponential(size=9))[::-1]


@pytest.mark.parametrize("phi", ["schatten:1.5", "schatten:3", "kyfan:5"])
@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_dual_norms_are_exact_under_power_of_two_scaling(tmp_path, capsys, phi, k):
    """The dual estimate and closed form of 2^k eta are 2^k times eta's."""
    reports = []
    for scale in (0, k):
        path = tmp_path / f"eta{scale}.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in np.ldexp(_SCALE_ETA, scale)))
        code, out = run_cli(["dualnorm", "--phi", phi, "--sequence", str(path)], capsys)
        assert code == 0
        reports.append(_strict_json(out))
    base, report = reports
    for key in ("estimate", "closed_form"):
        assert report[key] == np.ldexp(base[key], k)


def _report_in_process(d, argv, a):
    save_matrix(d / "a.json", a)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--matrix", str(d / "a.json")])
    assert code == 0, out.getvalue()
    return _strict_json(out.getvalue())


# options, factors the same at every scale, factors times 2^k
_EQUIVARIANT = {
    "qr-nest": (["--flag", "{d}/flag.json"], ("u",), ("b",)),
    "ldl-nest": (["--flag", "{d}/flag.json"], ("r",), ("d",)),
    "truncate": (["--flag", "{d}/flag.json"], (), ("lower", "diag", "upper")),
    "integral": (["--flag", "{d}/flag.json"], (), ("lower", "diag", "upper")),
    "iwasawa": (["--x0", "{d}/x0.json"], ("k", "n"), ("a",)),
    "hc": (["--split", "2,2", "--z", "{d}/z.json"], ("zplus", "zminus", "action"),
           ("kappa", "cocycle")),
    "cartan": (["--type", "A"], ("k",), ()),
}


@settings(max_examples=140, deadline=None)
@given(command=st.sampled_from(sorted(_EQUIVARIANT)),
       dims=st.sampled_from([(1, 2, 3, 4), (1, 3, 4)]), k=st.integers(-600, 600))
def test_flag_factorizations_are_equivariant_under_power_of_two_scaling(command, dims, k):
    """Each matrix subcommand, on a rotated flag (maximal or with a 2 x 2
    block) where it takes one: 2^k A gives every residual and verdict of A
    bit for bit, the same unitary, nilpotent, unipotent or coordinate factor,
    and every other factor times 2^k.  An absolute residual scales with A,
    and cartan's x = log p moves by k log 2, which rounds."""
    options, fixed, scaled = _EQUIVARIANT[command]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_flag(d / "flag.json", Flag(_SCALE_FLAG.basis, dims))
        save_matrix(d / "x0.json", _SCALE_X0)
        save_matrix(d / "z.json", _SCALE_Z)
        argv = [command] + [a.format(d=d) for a in options]
        base = _report_in_process(d, argv, _SCALE_A)
        report = _report_in_process(d, argv, np.ldexp(1.0, k) * _SCALE_A)
    res0, res = dict(base["residuals"]), dict(report["residuals"])
    if "a_commutes_x0" in res0:
        assert res.pop("a_commutes_x0") == np.ldexp(res0.pop("a_commutes_x0"), k)
    if "x_hermitian" in res0:
        _assert_cartan_x_moves_by_k_log_2(base, report, k)
        del res0["x_hermitian"], res["x_hermitian"]
    assert res == res0
    assert report.get("domain") == base.get("domain")
    for name in fixed:
        assert np.array_equal(matrix_from_obj(report[name]), matrix_from_obj(base[name]))
    for name in scaled:
        assert np.array_equal(matrix_from_obj(report[name]),
                              np.ldexp(1.0, k) * matrix_from_obj(base[name]))


@pytest.mark.parametrize("rotated", [False, True], ids=["standard", "rotated"])
@pytest.mark.parametrize("command", ["truncate", "integral"])
def test_residuals_of_the_zero_matrix_are_zero(tmp_path, capsys, command, rotated):
    # the only input whose relative residual has a zero reference: the other
    # matrix subcommands reject a zero matrix
    save_matrix(tmp_path / "x.json", np.zeros((3, 3)))
    argv = [command, "--matrix", str(tmp_path / "x.json")]
    if rotated:
        q = np.linalg.qr(crandn(np.random.default_rng(47), 3, 3))[0]
        save_flag(tmp_path / "flag.json", Flag(q, [1, 3]))
        argv += ["--flag", str(tmp_path / "flag.json")]
    code, out = run_cli(argv, capsys)
    assert code == 0
    residuals = _strict_json(out)["residuals"]
    assert residuals and all(v == 0.0 for v in residuals.values())


def test_unwritable_output_is_an_io_error_on_stdout(workdir, capsys):
    for argv in (["svalues", "--matrix", str(workdir / "m.json")],
                 ["svalues", "--matrix", str(workdir / "missing.json")]):
        code, out = run_cli(argv + ["--output", str(workdir / "no" / "r.json")], capsys)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["code"] == "io-error" and "r.json" in err["message"]


@pytest.mark.parametrize("gc_before", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, outcome", [
    (["svalues", "--matrix", "{m}"], 0),
    (["svalues", "--matrix", "{bad}"], "input-error"),
    (["cartan", "--type", "B", "--matrix", "{huge}"], "domain-error"),
    (["svalues", "--matrix", "{missing}"], "io-error"),
    (["svalues", "--matrix", "{m}", "--output", "{missing}/r.json"], "io-error"),
    (["svalues", "--matrix", "{m}", "--bogus"], 2),
], ids=["report", "input-error", "domain-error", "io-error", "output-io-error", "argparse"])
def test_main_restores_the_callers_gc_state(workdir, capsys, monkeypatch, gc_before,
                                            argv, outcome):
    import gc
    from opideal import serialize
    (workdir / "bad.json").write_text('{"rows": 1, "cols": 1, "data": [[1.0]]}')
    save_matrix(workdir / "huge.json", np.diag([1e300, 1e300]))
    paths = {k: workdir / f"{k}.json" for k in ("m", "bad", "huge", "missing")}
    argv = [a.format(**paths) for a in argv]
    seen = []
    load = serialize.load_matrix
    monkeypatch.setattr(serialize, "load_matrix",
                        lambda path: seen.append(gc.isenabled()) or load(path))
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    try:
        gc.enable() if gc_before else gc.disable()
        if outcome == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
        else:
            code = main(argv)
        after = gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()
    assert after is gc_before
    assert gc.get_freeze_count() == frozen      # only the process entry freezes
    assert seen == ([] if outcome == 2 else [False])    # paused while the command runs
    out = capsys.readouterr().out
    if isinstance(outcome, int):
        assert code == outcome
    else:
        assert code == 1 and json.loads(out)["error"]["code"] == outcome


@pytest.mark.parametrize("argv, message", [
    (["boyd", "--mmax", "2", "--cap", "513"], "seq_len 513 exceeds the limit 512"),
    (["boyd", "--mmax", "10**12", "--cap", "10**12"], "exceeds the limit 512"),
    (["experiment", "truncation-growth", "--sizes", "4,257", "--trials", "1"],
     "size 257 exceeds the limit 256"),
    (["experiment", "truncation-growth", "--sizes", "10**12"], "exceeds the limit 256"),
    (["experiment", "truncation-growth", "--sizes", "4", "--trials", "1001"],
     "trials 1001 exceed the limit 1000"),
    (["experiment", "truncation-growth", "--sizes", "4", "--trials", "10**12"],
     "exceed the limit 1000"),
    (["experiment", "truncation-growth", "--sizes", "256,256", "--trials", "1000"],
     "over the limit 1000 x 256^3"),
    (["experiment", "truncation-growth", "--sizes", ",".join(["1"] * 257)],
     "257 sizes exceed the limit 256"),
], ids=["boyd-cap-513", "boyd-huge", "experiment-size-257", "experiment-size-huge",
        "experiment-trials-1001", "experiment-trials-huge", "experiment-work",
        "experiment-entries"])
def test_scan_and_experiment_caps_refuse_before_building(capsys, argv, message):
    argv = [str(10 ** 12) if a == "10**12" else a for a in argv]
    tracemalloc.start()
    try:
        code, out = run_cli(argv + ["--phi", "schatten:1"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "input-error"
    assert message in err["message"]
    assert peak < 2**20        # one 257 x 257 complex trial matrix is 1 MB


@pytest.mark.parametrize("spec", ["z" + "9" * 5000, "z1025", "d513", "{file}"],
                         ids=["z-5000-digits", "z1025", "d513", "json-order-1025"])
def test_group_order_cap_refuses_before_building(workdir, capsys, spec):
    big = workdir / "big.json"
    big.write_text(json.dumps({"order": 1025, "table": []}))
    tracemalloc.start()
    try:
        code, out = run_cli(["mean", "--group", spec.format(file=big)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "input-error"
    assert "exceeds the limit 1024" in err["message"]
    assert peak < 2**20        # a 1025-element Cayley table alone is 8 MB


def test_group_name_with_non_decimal_digits_is_input_error(capsys):
    code, out = run_cli(["mean", "--group", "z\u00b2"], capsys)   # superscript two
    assert code == 1
    assert json.loads(out)["error"]["code"] == "input-error"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_every_subcommand_has_help(capsys):
    from opideal.cli import build_parser
    sub_names = ["svalues", "norm", "dualnorm", "boyd", "truncate", "integral",
                 "ldl-nest", "qr-nest", "cartan", "iwasawa", "hc", "mean",
                 "gns", "arens", "experiment"]
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert set(sub_names) <= set(actions[0].choices)
    for name in sub_names:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()


def test_output_file(workdir, capsys):
    out_path = workdir / "report.json"
    code, _ = run_cli(["norm", "--phi", "schatten:1",
                       "--matrix", str(workdir / "m.json"),
                       "--output", str(out_path)], capsys)
    assert code == 0
    assert "norm" in json.loads(out_path.read_text())


def _run_subprocess(args):
    return subprocess.run([sys.executable, "-m", "opideal", *args], capture_output=True)


_IMPORT_GUARD = r"""
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())

from opideal import default_structure, random_group_element
from opideal.cli import build_parser, main

d = sys.argv[1] + "/"
out = d + "guard-report.json"
commands = {
    "svalues": ["--matrix", d + "m.json"],
    "norm": ["--phi", "kyfan:2", "--matrix", d + "m.json"],
    "dualnorm": ["--phi", "schatten:3", "--sequence", d + "eta.csv"],
    "boyd": ["--phi", "schatten:2", "--mmax", "4", "--cap", "8"],
    "truncate": ["--matrix", d + "m.json", "--flag", d + "flag.json", "--cuts", "2,4"],
    "integral": ["--matrix", d + "m.json"],
    "ldl-nest": ["--matrix", d + "a.json"],
    "qr-nest": ["--matrix", d + "g.json"],
    "cartan": ["--type", "A", "--matrix", d + "g.json"],
    "iwasawa": ["--matrix", d + "g.json"],
    "hc": ["--matrix", d + "g.json", "--split", "2,2", "--z", d + "z.json"],
    "mean": ["--group", "s3"],
    "gns": ["--group", "z3"],
    "arens": ["--group", "s3", "--mu", d + "mu.json", "--nu", d + "nu.json"],
    "experiment": ["truncation-growth", "--phi", "schatten:1", "--sizes", "2,3",
                   "--trials", "2"],
}
choices = next(a.choices for a in build_parser()._actions if a.choices)
assert set(choices) == set(commands), sorted(choices)
for name, args in commands.items():
    assert main([name, *args, "--output", out]) == 0, name
random_group_element("AIII", default_structure("AIII", 4, (2, 2)), seed=3)
"""


def test_no_subcommand_imports_scipy(workdir):
    # scipy is a test dependency only: with every scipy import refused, one
    # interpreter runs all subcommands and samples a group element.
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(workdir)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_ENTRY_WITH_FREEZE_PROBE = r"""
import atexit, gc, runpy, sys
# atexit handlers run before finalization's collections
atexit.register(lambda: sys.stderr.write(f"frozen={gc.get_freeze_count()}\n"))
sys.argv = ["opideal", *sys.argv[1:]]
runpy.run_module("opideal", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("args", [
    ["svalues", "--matrix", "{d}/m.json"],
    ["svalues", "--matrix", "{d}/missing.json"],
], ids=["report", "io-error"])
def test_module_entry_freezes_the_import_heap(workdir, capsys, args):
    args = [a.format(d=workdir) for a in args]
    proc = subprocess.run([sys.executable, "-c", _ENTRY_WITH_FREEZE_PROBE, *args],
                          capture_output=True)
    frozen = proc.stderr.decode().splitlines()[-1]
    assert frozen.startswith("frozen=") and int(frozen[len("frozen="):]) > 0
    code, out = run_cli(args, capsys)
    assert proc.returncode == code
    assert proc.stdout == out.encode()


_ENTRY_WITH_GC_PROBE = r"""
import gc, json, os, sys
gc.enable() if sys.argv.pop(1) == "on" else gc.disable()
enabled = gc.isenabled()
gc.collect()    # empty generations: only what follows can start a pass
passes = []     # the freeze count at the start of each pass
gc.callbacks.append(lambda phase, info: phase == "start"
                    and passes.append(gc.get_freeze_count()))
numpy_at_freeze = []
freeze = gc.freeze
gc.freeze = lambda: numpy_at_freeze.append("numpy" in sys.modules) or freeze()
import opideal.__main__ as entry
assert gc.isenabled() is enabled, "importing the entry changed the GC state"
sys.argv = ["opideal", *sys.argv[1:]]
cli_source = os.path.join("opideal", "cli.py")
parsers = []    # the calls of cli.build_parser
sys.setprofile(lambda frame, event, arg: event == "call"
               and frame.f_code.co_name == "build_parser"
               and frame.f_code.co_filename.endswith(cli_source) and parsers.append(1))
status = entry.run()
sys.setprofile(None)
assert gc.isenabled() is enabled, "the entry changed the GC state"
sys.stderr.write(json.dumps({"unfrozen passes": passes.count(0),
                             "numpy at freeze": numpy_at_freeze,
                             "parsers built": len(parsers)}) + "\n")
sys.exit(status)
"""


@pytest.mark.parametrize("gc_before", ["on", "off"])
def test_module_entry_imports_with_the_collector_paused(gc_before):
    # no GC pass runs before the freeze: importing the package and the entry
    # imports no numpy, and run() pauses the collector around the rest; argv
    # is parsed once, and numpy is loaded before the freeze
    proc = subprocess.run([sys.executable, "-c", _ENTRY_WITH_GC_PROBE, gc_before,
                           "mean", "--group", "q8"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == {
        "unfrozen passes": 0, "numpy at freeze": [True], "parsers built": 1}


def test_console_script_is_the_module_entry():
    import importlib
    tomllib = pytest.importorskip("tomllib")   # stdlib from Python 3.11
    from pathlib import Path
    import opideal.__main__ as entry
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["opideal"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is entry.run


def test_byte_identical_reports(workdir):
    args = ["experiment", "truncation-growth", "--phi", "schatten:1",
            "--sizes", "2,4,8", "--trials", "6", "--seed", "11"]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    other = _run_subprocess(args[:-1] + ["12"])
    assert first.returncode == second.returncode == other.returncode == 0
    assert first.stdout == second.stdout
    assert other.stdout != first.stdout


def test_the_environment_does_not_seed_the_experiment(capsys, monkeypatch):
    # the seed is --seed, else 1729: no environment variable takes part
    argv = ["experiment", "truncation-growth", "--phi", "schatten:1",
            "--sizes", "2,4", "--trials", "6"]
    outputs = []
    for env in (None, "123", "-2", "abc"):
        if env is None:
            monkeypatch.delenv("OPIDEAL_SEED", raising=False)
        else:
            monkeypatch.setenv("OPIDEAL_SEED", env)
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert main(argv + ["--seed", "1729"]) == 0
    outputs.append(capsys.readouterr())
    assert len(set(outputs)) == 1 and outputs[0].err == ""


@pytest.mark.parametrize("seed, env, source", [
    (["--seed", "-5"], None, "--seed"),
    (["--seed", "-1"], "3", "--seed"),
], ids=["flag", "flag-over-env"])
def test_negative_seed_is_input_error(capsys, monkeypatch, seed, env, source):
    if env is None:
        monkeypatch.delenv("OPIDEAL_SEED", raising=False)
    else:
        monkeypatch.setenv("OPIDEAL_SEED", env)
    code = main(["experiment", "truncation-growth", "--phi", "schatten:1",
                 "--sizes", "4", "--trials", "2", *seed])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["code"] == "input-error"
    assert err["message"].startswith(f"{source} must be a nonnegative integer")


@pytest.mark.parametrize("argv", [
    ["dualnorm", "--phi", "schatten:3", "--sequence", "{eta}"],
    ["boyd", "--phi", "schatten:1.5", "--mmax", "8", "--cap", "16"],
], ids=["dualnorm", "boyd"])
def test_gauge_reports_draw_nothing_and_ignore_the_seed(workdir, capsys, monkeypatch,
                                                         argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a gauge report drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    argv = [a.format(eta=workdir / "eta.csv") for a in argv]
    outputs = []
    for seed, env in ((["--seed", "1"], None), (["--seed", "2"], None),
                      ([], None), ([], "5"), (["--seed", "-1"], None)):
        if env is None:
            monkeypatch.delenv("OPIDEAL_SEED", raising=False)
        else:
            monkeypatch.setenv("OPIDEAL_SEED", env)
        assert main(argv + seed) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
