"""Command-line interface: subcommands, schemas, exit codes, determinism."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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


def test_group_json_and_structure_schemas(tmp_path):
    from opideal import cyclic_group
    from opideal.serialize import (group_from_obj, resolve_group,
                                   structure_from_obj)
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

    typ, st = structure_from_obj({"type": "AIII", "n": 4, "split": [2, 2]})
    assert typ == "AIII" and st.split == (2, 2)
    with pytest.raises(InputError, match="split"):
        structure_from_obj({"type": "AIII", "n": 4, "split": [4]})
    with pytest.raises(InputError, match="type"):
        structure_from_obj({"n": 4})


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
    (["cartan", "--type", "A"], [1e-301]),           # g* g underflows to a zero divisor
    (["qr-nest"], [1e300, 1e300]),                   # the residual norms overflow
], ids=["cartan-overflow", "cartan-underflow", "qr-nest-overflow"])
def test_computations_leaving_the_double_range_are_domain_errors(tmp_path, capsys, argv,
                                                                 entries):
    save_matrix(tmp_path / "d.json", np.diag(entries))
    code, out = run_cli(argv + ["--matrix", str(tmp_path / "d.json")], capsys)
    assert code == 1
    assert _strict_json(out)["error"] == {
        "code": "domain-error", "message": "a computed value is not a finite double"}


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
    (["qr-nest", "--matrix", "{huge}"], "domain-error"),
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


def test_structure_loader_rejects_malformed_json(tmp_path):
    from opideal.serialize import load_structure
    path = tmp_path / "s.json"
    path.write_text('{"type": "AIII", "n": 4,')
    with pytest.raises(InputError, match="not valid JSON"):
        load_structure(path)
    path.write_text('{"type": "AIII", "n": false}')
    with pytest.raises(InputError, match="'n'"):
        load_structure(path)
    path.write_text('{"type": "AIII", "n": 4, "split": ["2", 2]}')
    with pytest.raises(InputError, match="split"):
        load_structure(path)


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


def _run_subprocess(args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "opideal", *args],
                          capture_output=True, env=env)


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


def test_byte_identical_reports(workdir):
    args = ["experiment", "truncation-growth", "--phi", "schatten:1",
            "--sizes", "2,4,8", "--trials", "6", "--seed", "11"]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_env_seed_override(workdir):
    base = ["experiment", "truncation-growth", "--phi", "schatten:1",
            "--sizes", "2,4,8", "--trials", "6"]
    via_env = _run_subprocess(base, env_extra={"OPIDEAL_SEED": "123"})
    via_flag = _run_subprocess(base + ["--seed", "123"])
    other = _run_subprocess(base + ["--seed", "124"])
    assert via_env.returncode == via_flag.returncode == other.returncode == 0
    assert via_env.stdout == via_flag.stdout
    assert other.stdout != via_flag.stdout


@pytest.mark.parametrize("seed, env, source", [
    (["--seed", "-5"], None, "--seed"),
    ([], "-2", "OPIDEAL_SEED"),
    (["--seed", "-1"], "3", "--seed"),
], ids=["flag", "env", "flag-over-env"])
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
