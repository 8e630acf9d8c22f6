"""Output checks: each report against an independent numpy recomputation.

``check(request, stdout, arrays)`` returns None when the report is right and
a one-line reason otherwise.  Nothing here imports opideal: factors are
verified by reconstruction and by their structure in the flag's adapted
basis, singular values and gauges by ``np.linalg.svd``, group results from
Cayley tables built here.  The tolerances are pinned; each sits well above
the rounding seen at the benchmark's sizes and well below any real defect.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

RECON_RTOL = 1e-9       # relative Frobenius error of a reconstruction
STRUCT_RTOL = 1e-9      # entries outside a factor's pattern, relative to its norm
UNITARY_TOL = 1e-9      # ||u* u - 1||_F / sqrt(n)
VALUE_RTOL = 1e-10      # singular values, gauges, closed forms, dilation norms
DUAL_GAP_RTOL = 1e-6    # numeric dual estimate below the closed form
GROUP_ATOL = 1e-9       # characters, means, convolution weights


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _mat(obj) -> np.ndarray:
    pairs = np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"], 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _dag(a):
    return a.conj().T


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _close(a, b, rtol: float, what: str) -> None:
    err = _rel(a, b)
    _require(err <= rtol, f"{what}: relative error {err:.3e} > {rtol:g}")


def _unitary(u, what: str) -> None:
    n = u.shape[0]
    err = np.linalg.norm(_dag(u) @ u - np.eye(n)) / math.sqrt(n)
    _require(err <= UNITARY_TOL, f"{what} not unitary ({err:.3e})")


def _block_index(cuts, n: int) -> np.ndarray:
    idx = np.zeros(n, dtype=int)
    lo = 0
    for i, hi in enumerate(cuts):
        idx[lo:hi] = i
        lo = hi
    return idx


def _masks(cuts, n: int) -> dict:
    idx = _block_index(cuts, n)
    return {"diag": idx[:, None] == idx[None, :],
            "upper": idx[:, None] < idx[None, :],
            "lower": idx[:, None] > idx[None, :]}


def _pattern(part, keep, basis, scale: float, what: str) -> np.ndarray:
    """Part in the adapted basis; entries outside ``keep`` must vanish."""
    y = part if basis is None else _dag(basis) @ part @ basis
    off = float(np.abs(np.where(keep, 0.0, y)).max(initial=0.0))
    _require(off <= STRUCT_RTOL * scale, f"{what} leaves its pattern ({off:.3e})")
    return y


def _basis(arrays, path):
    return None if path is None else arrays[path]


def _eig_basis_desc(x0) -> np.ndarray:
    _, w = np.linalg.eigh((x0 + _dag(x0)) / 2.0)
    return w[:, ::-1]


# --- matrix subcommands ---------------------------------------------------

def _svalues(rep, exp, arrays):
    s = np.linalg.svd(arrays[exp["matrix"]], compute_uv=False)
    got = np.asarray(rep["singular_values"], dtype=float)
    _require(got.shape == s.shape, "wrong number of singular values")
    _require(np.abs(got - s).max() <= VALUE_RTOL * s[0], "singular values differ from svd")


def _gauge(phi: str, s: np.ndarray) -> float:
    kind, param = phi.split(":")
    if kind == "kyfan":
        return float(s[: int(param)].sum())
    p = float(param)
    return float((s ** p).sum() ** (1.0 / p))


def _norm(rep, exp, arrays):
    s = np.linalg.svd(arrays[exp["matrix"]], compute_uv=False)
    want = _gauge(exp["phi"], s)
    _require(abs(rep["norm"] - want) <= VALUE_RTOL * want, "norm differs from the gauge of svd")


def _split_parts(rep, exp, arrays, cuts):
    x = arrays[exp["matrix"]]
    n = x.shape[0]
    basis = _basis(arrays, exp["flag"])
    masks = _masks(cuts, n)
    scale = float(np.linalg.norm(x))
    total = 0
    for name, keep in masks.items():
        part = _mat(rep[name])
        _pattern(part, keep, basis, scale, name)
        total = total + part
    _close(total, x, RECON_RTOL, "parts do not sum to the input")


def _truncate(rep, exp, arrays):
    cuts = [int(c) for c in exp["cuts"].split(",")]
    _require(rep["cuts"] == cuts, "cuts not echoed")
    _split_parts(rep, exp, arrays, cuts)


def _integral(rep, exp, arrays):
    n = arrays[exp["matrix"]].shape[0]
    _split_parts(rep, exp, arrays, list(range(1, n + 1)))


def _ldl_nest(rep, exp, arrays):
    a = arrays[exp["matrix"]]
    n = a.shape[0]
    basis = _basis(arrays, exp["flag"])
    masks = _masks(rep["cuts"], n)
    r, d = _mat(rep["r"]), _mat(rep["d"])
    scale = float(np.linalg.norm(a))
    _pattern(r, masks["upper"], basis, scale, "r")
    _pattern(d, masks["diag"], basis, scale, "d")
    _close(d, _dag(d), STRUCT_RTOL, "d not Hermitian")
    _require(np.linalg.eigvalsh((d + _dag(d)) / 2.0)[0] > 0.0, "d not positive definite")
    one = np.eye(n)
    _close((one + r) @ d @ _dag(one + r), a, RECON_RTOL, "(1+r) d (1+r*) != a")


def _qr_nest(rep, exp, arrays):
    g = arrays[exp["matrix"]]
    n = g.shape[0]
    basis = _basis(arrays, exp["flag"])
    u, b = _mat(rep["u"]), _mat(rep["b"])
    _unitary(u, "u")
    bt = _pattern(b, _masks(range(1, n + 1), n)["upper"] | np.eye(n, dtype=bool),
                  basis, float(np.linalg.norm(g)), "b")
    diag = np.diag(bt)
    _require(np.all(diag.real > 0.0)
             and np.abs(diag.imag).max() <= STRUCT_RTOL * np.abs(diag).max(),
             "b's diagonal is not positive")
    _close(u @ b, g, RECON_RTOL, "u b != g")
    _require(rep["residuals"]["nest_membership"] is True, "nest_membership not reported true")


def _cartan(rep, exp, arrays):
    g = arrays[exp["matrix"]]
    k, x = _mat(rep["k"]), _mat(rep["x"])
    _unitary(k, "k")
    _close(x, _dag(x), STRUCT_RTOL, "x not Hermitian")
    lam, v = np.linalg.eigh((x + _dag(x)) / 2.0)
    _close(k @ (v * np.exp(lam)) @ _dag(v), g, RECON_RTOL, "k exp(x) != g")


def _iwasawa(rep, exp, arrays):
    g = arrays[exp["matrix"]]
    n = g.shape[0]
    x0 = arrays[exp["x0"]] if exp["x0"] else np.diag(np.arange(n, 0, -1)).astype(complex)
    w = _eig_basis_desc(x0)
    k, a, nn = _mat(rep["k"]), _mat(rep["a"]), _mat(rep["n"])
    _unitary(k, "k")
    scale = float(np.linalg.norm(g))
    at = _pattern(a, np.eye(n, dtype=bool), w, scale, "a")
    _require(np.all(np.diag(at).real > 0.0), "a not positive")
    nt = _pattern(nn, np.triu(np.ones((n, n), dtype=bool)), w, float(np.linalg.norm(nn)), "n")
    _require(np.abs(np.diag(nt) - 1.0).max() <= STRUCT_RTOL * math.sqrt(n), "n not unipotent")
    _close(k @ a @ nn, g, RECON_RTOL, "k a n != g")


def _hc_blocks(g, p):
    return g[:p, :p], g[:p, p:], g[p:, :p], g[p:, p:]


def _hc_kappa(g, p):
    a, b, c, d = _hc_blocks(g, p)
    kappa = np.zeros_like(g)
    kappa[:p, :p] = a - b @ np.linalg.solve(d, c)
    kappa[p:, p:] = d
    return kappa


def _hc(rep, exp, arrays):
    g = arrays[exp["matrix"]]
    n = g.shape[0]
    p = exp["p"]
    zp, kappa, zm = _mat(rep["zplus"]), _mat(rep["kappa"]), _mat(rep["zminus"])
    keep = np.zeros((n, n), dtype=bool)
    keep[:p, :p] = keep[p:, p:] = True
    _pattern(kappa, keep, None, float(np.linalg.norm(g)), "kappa")
    up, low = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
    up[:p, p:] = zp
    low[p:, :p] = zm
    _close(up @ kappa @ low, g, RECON_RTOL, "unipotent-diagonal-unipotent product != g")
    _require(rep.get("domain") is True, "z not reported inside the domain")
    z = arrays[exp["z"]]
    a, b, c, d = _hc_blocks(g, p)
    _close(_mat(rep["action"]), (a @ z + b) @ np.linalg.inv(c @ z + d), RECON_RTOL, "action")
    uz = np.eye(n, dtype=complex)
    uz[:p, p:] = z
    _close(_mat(rep["cocycle"]), _hc_kappa(g @ uz, p), RECON_RTOL, "cocycle")


# --- gauges ---------------------------------------------------------------

def _dualnorm(rep, exp, arrays):
    eta = arrays[exp["sequence"]]
    kind, param = exp["phi"].split(":")
    if kind == "schatten":
        p = float(param)
        q = p / (p - 1.0)
        closed = float((eta ** q).sum() ** (1.0 / q))
        _require(rep["closed_form"] is not None
                 and abs(rep["closed_form"] - closed) <= VALUE_RTOL * closed,
                 "closed form differs from the ell^q value")
    else:
        # Ky Fan k: the dual gauge is max(eta_1, sum(eta) / k).
        closed = max(float(eta[0]), float(eta.sum()) / int(param))
        _require(rep["closed_form"] is None
                 or abs(rep["closed_form"] - closed) <= VALUE_RTOL * closed,
                 "closed form differs from max(eta_1, sum/k)")
    est = rep["estimate"]
    _require(est <= closed * (1.0 + VALUE_RTOL), "estimate exceeds the closed form")
    _require(est >= closed * (1.0 - DUAL_GAP_RTOL),
             f"estimate {est!r} below closed form {closed!r} by more than {DUAL_GAP_RTOL:g}")


def _boyd(rep, exp, arrays):
    p = exp["p"]
    _require(rep["m_max"] == exp["mmax"] and rep["seq_len"] == exp["cap"], "scan sizes")
    norms = rep["dilation_norms"]
    _require(sorted(int(m) for m in norms) == list(range(2, exp["mmax"] + 1)), "dilation keys")
    for m, v in norms.items():
        want = int(m) ** (1.0 / p)
        _require(abs(v - want) <= VALUE_RTOL * want, f"dilation norm at m={m} is not m^(1/p)")
    _require(abs(rep["p_hat"] - p) <= VALUE_RTOL * p, "p_hat != p")


def _experiment(stdout: str, exp):
    lines = stdout.splitlines()
    _require(lines[0] == "n,ratio", "csv header")
    rows = [line.split(",") for line in lines[1:]]
    _require([int(n) for n, _ in rows] == exp["sizes"], "csv sizes")
    for n, r in rows:
        ratio = float(r)
        # ||upper(X)||_1 <= sqrt(n) ||upper(X)||_2 <= sqrt(n) ||X||_1
        _require(0.0 < ratio <= math.sqrt(int(n)) * (1.0 + VALUE_RTOL),
                 f"ratio {ratio!r} at n={n} outside (0, sqrt(n)]")


# --- groups ---------------------------------------------------------------

def group_table(spec: str, arrays) -> np.ndarray:
    """Cayley table of a builtin group name (same element order as the CLI
    documents: z<n> residues, d<n> (rotation, flip), s<n> sorted
    permutations under composition) or of a benchmark-written JSON file."""
    if spec in arrays:
        return arrays[spec]
    kind, n = spec[0], int(spec[1:])
    if kind == "z":
        i = np.arange(n)
        return (i[:, None] + i[None, :]) % n
    if kind == "d":
        rot = np.tile(np.arange(n), 2)
        flip = np.repeat([0, 1], n)
        a2 = np.where(flip[:, None] == 0, rot[None, :], -rot[None, :])
        return ((rot[:, None] + a2) % n) + n * ((flip[:, None] + flip[None, :]) % 2)
    perms = sorted(itertools.permutations(range(n)))
    index = {q: i for i, q in enumerate(perms)}
    return np.array([[index[tuple(p[q[i]] for i in range(n))] for q in perms]
                     for p in perms])


def _order(spec: str, arrays) -> int:
    if spec == "q8":
        return 8
    return group_table(spec, arrays).shape[0]


def _identity(table) -> int:
    n = table.shape[0]
    rows = np.nonzero((table == np.arange(n)).all(axis=1))[0]
    return int(rows[0])


def _weights(obj) -> np.ndarray:
    w = np.asarray(obj, dtype=float)
    return w[:, 0] + 1j * w[:, 1]


def _mean(rep, exp, arrays):
    n = _order(exp["group"], arrays)
    _require(rep["order"] == n, "order")
    _require(rep["unique"] is True, "mean not reported unique")
    _require(np.abs(_weights(rep["weights"]) - 1.0 / n).max() <= GROUP_ATOL,
             "weights are not uniform")


def _gns(rep, exp, arrays):
    table = group_table(exp["group"], arrays)
    n = table.shape[0]
    _require(rep["dim"] == n, "dimension is not the group order")
    want = np.zeros(n, dtype=complex)
    want[_identity(table)] = n
    _require(np.abs(_weights(rep["character"]) - want).max() <= GROUP_ATOL,
             "character is not the regular character")
    _require(rep["matches_regular_character"] is True, "regular match not reported")


def _arens(rep, exp, arrays):
    table = group_table(exp["group"], arrays)
    mu, nu = arrays[exp["mu"]], arrays[exp["nu"]]
    want = np.zeros(table.shape[0], dtype=complex)
    np.add.at(want, table.ravel(), np.outer(mu, nu).ravel())
    err = np.abs(_weights(rep["weights"]) - want).max()
    _require(err <= GROUP_ATOL * max(1.0, np.abs(want).max()), "weights are not the convolution")


_JSON_CHECKS = {
    "svalues": _svalues, "norm": _norm, "truncate": _truncate, "integral": _integral,
    "ldl-nest": _ldl_nest, "qr-nest": _qr_nest, "cartan": _cartan, "iwasawa": _iwasawa,
    "hc": _hc, "dualnorm": _dualnorm, "boyd": _boyd, "mean": _mean, "gns": _gns,
    "arens": _arens,
}


def check(request, stdout: bytes, arrays) -> str | None:
    """None if the report is correct, else the reason it is not."""
    try:
        text = stdout.decode()
        if request.command == "experiment":
            _experiment(text, request.expect)
        else:
            rep = json.loads(text)
            _require(isinstance(rep, dict) and "error" not in rep, "error report")
            _JSON_CHECKS[request.command](rep, request.expect, arrays)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable report: {type(exc).__name__}: {exc}"
    return None
