"""Workload definitions: seeded input files and the request list of each workload.

Every input the CLI reads is written here from the benchmark's seed, so the
program sees only generated files.  A request is the argv after
``python -m opideal`` plus an ``expect`` record that ``checks.py`` uses to
verify the report against an independent numpy recomputation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli-small", "matrix-large", "groups-gauges")


@dataclass
class Request:
    """One CLI invocation: argv for ``python -m opideal`` and what to expect."""

    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(rng, n):
    """Haar-distributed unitary: QR of a complex Gaussian with phases fixed."""
    q, r = np.linalg.qr(_crandn(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _matrix_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    data = np.stack([m.real.ravel(), m.imag.ravel()], axis=1).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


class _Writer:
    """Writes input files under one directory and remembers the arrays."""

    def __init__(self, root: str, rel_dir: str):
        self.root = root
        self.rel_dir = rel_dir
        self.arrays = {}
        os.makedirs(os.path.join(root, rel_dir), exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.rel_dir, name)

    def json(self, name: str, obj) -> str:
        rel = self._path(name)
        with open(os.path.join(self.root, rel), "w") as fh:
            json.dump(obj, fh)
        return rel

    def matrix(self, name: str, m) -> str:
        rel = self.json(name, _matrix_obj(m))
        self.arrays[rel] = np.asarray(m, dtype=complex)
        return rel

    def flag(self, name: str, q) -> str:
        n = q.shape[0]
        rel = self.json(name, {"basis": _matrix_obj(q), "dims": list(range(1, n + 1))})
        self.arrays[rel] = np.asarray(q, dtype=complex)
        return rel

    def sequence(self, name: str, values) -> str:
        rel = self._path(name)
        with open(os.path.join(self.root, rel), "w") as fh:
            fh.write("".join(f"{float(v)!r}\n" for v in values))
        self.arrays[rel] = np.asarray(values, dtype=float)
        return rel

    def functional(self, name: str, w) -> str:
        rel = self.json(name, {"weights": np.stack([w.real, w.imag], axis=1).tolist()})
        self.arrays[rel] = np.asarray(w, dtype=complex)
        return rel


class _MatrixSet:
    """Inputs of one size: a generic matrix, a positive definite one, a random
    unitary flag, a regular Hermitian x0 with that eigenflag, and an hc point."""

    def __init__(self, w: _Writer, rng, n: int):
        self.n = n
        # Shifted off the singular matrices (condition number about 3), so the
        # checks' pinned tolerances hold for every seed.
        g = _crandn(rng, n, n) + 2.0 * np.sqrt(n) * np.eye(n)
        q = _unitary(rng, n)
        h = q @ np.diag(np.arange(n, 0, -1).astype(float)) @ q.conj().T
        self.g = w.matrix(f"g{n}.json", g)
        self.a = w.matrix(f"a{n}.json", g @ g.conj().T / n + np.eye(n))
        self.flag = w.flag(f"flag{n}.json", q)
        self.x0 = w.matrix(f"x0_{n}.json", (h + h.conj().T) / 2.0)
        self.z = w.matrix(f"z{n}.json", 0.5 * _crandn(rng, n // 2, n - n // 2))

    def quarters(self) -> str:
        n = self.n
        return f"{n // 4},{n // 2},{n}"


def _matrix_requests(s: _MatrixSet, which: dict) -> list:
    """Matrix subcommands on one size.  ``which`` maps a command to "std" or
    "rot" (standard or random flag; ``--x0`` for iwasawa), to the gauge for
    norm, or to None."""
    reqs = []
    for cmd, kind in which.items():
        flag_args = ["--flag", s.flag] if kind == "rot" else []
        flag_exp = {"flag": s.flag if kind == "rot" else None}
        if cmd == "svalues":
            reqs.append(Request(["svalues", "--matrix", s.g], {"matrix": s.g}))
        elif cmd.startswith("norm"):
            reqs.append(Request(["norm", "--phi", kind, "--matrix", s.g],
                                {"matrix": s.g, "phi": kind}))
        elif cmd == "truncate":
            cuts = s.quarters()
            reqs.append(Request(["truncate", "--matrix", s.g, "--cuts", cuts] + flag_args,
                                dict(flag_exp, matrix=s.g, cuts=cuts)))
        elif cmd == "integral":
            reqs.append(Request(["integral", "--matrix", s.g] + flag_args,
                                dict(flag_exp, matrix=s.g)))
        elif cmd == "ldl-nest":
            reqs.append(Request(["ldl-nest", "--matrix", s.a] + flag_args,
                                dict(flag_exp, matrix=s.a)))
        elif cmd == "qr-nest":
            reqs.append(Request(["qr-nest", "--matrix", s.g] + flag_args,
                                dict(flag_exp, matrix=s.g)))
        elif cmd == "cartan":
            reqs.append(Request(["cartan", "--type", "A", "--matrix", s.g], {"matrix": s.g}))
        elif cmd == "iwasawa":
            x0_args = ["--x0", s.x0] if kind == "rot" else []
            reqs.append(Request(["iwasawa", "--matrix", s.g] + x0_args,
                                {"matrix": s.g, "x0": s.x0 if kind == "rot" else None}))
        elif cmd == "hc":
            p = s.n // 2
            reqs.append(Request(["hc", "--matrix", s.g, "--split", f"{p},{s.n - p}",
                                 "--z", s.z], {"matrix": s.g, "p": p, "z": s.z}))
        else:
            raise ValueError(cmd)
    return reqs


def _sorted_sequence(rng, length: int):
    return np.sort(rng.exponential(size=length))[::-1]


def _dihedral16_by_z4_table(rng):
    """Cayley table of D8 x Z4 (order 64, non-abelian) with seeded relabelling."""
    n = 8
    rot = np.concatenate([np.arange(n), np.arange(n)])
    flip = np.repeat([0, 1], n)
    a2 = np.where(flip[:, None] == 0, rot[None, :], -rot[None, :])
    d_tab = ((rot[:, None] + a2) % n) + n * ((flip[:, None] + flip[None, :]) % 2)
    k = 4
    z_tab = (np.arange(k)[:, None] + np.arange(k)[None, :]) % k
    table = (d_tab[:, None, :, None] * k + z_tab[None, :, None, :]).reshape(64, 64)
    perm = rng.permutation(64)
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return relabelled


def build(workload: str, seed: int, root: str, rel_dir: str):
    """Write the workload's inputs under ``root/rel_dir`` and return
    (requests, arrays) where arrays maps each input path to its values."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cli_seed = str(seed % 2**31)
    w = _Writer(root, rel_dir)
    if workload == "cli-small":
        reqs = _cli_small(w, rng, cli_seed)
    elif workload == "matrix-large":
        reqs = _matrix_large(w, rng)
    elif workload == "groups-gauges":
        reqs = _groups_gauges(w, rng, cli_seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return reqs, w.arrays


def _functional_pair(w: _Writer, rng, group: str, order: int) -> Request:
    mu = w.functional(f"mu_{group}.json", _crandn(rng, order))
    nu = w.functional(f"nu_{group}.json", _crandn(rng, order))
    return Request(["arens", "--group", group, "--mu", mu, "--nu", nu],
                   {"group": group, "mu": mu, "nu": nu})


def _cli_small(w: _Writer, rng, cli_seed: str) -> list:
    s = _MatrixSet(w, rng, 8)
    reqs = _matrix_requests(s, {
        "svalues": None, "norm": "kyfan:3", "truncate": "std", "integral": "rot",
        "ldl-nest": "rot", "qr-nest": "std", "cartan": None, "iwasawa": "rot",
        "hc": None,
    })
    seq = w.sequence("eta8.csv", _sorted_sequence(rng, 8))
    reqs += [
        Request(["dualnorm", "--phi", "schatten:3", "--sequence", seq, "--seed", cli_seed],
                {"sequence": seq, "phi": "schatten:3"}),
        Request(["boyd", "--phi", "schatten:2", "--mmax", "8", "--cap", "16",
                 "--seed", cli_seed], {"p": 2.0, "mmax": 8, "cap": 16}),
        Request(["mean", "--group", "q8"], {"group": "q8"}),
        Request(["gns", "--group", "s3"], {"group": "s3"}),
        _functional_pair(w, rng, "z6", 6),
        Request(["experiment", "truncation-growth", "--phi", "schatten:1",
                 "--sizes", "4,8", "--trials", "20", "--seed", cli_seed],
                {"sizes": [4, 8]}),
    ]
    return reqs


def _matrix_large(w: _Writer, rng) -> list:
    s128 = _MatrixSet(w, rng, 128)
    s256 = _MatrixSet(w, rng, 256)
    # Each subcommand once per cycle; flag-taking ones split evenly between
    # the standard and a rotated flag, and across the two sizes.
    return (_matrix_requests(s256, {
        "svalues": None, "norm": "schatten:1", "truncate": "rot", "integral": "std",
        "ldl-nest": "std", "qr-nest": "std", "iwasawa": "rot", "hc": None,
    }) + _matrix_requests(s128, {
        "norm": "kyfan:5", "truncate": "std", "integral": "rot", "ldl-nest": "rot",
        "qr-nest": "rot", "cartan": None, "iwasawa": "std",
    }))


def _groups_gauges(w: _Writer, rng, cli_seed: str) -> list:
    orders = {"s4": 24, "z64": 64, "d50": 100}
    reqs = []
    for group, order in orders.items():
        reqs += [Request(["mean", "--group", group], {"group": group}),
                 Request(["gns", "--group", group], {"group": group}),
                 _functional_pair(w, rng, group, order)]
    table = _dihedral16_by_z4_table(rng)
    group_path = w.json("d8xz4.json", {"order": 64, "table": table.tolist()})
    w.arrays[group_path] = table
    reqs += [Request(["mean", "--group", "z128"], {"group": "z128"}),
             Request(["gns", "--group", group_path], {"group": group_path})]
    for length in (64, 256):
        seq = w.sequence(f"eta{length}.csv", _sorted_sequence(rng, length))
        for phi in ("schatten:3", "kyfan:5"):
            reqs.append(Request(["dualnorm", "--phi", phi, "--sequence", seq,
                                 "--seed", cli_seed], {"sequence": seq, "phi": phi}))
    reqs += [
        Request(["boyd", "--phi", "schatten:1.5", "--mmax", "32", "--cap", "256",
                 "--seed", cli_seed], {"p": 1.5, "mmax": 32, "cap": 256}),
        Request(["experiment", "truncation-growth", "--phi", "schatten:1",
                 "--sizes", "4,8,16,32,64", "--trials", "200", "--seed", cli_seed],
                {"sizes": [4, 8, 16, 32, 64]}),
    ]
    return reqs
