"""Independent reference computations shared by the test modules.

Everything here is deliberately written by a different route than the
package code: permuted Cholesky instead of block elimination, classical
Gram-Schmidt instead of the Gram-matrix factorization, explicit
permutation matrices and the dense Gram quotient for representations,
element tuples for Cayley tables.
"""

import itertools

import numpy as np

from opideal import Flag, UnitaryRep, project, symmetric_group
from opideal.classical import _relations
from opideal.utils import crandn, dagger, frob, opnorm

GRAM_CLIP = 1e-12   # Gram weights below this times the largest span nothing


def random_flag(rng, n, dims=None):
    q, r = np.linalg.qr(crandn(rng, n, n))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Flag(q, dims if dims is not None else range(1, n + 1))


def cholesky_udu_oracle(a):
    """Scalar (1+r) d (1+r*) factors from a flip-permuted Cholesky."""
    n = a.shape[0]
    p = np.eye(n)[::-1]
    low = np.linalg.cholesky(p @ a @ p)
    u = p @ low @ p
    diag = np.diag(u)
    unit = u / diag[None, :]
    return unit - np.eye(n), np.diag(np.abs(diag) ** 2)


def gram_schmidt_qr(g):
    """Classical Gram-Schmidt with positive diagonal."""
    n = g.shape[0]
    q = np.zeros_like(g, dtype=complex)
    r = np.zeros_like(g, dtype=complex)
    for j in range(n):
        v = g[:, j].astype(complex).copy()
        for i in range(j):
            r[i, j] = np.vdot(q[:, i], v)
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


def nest_membership_per_cut(b, flag, tol):
    """Nest-algebra membership cut by cut: ||b e - e b e||_2 <= tol for every
    flag projection e, formed in the original basis."""
    for k in flag.dims:
        e = project(flag, k)
        be = b @ e
        if opnorm(be - e @ be) > tol:
            return False
    return True


def invariance_nullity(group, tol):
    """Dimension of the weight vectors fixed by every left translation,
    (P_x w)_u = w_{x^{-1} u}, from the singular values of the stacked
    system P_x - 1 with the rank clipped at tol relative to the largest."""
    n = group.order
    eye = np.eye(n)
    system = np.vstack([eye[group.table[group.inverse[x]]] - eye
                        for x in range(n)])
    s = np.linalg.svd(system, compute_uv=False)
    return int(np.sum(s <= tol * max(s[0], 1.0)))


def is_associative_by_triples(table):
    """t[t[i,j],k] == t[i,t[j,k]] compared on all triples at once (n^3 memory)."""
    t = np.asarray(table)
    return bool(np.array_equal(t[t, :], t[:, t]))


def dihedral_table_by_tuples(n):
    """Cayley table and labels of the dihedral group of order 2n from
    (rotation, flip) tuples multiplied one pair at a time."""
    elems = [(a, b) for b in (0, 1) for a in range(n)]
    index = {el: i for i, el in enumerate(elems)}

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % n, (b1 + b2) % 2)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    labels = [f"r{a}" if b == 0 else f"sr{a}" for a, b in elems]
    return np.array(table), labels


def symmetric_table_by_tuples(n):
    """Cayley table and labels of the permutations of n letters, composed
    (p q)(i) = p(q(i)) as tuples and looked up in a dictionary."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return np.array(table), labels


def dense_left_regular_rep(group):
    """The left regular representation as explicit permutation matrices,
    validated by UnitaryRep's pair-by-pair homomorphism check."""
    n = group.order
    mats = []
    for x in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[group.table[x], np.arange(n)] = 1.0
        mats.append(m)
    return UnitaryRep(group, mats)


def quotient_rep(group, weights):
    """Gram-quotient compression of the translation action psi -> L_{x^{-1}} psi.

    Returns the compressed matrices and the rank of the Gram matrix of the
    delta basis under the form (psi, chi) -> sum w psi conj(chi).
    """
    n = group.order
    # The Gram matrix of the delta basis is diagonal: its eigenvectors are
    # the deltas and its eigenvalues the weights.
    gram = np.diag(weights.astype(complex))
    keep = weights > GRAM_CLIP * max(float(weights.max()), 0.0)
    rank = int(np.count_nonzero(keep))
    basis = np.eye(n, dtype=complex)[:, keep] / np.sqrt(weights[keep])
    mats = []
    for x in range(n):
        perm = np.zeros((n, n), dtype=complex)
        perm[group.table[x], np.arange(n)] = 1.0   # delta_a -> delta_{x a}
        mats.append(dagger(basis) @ gram @ perm @ basis)
    return mats, rank


def triviality_by_pairs(group, weights, tol):
    """The triviality criterion pair by pair: for every x and every a with
    |w_a| > tol, the translation x a must fix a."""
    for x in range(group.order):
        for a in range(group.order):
            if abs(weights[a]) > tol and group.table[x, a] != a:
                return False
    return True


def algebra_membership_by_relations(x, typ, structure, tol):
    """Lie algebra membership from the defining relations written out, not
    from the involutions: each residual within tol max(1, ||x||) sqrt(n)."""
    scale = tol * max(1.0, opnorm(x)) * np.sqrt(x.shape[0])
    for name, c in _relations(typ, structure):
        if name == "orth":              # x = -C x^T conj(C)
            res = frob(x + c @ x.T @ c.conj())
        elif name == "symp":            # x = +Ca x^T conj(Ca)
            res = frob(x - c @ x.T @ c.conj())
        elif name in ("real", "quat"):  # x C = C conj(x)
            res = frob(x @ c - c @ x.conj())
        else:                           # "iu": x* V = -V x
            res = frob(dagger(x) @ c + c @ x)
        if res > scale:
            return False
    return True


def positive_qr(g):
    """Library QR rephased so the diagonal of r is positive."""
    q, r = np.linalg.qr(g)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph, r / ph[:, None]


def svd_polar(g):
    """Polar factors via singular value decomposition."""
    u, s, vh = np.linalg.svd(g)
    k = u @ vh
    pos = dagger(vh) @ np.diag(s) @ vh
    w, v = np.linalg.eigh(pos)
    return k, v @ np.diag(np.log(w)) @ dagger(v)


def s3_irreps():
    """All three irreducible representations of the permutations of 3 letters."""
    s3 = symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))

    def parity(p):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        return sign

    triv = UnitaryRep(s3, [np.eye(1, dtype=complex) for _ in perms])
    sign = UnitaryRep(s3, [np.array([[parity(p)]], dtype=complex) for p in perms])
    basis = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.array(
        [np.sqrt(2), np.sqrt(6)])
    mats = []
    for p in perms:
        perm_mat = np.zeros((3, 3))
        for i in range(3):
            perm_mat[p[i], i] = 1.0
        mats.append((basis.T @ perm_mat @ basis).astype(complex))
    std = UnitaryRep(s3, mats)
    return s3, [triv, sign, std]
