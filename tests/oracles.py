"""Independent reference computations shared by the test modules.

Everything here is deliberately written by a different route than the
package code: permuted Cholesky instead of block elimination, classical
Gram-Schmidt instead of the Gram-matrix factorization, explicit
permutation matrices for representations.
"""

import itertools

import numpy as np

from opideal import Flag, UnitaryRep, project, symmetric_group
from opideal.utils import crandn, dagger, opnorm


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
