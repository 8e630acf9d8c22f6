"""Nest-relative triangular factorizations.

Two block factorizations relative to a partition of a flag:

* ``ldl_nest`` writes a positive definite a as (1+r) d (1+r*) with r
  strictly block upper and d block diagonal positive definite, by Schur
  complement elimination from the trailing block.
* ``qb_nest`` writes an invertible g as u b with u unitary and b block
  upper with positive definite block diagonal; on a maximal flag this is
  the QR decomposition normalised to a positive diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .nest import Flag, Partition, truncate_upper
from .utils import COND_LIMIT, as_matrix, cond2, dagger, frob, opnorm

__all__ = ["LdlFactors", "QbFactors", "ldl_nest", "qb_nest", "nilpotency_check"]

PD_THRESHOLD = 1e-10       # relative floor on the smallest eigenvalue
_HERM_TOL = 1e-10


@dataclass(frozen=True)
class LdlFactors:
    """Strictly-block-upper r and block-diagonal positive definite d."""

    r: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class QbFactors:
    """Unitary u and block-upper b with positive definite block diagonal."""

    u: np.ndarray
    b: np.ndarray


def _check_positive(a: np.ndarray, name: str) -> None:
    h = frob(a - dagger(a))
    if h > _HERM_TOL * max(1.0, frob(a)):
        raise InputError(f"{name} is not Hermitian (asymmetry {h:.2e})")
    w = np.linalg.eigvalsh((a + dagger(a)) / 2.0)
    if w[0] <= PD_THRESHOLD * max(w[-1], 0.0):
        raise DomainError(
            f"{name} is not positive definite "
            f"(smallest eigenvalue {w[0]:.3e}, largest {w[-1]:.3e})")


def _trailing_elimination(y: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """y = (1+r) d (1+r*) with r strictly upper: eliminate the last block first."""
    n = y.shape[0]
    r = np.zeros((n, n), dtype=complex)
    d = np.zeros((n, n), dtype=complex)
    s = y.copy()
    for i in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[i], bounds[i + 1]
        blk = s[lo:hi, lo:hi]
        d[lo:hi, lo:hi] = blk
        if lo:
            # column block of r above the pivot: R = S[:lo, lo:hi] blk^{-1}
            rcol = dagger(np.linalg.solve(blk, dagger(s[:lo, lo:hi])))
            r[:lo, lo:hi] = rcol
            s[:lo, :lo] -= rcol @ s[lo:hi, :lo]
    return r, d


def _block_polar_phases(r: np.ndarray, bounds) -> np.ndarray:
    """Block-diagonal unitary w with Hermitian positive semidefinite w_i r_ii."""
    w = np.zeros_like(r)
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        u, _, vh = np.linalg.svd(r[lo:hi, lo:hi])
        w[lo:hi, lo:hi] = dagger(u @ vh)
    return w


def ldl_nest(a, partition: Partition) -> LdlFactors:
    """Factor a positive definite a as (1+r) d (1+r*) relative to the partition.

    r is strictly block upper and nilpotent, d block diagonal Hermitian
    positive definite.  On a maximal flag this reproduces the scalar
    root-free UDU* variant of the Cholesky decomposition.
    """
    a = as_matrix(a, square=True, name="a")
    flag = partition.flag
    if a.shape[0] != flag.n:
        raise InputError(f"matrix dimension {a.shape[0]} does not match flag n={flag.n}")
    _check_positive(a, "a")
    y = flag.to_adapted(a)
    r, d = _trailing_elimination(y, partition.bounds)
    return LdlFactors(r=flag.from_adapted(r), d=flag.from_adapted(d))


def qb_nest(g, flag: Flag) -> QbFactors:
    """Factor an invertible g as u b with u unitary and b in the nest algebra.

    Uses the finest partition of the flag.  b is normalised to carry a
    Hermitian positive definite block diagonal, which makes the pair
    unique: b* b = g* g, so this is the triangular factor one would get by
    eliminating the Gram matrix, but it is computed stably as a QR
    factorization in the adapted basis with each diagonal block rotated
    Hermitian by its polar phase.
    """
    g = as_matrix(g, square=True, name="g")
    if g.shape[0] != flag.n:
        raise InputError(f"matrix dimension {g.shape[0]} does not match flag n={flag.n}")
    c = cond2(g)
    if not np.isfinite(c) or c > COND_LIMIT:
        raise DomainError(f"matrix is numerically singular (condition number {c:.3e})")
    bounds = Partition.maximal(flag).bounds
    y = flag.to_adapted(g)
    q, r = np.linalg.qr(y)
    w = _block_polar_phases(r, bounds)
    b = w @ r
    u = q @ dagger(w)
    return QbFactors(u=flag.from_adapted(u), b=flag.from_adapted(b))


def nilpotency_check(r, partition: Partition) -> int:
    """Smallest power at which r vanishes numerically; at most the block count.

    r must be strictly block upper for the partition; the k-th power is
    compared against 1e-12 times the k-th power of max(1, ||r||).
    """
    r = as_matrix(r, square=True, name="r")
    if frob(truncate_upper(partition, r) - r) > 1e-12 * max(1.0, frob(r)):
        raise InputError("r is not strictly block upper for the partition")
    scale = max(1.0, opnorm(r))
    power = r.copy()
    for k in range(1, partition.block_count + 1):
        if frob(power) <= 1e-12 * scale**k:
            return k
        power = power @ r
    raise DomainError("no nilpotency index within the block count")
