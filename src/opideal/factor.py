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
from .nest import Flag, Partition
from .utils import (NILPOTENCY_TOL, PD_THRESHOLD, as_matrix, dagger, frob, is_hermitian,
                    nonsingular_cond, solve, svd)


@dataclass(frozen=True)
class LdlFactors:
    """Strictly-block-upper r and block-diagonal positive definite d."""

    r: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class QbFactors:
    """Unitary u and block-upper b with positive definite block diagonal;
    the 2-norm condition number of g = u b, from the singularity test."""

    u: np.ndarray
    b: np.ndarray
    condition_number: float


def _check_positive(a: np.ndarray, name: str) -> None:
    if not is_hermitian(a):
        raise InputError(f"{name} is not Hermitian (asymmetry {frob(a - dagger(a)):.2e})")
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
            rcol = dagger(solve(blk, dagger(s[:lo, lo:hi])))
            r[:lo, lo:hi] = rcol
            s[:lo, :lo] -= rcol @ s[lo:hi, :lo]
    return r, d


def _block_polar_phases(r: np.ndarray, bounds) -> np.ndarray:
    """Block-diagonal unitary w with Hermitian positive semidefinite w_i r_ii."""
    w = np.zeros_like(r)
    for lo, hi in zip(bounds, bounds[1:]):
        u, _, vh = svd(r[lo:hi, lo:hi], vectors=True)
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
    y = flag.to_adapted(a)
    _check_positive(a, "a")
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
    y = flag.to_adapted(g)
    c = nonsingular_cond(g)
    bounds = Partition.maximal(flag).bounds
    q, r = np.linalg.qr(y)
    w = _block_polar_phases(r, bounds)
    b = w @ r
    u = q @ dagger(w)
    return QbFactors(u=flag.from_adapted(u), b=flag.from_adapted(b), condition_number=c)


def nilpotency_check(r, partition: Partition) -> int:
    """Blocks in the longest chain i0 < i1 < ... of nonzero blocks of r, which
    must be strictly block upper within NILPOTENCY_TOL relative to ||r||_F.
    r^k sums products of r's blocks along chains of k + 1 blocks, so it is 0
    from this power on: the nilpotency index for generic r, else a bound."""
    y = partition.flag.to_adapted(as_matrix(r, square=True, name="r"))
    upper = partition.index[:, None] < partition.index[None, :]
    if frob(np.where(upper, 0.0, y)) > NILPOTENCY_TOL * frob(y):
        raise InputError("r is not strictly block upper for the partition")
    starts = partition.bounds[:-1]
    blocks = np.logical_or.reduceat(
        np.logical_or.reduceat(upper & (y != 0), starts, axis=0), starts, axis=1)
    chain = np.ones(len(starts), dtype=int)   # the longest chain ending at each block
    for j in range(1, len(starts)):
        chain[j] += chain[:j][blocks[:j, j]].max(initial=0)
    return int(chain.max())
