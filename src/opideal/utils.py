"""Small shared linear-algebra helpers and the package's tolerance policy:
every accept/reject threshold is defined here (see README, "Tolerances")."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def as_matrix(a, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex 2-d array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InputError(f"{name} must be two-dimensional, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputError(f"{name} must have finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a) -> float:
    return float(np.linalg.norm(a))


def opnorm(a) -> float:
    """Spectral norm (largest singular value)."""
    a = np.atleast_2d(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005): halve a until ||a||_1 <= 1/2, sum the Taylor
    series to degree 20 by Horner's rule, then square back."""
    _, s = math.frexp(float(np.linalg.norm(a, 1)) / 0.5)
    s = max(0, s)
    x = a / 2.0 ** s
    eye = np.eye(a.shape[0], dtype=x.dtype)
    e = eye
    for k in range(20, 0, -1):
        e = eye + (x @ e) / k
    for _ in range(s):
        e = e @ e
    return e


COND_LIMIT = 1e12        # 2-norm condition number above which a matrix is singular
SINGULAR_CLIP = 1e-13    # singular values below this times the largest are exact zeros
UNITARY_TOL = 1e-12      # Frobenius residual of u* u = 1, per max(1, sqrt(n))
HERMITIAN_TOL = 1e-10    # ||a - a*||_F relative to max(1, ||a||_F)
PD_THRESHOLD = 1e-10     # smallest eigenvalue relative to the largest, for definiteness
EIGEN_GAP_TOL = 1e-8     # eigenvalue gap of a regular element, relative to max(1, |lambda|)
NILPOTENCY_TOL = 1e-12   # strict-upper residual and vanishing power, relative to ||r||
NEST_TOL = 1e-12         # default per-cut residual of nest-algebra membership
MEMBERSHIP_TOL = 1e-10   # default relation residual of classical group/algebra membership
CARTAN_TOL = 1e-8        # group relations required by, and reported after, the polar split
NULLITY_TOL = 1e-9       # commutant singular values relative to the largest
GNS_TOL = 1e-10          # a mean given to the GNS construction: probability and invariance
ZERO_TOL = 1e-12         # mean weights: a weight, imaginary or negative part, or sum - 1 is 0
REPORT_TOL = 1e-9        # CLI report check: nest membership of the qr-nest factor b
UNIT_NORM_TOL = 1e-12    # a dilation norm this close to 1 counts as 1 (index +inf)
MAX_GROUP_ORDER = 1024   # largest finite group built; its table holds |G|^2 indices
MAX_PROBE_LEN = 512      # longest flat probe of the Boyd scan (boyd --cap), so m_max too
MAX_EXPERIMENT_DIM = 256   # largest experiment size n; each trial builds an n x n matrix
MAX_EXPERIMENT_TRIALS = 1000  # most experiment trials per size


def unitary_bound(n: int) -> float:
    """Frobenius bound on the residual of an exact identity between n x n unitaries."""
    return UNITARY_TOL * max(1.0, np.sqrt(n))


def is_unitary(u: np.ndarray) -> bool:
    """||u* u - 1||_F <= UNITARY_TOL max(1, sqrt(n))."""
    n = u.shape[0]
    return frob(dagger(u) @ u - np.eye(n)) <= unitary_bound(n)


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a*||_F <= HERMITIAN_TOL max(1, ||a||_F)."""
    return frob(a - dagger(a)) <= HERMITIAN_TOL * max(1.0, frob(a))


def is_singular(c: float) -> bool:
    """Whether a condition number (inf and nan included) marks a singular matrix."""
    return not c <= COND_LIMIT


def cond2(a) -> float:
    """2-norm condition number; inf for numerically singular input."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex normal samples (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
