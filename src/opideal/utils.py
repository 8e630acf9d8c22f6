"""Small shared linear-algebra helpers and the package's tolerance policy:
every accept/reject threshold is defined here (see README, "Tolerances")."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InputError


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


def times_pow2(a, k: int) -> np.ndarray:
    """a times 2^k as a complex array, each real and imaginary part on its
    own: exact while it stays normal, and each zero keeps its sign."""
    return np.ldexp(np.ascontiguousarray(a, dtype=complex).view(float), k).view(complex)


def pow2_scaled(a) -> tuple[np.ndarray, int]:
    """(a / 2^e as a complex array, e) for the power of 2 just above every
    |real and imaginary part|; e = 0 for a zero or empty a.  The scale is
    ``times_pow2(a, -e)``, so rounds nothing while a part stays normal.  The
    scaled array is the same for a and 2^k a, so LAPACK, which rescales far
    from 1 by a factor that is not a power of 2, sees one input at every scale."""
    a = np.ascontiguousarray(a, dtype=complex)
    e = int(np.frexp(np.abs(a.view(float)).max(initial=0.0))[1])
    return times_pow2(a, -e), e


def solve(d, b) -> np.ndarray:
    """The package's one dense solve: x with d x = b, from d and b each
    divided by its own power of 2 (``pow2_scaled``) and the solution times
    2^(f - e), so the same bits at every scale of either while in range, a
    subnormal d far from singular solves, and no b is pushed past the range."""
    (ds, e), (bs, f) = pow2_scaled(d), pow2_scaled(b)
    return times_pow2(np.linalg.solve(ds, bs), f - e)


def frob(a) -> float:
    """Frobenius norm of ``pow2_scaled(a)`` times 2^e: no square overflows, one
    that underflows is below rounding, 2^k a has 2^k times a's norm in range,
    and a DomainError past it."""
    a, e = pow2_scaled(a)
    r = float(np.linalg.norm(a))
    if math.frexp(r)[1] + e > 1024:     # r 2^e >= 2^1024
        raise DomainError("the Frobenius norm lies outside the double range")
    return float(np.ldexp(r, e))


def svd(a, vectors: bool = False):
    """The package's one dense SVD: a's singular values, descending, taken of
    ``pow2_scaled(a)`` and multiplied back by 2^e, so 2^k times a's while in
    range, and a DomainError past it; with ``vectors``, (w, s, vh),
    a = w diag(s) vh, w and vh scale-free."""
    a, e = pow2_scaled(a)
    out = np.linalg.svd(a, compute_uv=vectors)
    s = out[1] if vectors else out
    if s.size and math.frexp(s[0])[1] + e > 1024:     # s[0] 2^e >= 2^1024
        raise DomainError("the largest singular value lies outside the double range")
    s = np.ldexp(s, e)
    return (out[0], s, out[2]) if vectors else s


def opnorm(a) -> float:
    """Spectral norm (largest singular value); 0 for an empty a."""
    s = svd(np.atleast_2d(a))
    return float(s[0]) if s.size else 0.0


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
HERMITIAN_TOL = 1e-10    # ||a - a*||_F relative to ||a||_F
PD_THRESHOLD = 1e-10     # smallest eigenvalue relative to the largest, for definiteness
EIGEN_GAP_TOL = 1e-8     # eigenvalue gap of a regular element, relative to max |lambda|
NILPOTENCY_TOL = 1e-12   # strict-upper residual of a given r, relative to ||r||_F
NEST_TOL = 1e-12         # per-cut residual of nest membership; qr-nest's b at it * ||b||_F
MEMBERSHIP_TOL = 1e-10   # default relation residual of classical group/algebra membership
CARTAN_TOL = 1e-8        # group relations required by, and reported after, the polar split
NULLITY_TOL = 1e-9       # commutant singular values relative to the largest
GNS_TOL = 1e-10          # a mean given to the GNS construction: probability and invariance
ZERO_TOL = 1e-12         # mean weights: a weight, imaginary or negative part, or sum - 1 is 0
MAX_GROUP_ORDER = 1024   # largest finite group built; its table holds |G|^2 indices
MAX_INPUT_BYTES = 1 << 24   # largest JSON or CSV input file; peak memory is ~10x its size
MAX_PROBE_LEN = 512      # longest flat probe of the Boyd scan (boyd --cap), so m_max too
MAX_EXPERIMENT_DIM = 256   # largest experiment size n; each trial builds an n x n matrix
MAX_EXPERIMENT_TRIALS = 1000  # most experiment trials per size


def unitary_bound(n: int) -> float:
    """Frobenius bound on the residual of an exact identity between n x n unitaries."""
    return UNITARY_TOL * max(1.0, np.sqrt(n))


def unitarity(u: np.ndarray) -> float:
    """The unitarity residual ||u* u - 1||_F."""
    return frob(dagger(u) @ u - np.eye(u.shape[0]))


def is_unitary(u: np.ndarray) -> bool:
    """||u* u - 1||_F <= UNITARY_TOL max(1, sqrt(n))."""
    return unitarity(u) <= unitary_bound(u.shape[0])


def is_hermitian(a: np.ndarray) -> bool:
    """||a - a*||_F <= HERMITIAN_TOL ||a||_F."""
    return frob(a - dagger(a)) <= HERMITIAN_TOL * frob(a)


def is_singular(c: float) -> bool:
    """Whether a condition number (inf and nan included) marks a singular matrix."""
    return not c <= COND_LIMIT


def cond2(a) -> float:
    """2-norm condition number, exact under scaling by powers of 2; inf for
    numerically singular input: a ratio of prescaled values (their prescale is 1)."""
    s = svd(pow2_scaled(a)[0])
    return float(s[0]) / float(s[-1]) if s.size and s[-1] != 0.0 else math.inf


def nonsingular_cond(a, name: str = "matrix") -> float:
    """cond2(a), or where is_singular the package's one "numerically singular" DomainError."""
    c = cond2(a)
    if is_singular(c):
        raise DomainError(f"{name} is numerically singular (condition number {c:.3e})")
    return c


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex normal samples (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
