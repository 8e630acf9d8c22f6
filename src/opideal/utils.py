"""Small shared linear-algebra helpers."""

from __future__ import annotations

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


COND_LIMIT = 1e12          # condition number above which a matrix counts as singular


def cond2(a) -> float:
    """2-norm condition number; inf for numerically singular input."""
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex normal samples (unit total variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
