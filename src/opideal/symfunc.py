"""Symmetric gauge functions on finite sequences and the matrix norms they induce.

A gauge here is a permutation-invariant norm on finitely supported real
sequences, normalised so that a single unit entry has gauge one.  Two
families are provided: the ``schatten`` gauges (the ell^p length) and the
``kyfan`` gauges (sum of the k leading entries).  Evaluated on singular
values they give the unitarily invariant matrix norms.  The module also
estimates the dual gauge by constrained maximisation and the dilation
growth exponents (Boyd indices) by a finite scan over block dilations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .utils import ASCENT_FTOL, SINGULAR_CLIP, UNIT_NORM_TOL, as_matrix

__all__ = [
    "NonincreasingSequence",
    "SymNormFunc",
    "BoydEstimate",
    "DualNormResult",
    "singular_values",
    "phi_eval",
    "phi_norm",
    "dual_gauge",
    "adjoint_phi_eval",
    "dilate",
    "contract",
    "dilation_norm",
    "contraction_norm",
    "boyd_estimate",
]

_RESTARTS = 2        # random dual-gauge ascent starts, on top of the deterministic one
_MAX_ITER = 80       # SLSQP iteration cap per ascent


class NonincreasingSequence:
    """A finite sequence of nonnegative reals sorted nonincreasing.

    The constructor rejects unsorted or negative input; use
    :meth:`rearranged` to canonically sort arbitrary nonnegative data.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise InputError("sequence must be one-dimensional")
        if v.size:
            if not np.all(np.isfinite(v)):
                raise InputError("sequence entries must be finite")
            if v[-1] < 0.0 or np.any(v < 0.0):
                raise InputError("sequence entries must be nonnegative")
            if np.any(np.diff(v) > 0.0):
                raise InputError("sequence must be sorted nonincreasing")
        v.flags.writeable = False
        self.values = v

    @classmethod
    def rearranged(cls, values) -> "NonincreasingSequence":
        """Canonical rearrangement: sort nonnegative values descending."""
        v = np.asarray(values, dtype=float)
        return cls(np.sort(v)[::-1])

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"NonincreasingSequence({self.values.tolist()!r})"


def _as_sequence(xi) -> NonincreasingSequence:
    if isinstance(xi, NonincreasingSequence):
        return xi
    return NonincreasingSequence(xi)


@dataclass(frozen=True)
class SymNormFunc:
    """Descriptor of a symmetric gauge: ``schatten`` (ell^p) or ``kyfan`` (top-k sum)."""

    kind: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind == "schatten":
            if self.p is None or not (self.p >= 1.0):
                raise InputError("schatten gauge requires p >= 1 (inf allowed)")
        elif self.kind == "kyfan":
            if self.k is None or int(self.k) != self.k or self.k < 1:
                raise InputError("kyfan gauge requires an integer k >= 1")
        else:
            raise InputError(f"unknown gauge kind {self.kind!r}")

    @classmethod
    def schatten(cls, p) -> "SymNormFunc":
        return cls("schatten", p=float(p))

    @classmethod
    def kyfan(cls, k) -> "SymNormFunc":
        return cls("kyfan", k=int(k))

    @classmethod
    def parse(cls, text: str) -> "SymNormFunc":
        """Parse ``schatten:2``, ``schatten:inf`` or ``kyfan:3``."""
        parts = text.strip().lower().split(":")
        if len(parts) != 2:
            raise InputError(f"cannot parse gauge {text!r}; expected kind:parameter")
        kind, param = parts
        if kind == "schatten":
            try:
                p = math.inf if param in ("inf", "infinity") else float(param)
            except ValueError:
                raise InputError(f"bad schatten parameter {param!r}") from None
            return cls.schatten(p)
        if kind == "kyfan":
            try:
                k = int(param)
            except ValueError:
                raise InputError(f"bad kyfan parameter {param!r}") from None
            return cls.kyfan(k)
        raise InputError(f"unknown gauge kind {kind!r}")

    def __str__(self) -> str:
        if self.kind == "schatten":
            return "schatten:inf" if math.isinf(self.p) else f"schatten:{self.p:g}"
        return f"kyfan:{self.k}"


def _gauge_raw(phi: SymNormFunc, v: np.ndarray) -> float:
    """Evaluate the gauge on a raw nonnegative, nonincreasing array."""
    if v.size == 0:
        return 0.0
    if phi.kind == "schatten":
        p = phi.p
        if math.isinf(p):
            return float(v[0])
        if p == 1.0:
            return float(v.sum())
        if p == 2.0:
            return float(np.sqrt(np.square(v).sum()))
        return float(np.power(v, p).sum() ** (1.0 / p))
    return float(v[: phi.k].sum())


def phi_eval(phi: SymNormFunc, xi) -> float:
    """Value of the gauge on a nonincreasing sequence."""
    return _gauge_raw(phi, _as_sequence(xi).values)


def singular_values(t) -> NonincreasingSequence:
    """Singular values of a (possibly rectangular) matrix, sorted descending.

    Values below ``SINGULAR_CLIP`` times the largest are clamped to zero.
    """
    t = as_matrix(t)
    s = np.linalg.svd(t, compute_uv=False)
    if s.size and s[0] > 0.0:
        s[s < SINGULAR_CLIP * s[0]] = 0.0
    return NonincreasingSequence(s)


def phi_norm(phi: SymNormFunc, t) -> float:
    """Unitarily invariant matrix norm: gauge of the singular values."""
    return phi_eval(phi, singular_values(t))


def dual_gauge(phi: SymNormFunc) -> SymNormFunc | None:
    """The adjoint gauge in closed form where one is known (schatten only)."""
    if phi.kind != "schatten":
        return None
    p = phi.p
    if math.isinf(p):
        return SymNormFunc.schatten(1.0)
    if p == 1.0:
        return SymNormFunc.schatten(math.inf)
    return SymNormFunc.schatten(p / (p - 1.0))


@dataclass(frozen=True)
class DualNormResult:
    """Numeric lower-bound estimate plus exact closed form when available."""

    estimate: float
    closed_form: float | None

    @property
    def value(self) -> float:
        return self.estimate if self.closed_form is None else self.closed_form


def _pairing_ratio(phi: SymNormFunc, xi: np.ndarray, eta: np.ndarray) -> float:
    g = _gauge_raw(phi, xi)
    if g <= 0.0:
        return 0.0
    return float(np.dot(xi, eta)) / g


def _dual_candidates(eta: np.ndarray, rng: np.random.Generator, extra: int):
    """Deterministic and random sorted trial vectors for the dual maximisation."""
    n = eta.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    yield e1
    for j in range(1, n + 1):           # flat prefixes (1,...,1,0,...,0)
        flat = np.zeros(n)
        flat[:j] = 1.0
        yield flat
    for t in (1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0):   # power-law shadows of eta
        xi = np.power(eta, t, where=eta > 0, out=np.zeros_like(eta))
        if xi.max() > 0:
            yield xi
    for _ in range(extra):
        xi = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        yield xi


def _ascend(phi: SymNormFunc, eta: np.ndarray, delta0: np.ndarray) -> float:
    """One constrained ascent run; always returns a valid lower bound.

    The sorted cone is parametrised by nonnegative increments delta with
    xi_j = sum_{i>=j} delta_i, so the pairing is linear in delta and the
    feasible set {gauge(xi) <= 1} is convex.
    """
    n = eta.size
    csum = np.cumsum(eta)

    def unpack(delta):
        d = np.clip(delta, 0.0, None)
        return np.cumsum(d[::-1])[::-1]

    g0 = _gauge_raw(phi, unpack(delta0))
    if g0 <= 0.0:
        return 0.0
    x0 = delta0 / g0

    # Imported here, not at module level: scipy.optimize takes longer to
    # import than the rest of the package, and only this estimate needs it.
    from scipy.optimize import minimize

    res = minimize(
        lambda d: -float(np.dot(csum, np.clip(d, 0.0, None))),
        x0,
        jac=lambda d: -csum,
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "ineq",
                      "fun": lambda d: 1.0 - _gauge_raw(phi, unpack(d))}],
        options={"maxiter": _MAX_ITER, "ftol": ASCENT_FTOL},
    )
    return _pairing_ratio(phi, unpack(res.x), eta)


def adjoint_phi_eval(phi: SymNormFunc, eta, seed: int = 7) -> DualNormResult:
    """Dual gauge value: sup over sorted xi >= 0 of <xi, eta> / gauge(xi).

    The numeric estimate is the best pairing ratio found over a canonical
    candidate family followed by projected ascent restarts, so it converges
    to the supremum from below.  For schatten gauges the exact ell^q value
    (1/p + 1/q = 1) is returned alongside.  The seed fixes the random
    candidates and ascent starts.
    """
    eta = _as_sequence(eta)
    if eta.values.size == 0 or eta.values[0] == 0.0:
        raise InputError("eta must be nonzero")
    rng = np.random.default_rng(seed)
    ev = eta.values

    best = 0.0
    best_xi = None
    for xi in _dual_candidates(ev, rng, extra=4):
        r = _pairing_ratio(phi, xi, ev)
        if r > best:
            best, best_xi = r, xi

    starts = []
    if best_xi is not None:
        delta = np.clip(np.append(-np.diff(best_xi), best_xi[-1]), 0.0, None)
        starts.append(delta)
    for _ in range(_RESTARTS):
        starts.append(np.abs(rng.standard_normal(ev.size)))
    for d0 in starts:
        if d0.max() <= 0.0:
            continue
        best = max(best, _ascend(phi, ev, d0))

    dg = dual_gauge(phi)
    closed = phi_eval(dg, eta) if dg is not None else None
    return DualNormResult(estimate=best, closed_form=closed)


def _as_block(m) -> int:
    if int(m) != m or m < 1:
        raise InputError("block size m must be an integer >= 1")
    return int(m)


def _average(v: np.ndarray, m: int) -> np.ndarray:
    """Block means of ``contract`` on a raw array; called like ``np.repeat(v, m)``."""
    pad = (-v.size) % m
    if pad:
        v = np.concatenate([v, np.zeros(pad)])
    return v.reshape(-1, m).mean(axis=1)


def dilate(m: int, xi) -> NonincreasingSequence:
    """Repeat every entry m times."""
    return NonincreasingSequence(np.repeat(_as_sequence(xi).values, _as_block(m)))


def contract(m: int, xi) -> NonincreasingSequence:
    """Average consecutive blocks of m entries, zero-padding to a full block."""
    return NonincreasingSequence(_average(_as_sequence(xi).values, _as_block(m)))


def _test_sequences(seq_len: int, block: int, rng: np.random.Generator):
    """Canonical probe family on which the dilation norms are maximised."""
    for j in range(1, seq_len + 1):
        yield np.ones(j)
    for j in range(block, seq_len + 1, block):    # exact multiples of the block
        yield np.ones(j)
    e1 = np.zeros(max(1, min(seq_len, 4)))
    e1[0] = 1.0
    yield e1
    idx = np.arange(1, seq_len + 1, dtype=float)
    for alpha in (0.25, 0.5, 1.0, 2.0):
        yield idx ** (-alpha)
    for t in (0.9, 0.7, 0.5, 0.2):
        yield t ** idx
    for _ in range(4):
        yield np.sort(np.abs(rng.standard_normal(seq_len)))[::-1]


def _probe_norm(phi: SymNormFunc, op, m: int, seq_len: int,
                rng: np.random.Generator) -> float:
    """Largest gauge ratio of op(v, m) to v over the probe sequences."""
    best = 0.0
    for v in _test_sequences(seq_len, m, rng):
        g = _gauge_raw(phi, v)
        if g > 0.0:
            best = max(best, _gauge_raw(phi, op(v, m)) / g)
    return best


def dilation_norm(phi: SymNormFunc, m: int, seq_len: int, seed: int = 0) -> float:
    """Norm of the m-fold repeat operator, maximised over probe sequences."""
    m = _as_block(m)
    return _probe_norm(phi, np.repeat, m, seq_len, np.random.default_rng([seed, m]))


def contraction_norm(phi: SymNormFunc, m: int, seq_len: int, seed: int = 0) -> float:
    """Norm of the m-block averaging operator, maximised over probe sequences."""
    m = _as_block(m)
    return _probe_norm(phi, _average, m, seq_len, np.random.default_rng([seed, m, 1]))


@dataclass
class BoydEstimate:
    """Finite-scan estimate of the dilation growth exponents of a gauge."""

    p_hat: float
    q_hat: float
    m_max: int
    seq_len: int
    dilation_norms: dict
    contraction_norms: dict


def boyd_estimate(phi: SymNormFunc, m_max: int, seq_len: int,
                  seed: int = 0) -> BoydEstimate:
    """Estimate both growth indices from dilation norms for m up to m_max.

    The lower index is sup_m log m / log ||D_m|| and the upper index is
    inf_m log(1/m) / log ||D_{1/m}||, both scanned over 2 <= m <= m_max on
    sequences capped at seq_len entries.  Degenerate logarithms (norms at 1)
    contribute +inf, matching gauges equivalent to the sup norm.
    """
    if m_max < 2:
        raise InputError("m_max must be >= 2")
    if seq_len < m_max:
        raise InputError("seq_len must be >= m_max")
    dnorms, cnorms = {}, {}
    p_terms, q_terms = [], []
    for m in range(2, m_max + 1):
        dm = dilation_norm(phi, m, seq_len, seed=seed)
        cm = contraction_norm(phi, m, seq_len, seed=seed)
        dnorms[m], cnorms[m] = dm, cm
        p_terms.append(math.inf if dm <= 1.0 + UNIT_NORM_TOL
                       else math.log(m) / math.log(dm))
        q_terms.append(math.inf if cm >= 1.0 - UNIT_NORM_TOL
                       else math.log(1.0 / m) / math.log(cm))
    return BoydEstimate(
        p_hat=max(p_terms),
        q_hat=min(q_terms),
        m_max=m_max,
        seq_len=seq_len,
        dilation_norms=dnorms,
        contraction_norms=cnorms,
    )
