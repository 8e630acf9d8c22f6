"""Symmetric gauge functions on finite sequences and the matrix norms they induce.

A gauge here is a permutation-invariant norm on finitely supported real
sequences, normalised so that a single unit entry has gauge one.  Two
families are provided: the ``schatten`` gauges (the ell^p length) and the
``kyfan`` gauges (sum of the k leading entries).  Evaluated on singular
values they give the unitarily invariant matrix norms.  The module also
gives the dual gauge in closed form together with an independent numeric
lower bound, and estimates the dilation growth exponents (Boyd indices) by
a finite scan over block dilations.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .utils import (DUAL_MAX_ITER, DUAL_MIN_STEP, DUAL_RISE_TOL, SINGULAR_CLIP,
                    UNIT_NORM_TOL, as_matrix)

_TINY = np.finfo(float).tiny    # smallest normal float
_RANDOM_CANDIDATES = 4          # random sorted trial vectors of the dual estimate

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
    """Evaluate the gauge on a raw nonnegative, nonincreasing array.

    An ell^p sum of powers outside the normal floating-point range is
    recomputed on v scaled by its largest entry, so entries far above 1
    do not overflow to inf and entries far below 1 do not underflow to 0.
    """
    if v.size == 0:
        return 0.0
    p = phi.p
    if phi.kind == "schatten" and math.isinf(p):
        return float(v[0])
    # Only entries above 1 can overflow.  Entering np.errstate costs about
    # 1.4 us, a tenth of boyd_estimate's time over its ~33k gauge calls.
    with np.errstate(over="ignore") if v[0] > 1.0 else contextlib.nullcontext():
        if phi.kind == "kyfan":
            return float(v[: phi.k].sum())    # inf only when the value is
        total = np.square(v).sum() if p == 2.0 else np.power(v, p).sum()
    if _TINY <= total < math.inf:
        return float(np.sqrt(total) if p == 2.0 else total ** (1.0 / p))
    top = float(v.max())
    return top * _gauge_raw(phi, v / top) if top > 0.0 else 0.0


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
    """The adjoint gauge where it is again one of the two families (schatten
    only: the dual of a kyfan gauge is max(xi_1, sum / k), neither)."""
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
    """Numeric lower-bound estimate plus the exact closed form."""

    estimate: float
    closed_form: float


def _pairing_ratio(phi: SymNormFunc, xi: np.ndarray, eta: np.ndarray) -> float:
    """<xi, eta> / gauge(xi); if either overflows, recomputed on xi / max xi and
    eta / max eta, since the ratio ignores the scale of xi and scales with eta."""
    g = _gauge_raw(phi, xi)
    if g <= 0.0:
        return 0.0
    ratio = float(np.dot(xi, eta)) / g
    if math.isfinite(g) and math.isfinite(ratio):
        return ratio
    top = float(eta.max())
    return top * _pairing_ratio(phi, xi / xi.max(), eta / top)


def _dual_candidates(eta: np.ndarray, rng: np.random.Generator):
    """Deterministic and random sorted trial vectors for the dual maximisation.

    e1 and the all-ones vector hold the maximiser of schatten:1,
    schatten:inf and every kyfan:k; no other flat prefix does better.
    """
    n = eta.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    yield e1
    if n > 1:
        yield np.ones(n)
    for t in (1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0):   # power-law shadows of eta
        xi = np.power(eta, t, where=eta > 0, out=np.zeros_like(eta))
        if xi.max() > 0:
            yield xi
    for _ in range(_RANDOM_CANDIDATES):
        yield np.sort(np.abs(rng.standard_normal(n)))[::-1]


def _fixed_point_ratio(phi: SymNormFunc, eta: np.ndarray) -> float:
    """Pairing ratio at the multiplicative fixed point of an ell^p gauge, 1 < p < inf.

    The maximiser satisfies the KKT condition eta ~ grad phi(xi), with
    grad phi(xi) = (xi / phi(xi))^(p-1).  The iteration is a relative of
    D. W. Boyd's power method for ell^p norms (Linear Algebra Appl. 9, 1974):
    xi <- xi (eta / grad phi(xi))^a, renormalised to max 1, taken in
    logarithms on supp(eta) only: an entry of xi that starts at zero stays
    zero, and grad phi is 0/0 there.  It starts from xi = eta.  The step a
    halves until the ratio rises and then doubles back, capped at 1; the
    iteration stops once the ratio stops rising.  The value returned is the
    ratio of an actual xi >= 0, so it is a lower bound.  With a = 1 and p > 2
    the update may reorder xi, which the permutation-invariant gauge allows.
    """
    p = phi.p
    eta = eta[eta > 0.0]
    log_eta = np.log(eta)
    log_xi = log_eta - log_eta.max()
    xi = np.exp(log_xi)
    ratio = _pairing_ratio(phi, xi, eta)
    a = 1.0
    for _ in range(DUAL_MAX_ITER):
        log_grad = (p - 1.0) * (log_xi - math.log(_gauge_raw(phi, xi)))
        direction = log_eta - log_grad
        while True:
            trial = log_xi + a * direction
            trial -= trial.max()
            xi_trial = np.exp(trial)
            r = _pairing_ratio(phi, xi_trial, eta)
            if r > ratio:
                break
            a /= 2.0
            if a < DUAL_MIN_STEP:
                return ratio
        rise = r - ratio
        log_xi, xi, ratio = trial, xi_trial, r
        if rise <= DUAL_RISE_TOL * ratio:
            break
        a = min(1.0, 2.0 * a)
    return ratio


def adjoint_phi_eval(phi: SymNormFunc, eta, seed: int = 7) -> DualNormResult:
    """Dual gauge value: sup over sorted xi >= 0 of <xi, eta> / gauge(xi).

    The numeric estimate is the best pairing ratio over a canonical
    candidate family, which holds the maximiser of schatten:1,
    schatten:inf and every kyfan:k (e1 and the all-ones vector), and, for
    the other schatten gauges, the multiplicative fixed point of the KKT
    condition.  It is a lower bound on the supremum, computed from the
    gauge and its gradient alone.  The exact value is returned alongside:
    ell^q (1/p + 1/q = 1) for schatten:p and max(eta_1, sum / k) for
    kyfan:k (Bhatia, Matrix Analysis, ch. IV).  The seed fixes the random
    candidates.
    """
    eta = _as_sequence(eta)
    if eta.values.size == 0 or eta.values[0] == 0.0:
        raise InputError("eta must be nonzero")
    ev = eta.values
    rng = np.random.default_rng(seed)
    # a pairing or kyfan sum that overflows is recomputed on scaled entries
    with np.errstate(over="ignore"):
        best = max(_pairing_ratio(phi, xi, ev) for xi in _dual_candidates(ev, rng))
        if phi.kind == "schatten" and 1.0 < phi.p < math.inf:
            best = max(best, _fixed_point_ratio(phi, ev))

        if phi.kind == "kyfan":
            closed = max(float(ev[0]), float(ev.sum()) / phi.k)
            if closed == math.inf:
                closed = float(ev[0]) * max(1.0, float((ev / ev[0]).sum()) / phi.k)
        else:
            closed = phi_eval(dual_gauge(phi), eta)
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


def _test_sequences(seq_len: int, rng: np.random.Generator):
    """Canonical probe family on which the dilation norms are maximised."""
    for j in range(1, seq_len + 1):
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
    for v in _test_sequences(seq_len, rng):
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
