"""Symmetric gauge functions on finite sequences and the matrix norms they induce.

A gauge here is a permutation-invariant norm on finitely supported real
sequences, normalised so that a single unit entry has gauge one.  Two
families are provided: the ``schatten`` gauges (the ell^p length) and the
``kyfan`` gauges (sum of the k leading entries).  Evaluated on singular
values they give the unitarily invariant matrix norms.  The module also
gives the dual gauge in closed form together with an independent numeric
lower bound, the pairing ratio of e1, 1_n and the Hoelder maximiser of
eta, and estimates the dilation growth exponents (Boyd indices) by
a finite scan over block dilations of the flat probes 1_1 ... 1_L.  The
scan builds no probe: the gauge of 1_k follows from k, and the block
averages of the probes are gauged one block of equal-length images at a
time, with values bit-identical to gauging each image on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .utils import MAX_PROBE_LEN, SINGULAR_CLIP, UNIT_NORM_TOL, as_matrix

_TINY = np.finfo(float).tiny    # smallest normal float

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


def _totals(phi: SymNormFunc, v: np.ndarray):
    """The finite gauge's sum along the last axis, before any root: the k
    leading entries for kyfan:k, the p-th powers for schatten:p.  Each row
    of a 2-d block sums in the order of the 1-d call on that row."""
    with np.errstate(over="ignore"):    # only entries above 1 overflow
        if phi.kind == "kyfan":
            return v[..., : phi.k].sum(axis=-1)    # inf only when the value is
        p = phi.p
        return (np.square(v) if p == 2.0 else np.power(v, p)).sum(axis=-1)


def _root(phi: SymNormFunc, total) -> float:
    """The schatten:p value of a sum of p-th powers in the normal range."""
    return float(np.sqrt(total) if phi.p == 2.0 else total ** (1.0 / phi.p))


def _gauge_raw(phi: SymNormFunc, v: np.ndarray) -> float:
    """Evaluate the gauge on a raw nonnegative, nonincreasing array.

    An ell^p sum of powers outside the normal floating-point range is
    recomputed on v scaled by its largest entry, so entries far above 1
    do not overflow to inf and entries far below 1 do not underflow to 0.
    """
    if v.size == 0:
        return 0.0
    if phi.kind == "schatten" and math.isinf(phi.p):
        return float(v[0])
    total = _totals(phi, v)
    if phi.kind == "kyfan":
        return float(total)
    if _TINY <= total < math.inf:
        return _root(phi, total)
    top = float(v.max())
    return top * _gauge_raw(phi, v / top) if top > 0.0 else 0.0


def _flat_gauge(phi: SymNormFunc, k: int) -> float:
    """``_gauge_raw`` of the flat vector 1_k, from k alone: the sum of k ones
    is exactly k and 1^p is exactly 1, so only the root is left to take."""
    if phi.kind == "kyfan":
        return float(min(k, phi.k))
    if math.isinf(phi.p):
        return 1.0
    return _root(phi, np.float64(k))


def _row_gauges(phi: SymNormFunc, block: np.ndarray) -> list:
    """``_gauge_raw`` of every row of a block of contracted probes, bit for bit.

    Each row sums over its own length, as the 1-d call does, and each root
    is the scalar expression of ``_gauge_raw``.
    """
    if phi.kind == "schatten" and math.isinf(phi.p):
        return [float(x) for x in block[:, 0]]
    totals = _totals(phi, block)
    if phi.kind == "kyfan":
        return [float(t) for t in totals]
    # Every entry is at most 1, so no sum overflows, and a row of two or more
    # entries starts with a 1, so its sum is at least 1: only a single entry
    # r/m can underflow, and _gauge_raw rescales it to [1.0] and returns r/m.
    return [_root(phi, t) if t >= _TINY else float(row[-1])
            for t, row in zip(totals, block)]


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


def _dual_candidates(eta: np.ndarray):
    """Flat trial vectors for the dual maximisation: e1, and 1_n when n > 1.

    They hold the maximiser of schatten:1, schatten:inf and every kyfan:k;
    no other flat prefix does better.
    """
    n = eta.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    yield e1
    if n > 1:
        yield np.ones(n)


def adjoint_phi_eval(phi: SymNormFunc, eta) -> DualNormResult:
    """Dual gauge value: sup over sorted xi >= 0 of <xi, eta> / gauge(xi).

    The numeric estimate is the best pairing ratio over e1 and the
    all-ones vector, which hold the maximiser of schatten:1, schatten:inf
    and every kyfan:k, and, for schatten:p with 1 < p < inf, the Hoelder
    maximiser xi = (eta / eta_1)^(1/(p-1)), at which <xi, eta> equals
    ||xi||_p ||eta||_q.  It is the pairing ratio of explicit feasible
    vectors, so a lower bound computed through the gauge alone, and it is
    deterministic.  The exact value is returned alongside: ell^q
    (1/p + 1/q = 1) for schatten:p and max(eta_1, sum / k) for kyfan:k
    (Bhatia, Matrix Analysis, ch. IV).
    """
    eta = _as_sequence(eta)
    if eta.values.size == 0 or eta.values[0] == 0.0:
        raise InputError("eta must be nonzero")
    ev = eta.values
    # a pairing or kyfan sum that overflows is recomputed on scaled entries;
    # an entry of the Hoelder maximiser below the float range is a zero
    with np.errstate(over="ignore", under="ignore"):
        best = max(_pairing_ratio(phi, xi, ev) for xi in _dual_candidates(ev))
        if phi.kind == "schatten" and 1.0 < phi.p < math.inf:
            xi = np.power(ev / ev[0], 1.0 / (phi.p - 1.0))
            best = max(best, _pairing_ratio(phi, xi, ev))

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


def _dilated_gauges(phi: SymNormFunc, m: int, seq_len: int):
    """Gauges of D_m 1_j = 1_(mj) for j = 1, ..., L."""
    return (_flat_gauge(phi, m * j) for j in range(1, seq_len + 1))


def _contracted_gauges(phi: SymNormFunc, m: int, seq_len: int):
    """Gauges of C_m 1_j for j = 1, ..., L, one block per image length.

    C_m 1_j is l - 1 ones followed by r/m, with l = ceil(j/m) and
    r = j - m(l - 1) in 1..m; the probes of one l are the rows of one block.
    """
    for start in range(0, seq_len, m):
        rows = min(m, seq_len - start)
        block = np.ones((rows, start // m + 1))
        block[:, -1] = np.arange(1, rows + 1) / m
        yield from _row_gauges(phi, block)


def _probe_norm(phi: SymNormFunc, image_gauges, m: int, seq_len: int) -> float:
    """Largest ratio gauge(op 1_j) / gauge(1_j) over the flat probes 1_1 ... 1_L.

    For the schatten and kyfan gauges both the repeat and the block-average
    operator attain their norm on a flat vector.  ``image_gauges`` yields the
    numerators in order of j; no probe is built, since the gauge of 1_k
    follows from k.
    """
    if seq_len < 1:
        raise InputError("seq_len must be >= 1")
    if seq_len > MAX_PROBE_LEN:
        raise InputError(f"seq_len {seq_len} exceeds the limit {MAX_PROBE_LEN}")
    return max(g / _flat_gauge(phi, j)
               for j, g in enumerate(image_gauges(phi, m, seq_len), 1))


def dilation_norm(phi: SymNormFunc, m: int, seq_len: int) -> float:
    """Norm of the m-fold repeat operator, maximised over flat probes."""
    return _probe_norm(phi, _dilated_gauges, _as_block(m), seq_len)


def contraction_norm(phi: SymNormFunc, m: int, seq_len: int) -> float:
    """Norm of the m-block averaging operator, maximised over flat probes."""
    return _probe_norm(phi, _contracted_gauges, _as_block(m), seq_len)


@dataclass
class BoydEstimate:
    """Finite-scan estimate of the dilation growth exponents of a gauge."""

    p_hat: float
    q_hat: float
    m_max: int
    seq_len: int
    dilation_norms: dict
    contraction_norms: dict


def boyd_estimate(phi: SymNormFunc, m_max: int, seq_len: int) -> BoydEstimate:
    """Estimate both growth indices from dilation norms for m up to m_max.

    The lower index is sup_m log m / log ||D_m|| and the upper index is
    inf_m log(1/m) / log ||D_{1/m}||, both scanned over 2 <= m <= m_max on
    the flat sequences 1_1, ..., 1_seq_len.  Degenerate logarithms (norms at
    1) contribute +inf, matching gauges equivalent to the sup norm.
    """
    if m_max < 2:
        raise InputError("m_max must be >= 2")
    if seq_len < m_max:
        raise InputError("seq_len must be >= m_max")
    dnorms, cnorms = {}, {}
    p_terms, q_terms = [], []
    for m in range(2, m_max + 1):
        dm = dilation_norm(phi, m, seq_len)
        cm = contraction_norm(phi, m, seq_len)
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
