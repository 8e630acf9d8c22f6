"""Independent reference computations shared by the test modules.

Everything here is deliberately written by a different route than the
package code: permuted Cholesky instead of block elimination, classical
Gram-Schmidt instead of the Gram-matrix factorization, explicit
permutation matrices and the dense Gram quotient for representations,
element tuples for Cayley tables, constrained SLSQP ascent and the
multiplicative KKT fixed point instead of the dual gauge's Hoelder
maximiser written down in closed form, seeded random and hand-picked probe
shapes next to the flat vectors of the dual estimate and the Boyd scan,
the Boyd scan's flat probes built and gauged one array at a time
where the package gauges them from their lengths, numpy's nested-list
conversion where the matrix loader streams [re, im] pairs into one float
array, reports whose arrays are all encoded before ``json.dumps``
where the command line encodes each one as the report is written, and the
fractional-linear formula for the Harish-Chandra action where the package
reads it off a block factorization, and the powers of an integer matrix in
Python integers where the package reads a nilpotency index off the block
pattern, and the schatten gauges and the Frobenius norm in 60-digit decimal
arithmetic where the package divides by the largest entry or its power of 2
in floating point, and the power-of-2 prescale taken part by part where the
package scales the interleaved parts in one call.
"""

import decimal
import itertools
import json
import math
import operator

import numpy as np
from scipy.optimize import minimize

from opideal import Flag, InputError, UnitaryRep, project, symmetric_group
from opideal.classical import _relations
from opideal.serialize import complex_to_pairs, matrix_to_obj
from opideal.symfunc import _average, _gauge_raw, _pairing_ratio
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


def nilpotency_index_exact(r):
    """Smallest k with r^k = 0, by powers of an integer matrix in Python
    integers; ValueError if r is not nilpotent."""
    rows = [[int(v) for v in row] for row in r]
    cols = list(zip(*rows))
    power = rows
    for k in range(1, len(rows) + 1):
        if not any(any(row) for row in power):
            return k
        power = [[sum(map(operator.mul, p, col)) for col in cols] for p in power]
    raise ValueError("r is not nilpotent")


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


def fractional_linear_action(g, z, p):
    """g.Z = (A Z + B)(C Z + D)^{-1}, with A the leading p x p block of g."""
    a, b, c, d = g[:p, :p], g[:p, p:], g[p:, :p], g[p:, p:]
    return (a @ z + b) @ np.linalg.inv(c @ z + d)


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


def _shadows_and_random_draws(eta, rng):
    """The power-law shadows of eta and four random sorted vectors."""
    for t in (1.0, 2.0 / 3.0, 0.5, 1.0 / 3.0):
        xi = np.power(eta, t, where=eta > 0, out=np.zeros_like(eta))
        if xi.max() > 0:
            yield xi
    for _ in range(4):
        yield np.sort(np.abs(rng.standard_normal(eta.size)))[::-1]


def _flat_prefix_candidates(eta, rng):
    """Sorted trial vectors: e1, every flat prefix (1,...,1,0,...,0), the
    power-law shadows of eta, and four random sorted vectors."""
    n = eta.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    yield e1
    for j in range(1, n + 1):
        flat = np.zeros(n)
        flat[:j] = 1.0
        yield flat
    yield from _shadows_and_random_draws(eta, rng)


def fixed_point_ratio(phi, eta):
    """Pairing ratio at the multiplicative fixed point of an ell^p gauge, 1 < p < inf.

    The maximiser satisfies the KKT condition eta ~ grad phi(xi), with
    grad phi(xi) = (xi / phi(xi))^(p-1).  The iteration is a relative of
    D. W. Boyd's power method for ell^p norms (Linear Algebra Appl. 9, 1974):
    xi <- xi (eta / grad phi(xi))^a, renormalised to max 1, taken in
    logarithms on supp(eta) only.  It starts from xi = eta.  The step a
    halves until the ratio rises and then doubles back, capped at 1; the
    iteration stops once the ratio rises by less than ``rise_tol``
    relatively, no step down to ``min_step`` raises it, or after
    ``max_iter`` steps.  The value is the ratio of an actual xi >= 0, so a
    lower bound, reached by ascent rather than written down.
    """
    rise_tol, min_step, max_iter = 1e-16, 2.0 ** -20, 1000
    p = phi.p
    eta = eta[eta > 0.0]
    log_eta = np.log(eta)
    log_xi = log_eta - log_eta.max()
    xi = np.exp(log_xi)
    ratio = _pairing_ratio(phi, xi, eta)
    a = 1.0
    for _ in range(max_iter):
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
            if a < min_step:
                return ratio
        rise = r - ratio
        log_xi, xi, ratio = trial, xi_trial, r
        if rise <= rise_tol * ratio:
            break
        a = min(1.0, 2.0 * a)
    return ratio


def full_family_dual_estimate(phi, eta, seed=7):
    """The dual estimate over the full candidate family: e1, 1_n, the
    power-law shadows of eta and four random sorted vectors drawn from the
    seed, then the KKT fixed point for 1 < p < inf."""
    eta = np.asarray(eta, dtype=float)
    n = eta.size
    flat = [np.eye(1, n)[0]] + ([np.ones(n)] if n > 1 else [])
    cands = itertools.chain(flat, _shadows_and_random_draws(
        eta, np.random.default_rng(seed)))
    with np.errstate(over="ignore"):
        best = max(_pairing_ratio(phi, xi, eta) for xi in cands)
        if phi.kind == "schatten" and 1.0 < phi.p < math.inf:
            best = max(best, fixed_point_ratio(phi, eta))
    return best


def _full_probe_family(seq_len, rng):
    """The flat probes 1_1..1_L, e1 padded to length min(L, 4), four power
    laws, four geometric sequences and four random sorted draws."""
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


def _full_family_probe_norm(phi, op, m, seq_len, rng):
    best = 0.0
    for v in _full_probe_family(seq_len, rng):
        g = _gauge_raw(phi, v)
        if g > 0.0:
            best = max(best, _gauge_raw(phi, op(v, m)) / g)
    return best


def full_family_dilation_norm(phi, m, seq_len, seed=0):
    """Largest gauge ratio of the m-fold repeat over the full probe family,
    its random draws from (seed, m)."""
    return _full_family_probe_norm(phi, np.repeat, m, seq_len,
                                   np.random.default_rng([seed, m]))


def full_family_contraction_norm(phi, m, seq_len, seed=0):
    """Largest gauge ratio of the m-block average over the full probe
    family, its random draws from (seed, m, 1)."""
    return _full_family_probe_norm(phi, _average, m, seq_len,
                                   np.random.default_rng([seed, m, 1]))


def schatten_gauge_decimal(p, v):
    """The schatten:p gauge of v, (sum v_i^p)^(1/p), in 60-digit decimal
    arithmetic from the exact values of v and p, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dp = decimal.Decimal(float(p))
        total = sum(decimal.Decimal(float(x)) ** dp for x in v)
        return float(total ** (1 / dp))


def frobenius_norm_decimal(a):
    """sqrt(sum of the squares of a's real and imaginary parts) in 60-digit
    decimal arithmetic from their exact values, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        parts = np.ascontiguousarray(a, dtype=complex).view(float).ravel()
        return float(sum(decimal.Decimal(float(x)) ** 2 for x in parts).sqrt())


def pow2_scaled_by_parts(a):
    """(a / 2^e, e) for the power of 2 just above every |real and imaginary
    part|, summed as ldexp(re, -e) + 1j * ldexp(im, -e): the earlier
    prescale, whose sum signs a zero part +0, save a -0 real part beside an
    imaginary part with its sign bit set."""
    a = np.asarray(a)
    e = int(np.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1])
    return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), e


def _test_sequences(seq_len):
    """The flat probes 1_1, ..., 1_L, built as arrays."""
    for j in range(1, seq_len + 1):
        yield np.ones(j)


def flat_probe_norm(phi, op, m, seq_len):
    """Largest gauge ratio of op(v, m) to v over the flat probes, each built
    and gauged as an array: the Boyd scan's per-probe loop.  ``op`` is
    ``np.repeat`` for the dilation norm and ``_average`` for the
    contraction norm."""
    return max(_gauge_raw(phi, op(v, m)) / _gauge_raw(phi, v)
               for v in _test_sequences(seq_len))


def _slsqp_ascent(phi, eta, delta0, max_iter, ftol):
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
    res = minimize(
        lambda d: -float(np.dot(csum, np.clip(d, 0.0, None))),
        delta0 / g0,
        jac=lambda d: -csum,
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "ineq",
                      "fun": lambda d: 1.0 - _gauge_raw(phi, unpack(d))}],
        options={"maxiter": max_iter, "ftol": ftol},
    )
    return _pairing_ratio(phi, unpack(res.x), eta)


def slsqp_dual_ascent(phi, eta, seed=7, restarts=2, max_iter=80, ftol=1e-9):
    """Lower bound on the dual gauge of a sorted eta by SLSQP over the sorted
    cone: the best of a candidate family, then one ascent from
    that candidate and ``restarts`` ascents from random starts."""
    eta = np.asarray(eta, dtype=float)
    rng = np.random.default_rng(seed)
    best, best_xi = 0.0, None
    for xi in _flat_prefix_candidates(eta, rng):
        r = _pairing_ratio(phi, xi, eta)
        if r > best:
            best, best_xi = r, xi
    starts = [np.clip(np.append(-np.diff(best_xi), best_xi[-1]), 0.0, None)]
    starts += [np.abs(rng.standard_normal(eta.size)) for _ in range(restarts)]
    for d0 in starts:
        if d0.max() > 0.0:
            best = max(best, _slsqp_ascent(phi, eta, d0, max_iter, ftol))
    return best


def complex_pairs_by_asarray(data, field):
    """A list of [re, im] pairs as a flat complex array, by numpy's
    conversion of the whole nested list."""
    try:
        pairs = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError(f"field {field!r} must be a list of [re, im] pairs")
    return pairs.view(complex).ravel()


def _encoded(value):
    """The report with every array replaced by its JSON form."""
    if isinstance(value, dict):
        return {k: _encoded(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value) if value.ndim == 2 else complex_to_pairs(value)
    return value


def eager_report_json(report):
    """A report as the command line printed it when each handler encoded its
    arrays itself: all at once, before one ``json.dumps``."""
    return json.dumps(_encoded(report), sort_keys=True, allow_nan=False) + "\n"
