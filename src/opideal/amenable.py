"""Finite-group invariant means, the dual convolution algebra, and
representations integrated against functionals.

Groups are given by Cayley tables (validated on construction).  Functions
and functionals on a group are complex vectors indexed by the elements;
a mean is a functional with nonnegative real weights summing to one.  On
a finite group the left-invariant mean is unique (the uniform weights),
the product induced on functionals by iterated translation coincides with
weight convolution, and the GNS construction from the uniform mean
recovers the left regular representation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InputError
from .utils import as_matrix, dagger, frob

__all__ = [
    "FiniteGroup",
    "GroupFunction",
    "Functional",
    "UnitaryRep",
    "trivial_group",
    "cyclic_group",
    "dihedral_group",
    "quaternion_group",
    "symmetric_group",
    "delta_functional",
    "uniform_mean",
    "is_mean",
    "translate_left",
    "translate_right",
    "invariant_means",
    "invariance_residual",
    "arens_product",
    "sigma",
    "sigma_dual",
    "left_regular_rep",
    "regular_character",
    "integrate_rep",
    "gns_regular",
    "triviality_test",
]

_REP_TOL = 1e-12


class FiniteGroup:
    """A finite group presented by its Cayley table of element indices.

    table[i, j] is the index of the product of elements i and j; the
    associativity, identity and inverse laws are verified exhaustively on
    construction.
    """

    __slots__ = ("order", "table", "inverse", "identity", "labels", "name")

    def __init__(self, table, labels=None, name: str = ""):
        try:
            t = np.asarray(table)
        except ValueError:          # ragged rows
            raise InputError("cayley table must be square") from None
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InputError("cayley table must be square")
        n = t.shape[0]
        if n < 1:
            raise InputError("group must have at least one element")
        if t.dtype.kind not in "iu":
            raise InputError("cayley table entries must be integer element indices")
        t = t.astype(int, copy=False)
        if t.min() < 0 or t.max() >= n:
            raise InputError("cayley table entries must be element indices")
        rng_idx = np.arange(n)
        ident = [i for i in range(n)
                 if np.array_equal(t[i], rng_idx) and np.array_equal(t[:, i], rng_idx)]
        if len(ident) != 1:
            raise InputError("cayley table has no two-sided identity")
        e = ident[0]
        # associativity: t[t[i,j],k] == t[i,t[j,k]] for all triples
        if not np.array_equal(t[t, :], t[:, t]):
            raise InputError("cayley table is not associative")
        inverse = np.full(n, -1, dtype=int)
        for i in range(n):
            js = np.nonzero(t[i] == e)[0]
            if js.size != 1 or t[js[0], i] != e:
                raise InputError(f"element {i} has no two-sided inverse")
            inverse[i] = js[0]
        if labels is not None and len(labels) != n:
            raise InputError("labels must match the group order")
        self.order = n
        self.table = t
        self.table.flags.writeable = False
        self.inverse = inverse
        self.inverse.flags.writeable = False
        self.identity = e
        self.labels = list(labels) if labels is not None else None
        self.name = name

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], labels=["e"], name="trivial")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic group needs n >= 1")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, labels=[str(i) for i in range(n)], name=f"z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements (rotation, flip)."""
    if n < 1:
        raise InputError("dihedral group needs n >= 1")
    elems = [(a, b) for b in (0, 1) for a in range(n)]
    index = {el: i for i, el in enumerate(elems)}

    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        return ((a1 + (a2 if b1 == 0 else -a2)) % n, (b1 + b2) % 2)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    labels = [f"r{a}" if b == 0 else f"sr{a}" for a, b in elems]
    return FiniteGroup(table, labels=labels, name=f"d{n}")


def quaternion_group() -> FiniteGroup:
    """The eight units {+-1, +-i, +-j, +-k} under quaternion multiplication."""
    units = ["1", "i", "j", "k"]
    mul_unit = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for s in (1, -1) for u in units]
    index = {el: i for i, el in enumerate(elems)}

    def mul(x, y):
        s1, u1 = x
        s2, u2 = y
        s3, u3 = mul_unit[(u1, u2)]
        return (s1 * s2 * s3, u3)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    labels = [("" if s == 1 else "-") + u for s, u in elems]
    return FiniteGroup(table, labels=labels, name="q8")


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n letters with composition (p q)(i) = p(q(i))."""
    if n < 1 or n > 6:
        raise InputError("symmetric group constructor supports 1 <= n <= 6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels=labels, name=f"s{n}")


def _same_group(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return g1 is g2 or (g1.order == g2.order and np.array_equal(g1.table, g2.table))


class GroupFunction:
    """A complex-valued function on a finite group, stored as a vector."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        v = np.asarray(values, dtype=complex).reshape(-1)
        if v.size != group.order:
            raise InputError("function vector must match the group order")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise InputError("function values must be finite")
        self.group = group
        self.values = v
        self.values.flags.writeable = False

    def __repr__(self) -> str:
        return f"GroupFunction({self.values.tolist()!r})"


class Functional:
    """A linear functional on group functions: psi -> sum(weights * psi)."""

    __slots__ = ("group", "weights")

    def __init__(self, group: FiniteGroup, weights):
        w = np.asarray(weights, dtype=complex).reshape(-1)
        if w.size != group.order:
            raise InputError("weight vector must match the group order")
        if not np.all(np.isfinite(w.real)) or not np.all(np.isfinite(w.imag)):
            raise InputError("weights must be finite")
        self.group = group
        self.weights = w
        self.weights.flags.writeable = False

    def __call__(self, psi: GroupFunction) -> complex:
        if not _same_group(psi.group, self.group):
            raise InputError("function and functional live on different groups")
        return complex(np.dot(self.weights, psi.values))

    def __repr__(self) -> str:
        return f"Functional({self.weights.tolist()!r})"


def delta_functional(group: FiniteGroup, x: int) -> Functional:
    w = np.zeros(group.order, dtype=complex)
    w[x] = 1.0
    return Functional(group, w)


def uniform_mean(group: FiniteGroup) -> Functional:
    return Functional(group, np.full(group.order, 1.0 / group.order, dtype=complex))


def is_mean(mu: Functional, tol: float = 1e-12) -> bool:
    """Nonnegative real weights summing to one."""
    w = mu.weights
    if np.abs(w.imag).max(initial=0.0) > tol:
        return False
    if w.real.min(initial=0.0) < -tol:
        return False
    return abs(w.real.sum() - 1.0) <= tol


def _check_element(group: FiniteGroup, x: int) -> int:
    if int(x) != x or not (0 <= x < group.order):
        raise InputError(f"element index {x} out of range for order {group.order}")
    return int(x)


def translate_left(x: int, psi: GroupFunction) -> GroupFunction:
    """(L_x psi)(y) = psi(x y).  Note L_x L_y = L_{y x} under composition."""
    x = _check_element(psi.group, x)
    return GroupFunction(psi.group, psi.values[psi.group.table[x]])


def translate_right(x: int, psi: GroupFunction) -> GroupFunction:
    """(R_x psi)(y) = psi(y x)."""
    x = _check_element(psi.group, x)
    return GroupFunction(psi.group, psi.values[psi.group.table[:, x]])


def invariant_means(group: FiniteGroup) -> list[Functional]:
    """All left-invariant means on the group: for finite groups exactly the
    uniform weights.

    Invariance says the weights are fixed by every left-multiplication
    permutation.  Left multiplication is transitive (y = (y x^{-1}) x), so
    a fixed weight vector is constant, and the unique normalised one is
    the uniform mean.  The group axioms this rests on are verified when
    the group is constructed.
    """
    return [uniform_mean(group)]


def invariance_residual(group: FiniteGroup, w: np.ndarray) -> float:
    """Largest change of the weights under a left translation:
    max over x, u of |w[x u] - w[u]|."""
    return float(np.abs(w[group.table] - w).max())


def arens_product(mu: Functional, nu: Functional) -> Functional:
    """Product on functionals induced by iterated translation, evaluated on
    the delta basis; on a finite group this is weight convolution:
    (mu nu)_z = sum over x y = z of mu_x nu_y."""
    if not _same_group(mu.group, nu.group):
        raise InputError("functionals live on different groups")
    g = mu.group
    w = np.zeros(g.order, dtype=complex)
    for x in range(g.order):
        # <mu . nu, delta_z> = <mu, nu . delta_z> with (nu . delta_z)(x) = nu_{x^{-1} z}
        w += mu.weights[x] * nu.weights[g.table[g.inverse[x]]]
    return Functional(g, w)


def sigma(psi: GroupFunction) -> GroupFunction:
    """The flip involution (sigma psi)(x) = conj(psi(x^{-1}))."""
    return GroupFunction(psi.group, psi.values[psi.group.inverse].conj())


def sigma_dual(mu: Functional) -> Functional:
    """Anti-dual of the flip: weights w_u -> conj(w_{u^{-1}})."""
    return Functional(mu.group, mu.weights[mu.group.inverse].conj())


class UnitaryRep:
    """A unitary representation: one unitary matrix per group element.

    Homomorphism, unitarity and normalisation at the identity are
    validated on construction.
    """

    __slots__ = ("group", "matrices", "dim")

    def __init__(self, group: FiniteGroup, matrices, tol: float = _REP_TOL):
        mats = [as_matrix(m, square=True, name="representation matrix")
                for m in matrices]
        if len(mats) != group.order:
            raise InputError("need one matrix per group element")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise InputError("representation matrices must share one dimension")
        eye = np.eye(d)
        scale = tol * max(1.0, np.sqrt(d))
        if frob(mats[group.identity] - eye) > scale:
            raise InputError("identity element must map to the identity matrix")
        for i, m in enumerate(mats):
            if frob(dagger(m) @ m - eye) > scale:
                raise InputError(f"matrix for element {i} is not unitary")
        for i in range(group.order):
            for j in range(group.order):
                if frob(mats[i] @ mats[j] - mats[group.table[i, j]]) > scale:
                    raise InputError(
                        f"homomorphism fails at elements ({i}, {j})")
        for m in mats:
            m.flags.writeable = False
        self.group = group
        self.matrices = mats
        self.dim = d

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[_check_element(self.group, x)]

    def character(self) -> np.ndarray:
        return np.array([np.trace(m) for m in self.matrices])


def left_regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Permutation matrices of left translation on the group itself."""
    n = group.order
    mats = []
    for x in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[group.table[x], np.arange(n)] = 1.0
        mats.append(m)
    return UnitaryRep(group, mats)


def regular_character(group: FiniteGroup) -> np.ndarray:
    """Character of the left regular representation, written down exactly:
    a left translation fixes a point only when it is the identity, so the
    trace is the group order there and zero elsewhere."""
    char = np.zeros(group.order)
    char[group.identity] = group.order
    return char


def integrate_rep(rep: UnitaryRep, mu: Functional) -> np.ndarray:
    """The functional integrated against the representation: sum of
    weights(x) times the matrix of x.  Multiplicative for the induced
    product on functionals and intertwines the flip with the adjoint."""
    if not _same_group(rep.group, mu.group):
        raise InputError("representation and functional live on different groups")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for x in range(rep.group.order):
        out += mu.weights[x] * rep.matrices[x]
    return out


def _quotient_rep(group: FiniteGroup, weights: np.ndarray):
    """Gram-quotient compression of the translation action psi -> L_{x^{-1}} psi.

    Returns the compressed matrices and the rank of the Gram matrix of the
    delta basis under the form (psi, chi) -> sum w psi conj(chi).
    """
    n = group.order
    # The Gram matrix of the delta basis is diagonal: its eigenvectors are
    # the deltas and its eigenvalues the weights.
    gram = np.diag(weights.astype(complex))
    keep = weights > 1e-12 * max(float(weights.max()), 0.0)
    rank = int(np.count_nonzero(keep))
    basis = np.eye(n, dtype=complex)[:, keep] / np.sqrt(weights[keep])
    mats = []
    for x in range(n):
        perm = np.zeros((n, n), dtype=complex)
        perm[group.table[x], np.arange(n)] = 1.0   # delta_a -> delta_{x a}
        mats.append(dagger(basis) @ gram @ perm @ basis)
    return mats, rank


def gns_regular(group: FiniteGroup, mu: Functional,
                tol: float = 1e-10) -> UnitaryRep:
    """Regular representation attached to an invariant mean.

    The Hilbert space is the Gram quotient of the functions under
    (psi, chi) -> mu(psi conj(chi)); the group acts by psi -> L_{x^{-1}} psi.
    For the uniform mean this is unitarily equivalent to the left regular
    representation (matching characters).
    """
    if not _same_group(mu.group, group):
        raise InputError("mean lives on a different group")
    if not is_mean(mu, tol=tol):
        raise InputError("functional is not a mean (weights must be a probability)")
    w = mu.weights.real
    residual = invariance_residual(group, w)
    if residual > tol:
        raise InputError(f"mean is not left invariant (residual {residual:.2e})")
    mats, _ = _quotient_rep(group, w)
    return UnitaryRep(group, mats)


def triviality_test(group: FiniteGroup, mu: Functional,
                    tol: float = 1e-12) -> bool:
    """Whether the mean's regular representation is trivial: the criterion
    mu(chi psi) = mu(chi L_x psi) over the delta basis and all x."""
    if not _same_group(mu.group, group):
        raise InputError("mean lives on a different group")
    w = mu.weights
    n = group.order
    for x in range(n):
        # mu(delta_a L_x delta_b) = w_a [x a = b] while mu(delta_a delta_b)
        # is w_a [a = b]; they agree for all b iff w_a = 0 or x a = a.
        xa = group.table[x]
        for a in range(n):
            if abs(w[a]) > tol and xa[a] != a:
                return False
    return True
