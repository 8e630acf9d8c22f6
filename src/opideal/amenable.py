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
from .utils import (GNS_TOL, MAX_GROUP_ORDER, ZERO_TOL, as_matrix, frob,
                    is_unitary, unitary_bound)


class FiniteGroup:
    """A finite group presented by its Cayley table of element indices.

    table[i, j] is the index of the product of elements i and j; the
    identity and inverse laws are verified exhaustively on construction,
    associativity by Light's test on a generating set.
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
        is_e = t == e
        inverse = is_e.argmax(axis=1)
        no_inverse = (is_e.sum(axis=1) != 1) | (t[inverse, rng_idx] != e)
        if no_inverse.any():
            i = int(np.flatnonzero(no_inverse)[0])
            raise InputError(f"element {i} has no two-sided inverse")
        if not _is_associative(t, e):
            raise InputError("cayley table is not associative")
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


def _generating_set(t: np.ndarray, e: int) -> list[int]:
    """Greedy generators of the table: each one is the first element
    outside the closure of e and the generators before it under the
    table's product."""
    n = t.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[e] = True
    gens = []
    while not inside.all():
        g = int(np.argmin(inside))
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:
            # products with a new factor; those of two old factors are inside
            old = np.flatnonzero(inside)
            hit = np.zeros(n, dtype=bool)
            hit[t[np.ix_(new, old)]] = True
            hit[t[np.ix_(old, new)]] = True
            hit &= ~inside
            inside |= hit
            new = np.flatnonzero(hit)
    return gens


def _is_associative(t: np.ndarray, e: int) -> bool:
    """Light's associativity test (Clifford & Preston, The Algebraic Theory
    of Semigroups I, 1961, section 1.2) for a table with a two-sided
    identity e and two-sided inverses.

    The elements a with (x a) y = x (a y) for all x, y form a submagma
    that contains e, so the law holds everywhere once it holds for a
    generating set: O(|S| n^2) work in place of O(n^3).  In a group the
    closure of k greedy generators is a subgroup of order at least 2^k,
    so a table that needs more than log2 n of them is no group; with the
    identity and inverses verified, it is not associative.
    """
    gens = _generating_set(t, e)
    if len(gens) > t.shape[0].bit_length() - 1:
        return False
    return all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in gens)


def check_group_order(order: int) -> None:
    """Refuse an order above MAX_GROUP_ORDER before anything that size is built."""
    if order > MAX_GROUP_ORDER:
        raise InputError(f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], labels=["e"], name="trivial")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic group needs n >= 1")
    check_group_order(n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, labels=[str(i) for i in range(n)], name=f"z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements (rotation, flip)."""
    if n < 1:
        raise InputError("dihedral group needs n >= 1")
    check_group_order(2 * n)
    # element b n + a is the rotation a followed by b flips; a flip
    # reverses the rotation it passes
    idx = np.arange(2 * n)
    a, b = idx % n, idx // n
    rot = (a[:, None] + np.where(b[:, None] == 0, a, -a)) % n
    table = (b[:, None] ^ b) * n + rot
    labels = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    return FiniteGroup(table, labels=labels, name=f"d{n}")


def quaternion_group() -> FiniteGroup:
    """The eight units {+-1, +-i, +-j, +-k} as 2 x 2 complex matrices: i = diag(i, -i),
    j = [[0, 1], [-1, 0]] and k = i j.  Every entry is 0, +-1 or +-i, so each
    product is exact and the table is read off by equality."""
    i, j = np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
    units = np.array([np.eye(2), i, j, i @ j])
    mats = np.concatenate([units, -units])
    # table[x, y] is the z whose matrix equals mats[x] @ mats[y]
    table = ((mats[:, None] @ mats)[:, :, None] == mats).all(axis=(3, 4)).argmax(axis=2)
    return FiniteGroup(table, labels="1 i j k -1 -i -j -k".split(), name="q8")


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n letters with composition (p q)(i) = p(q(i))."""
    if n < 1 or n > 6:
        raise InputError("symmetric group constructor supports 1 <= n <= 6")
    perms = np.array(list(itertools.permutations(range(n))))  # lexicographic
    # a permutation's index is the rank of its base-n digits among all
    # permutations; (p q)(i) = p(q(i)) is perms[:, perms[:, i]]
    place = n ** np.arange(n - 1, -1, -1)
    codes = sum(perms[:, perms[:, i]] * place[i] for i in range(n))
    table = np.searchsorted(perms @ place, codes)
    labels = ["".join(map(str, p)) for p in perms.tolist()]
    return FiniteGroup(table, labels=labels, name=f"s{n}")


def _same_group(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return g1 is g2 or (g1.order == g2.order and np.array_equal(g1.table, g2.table))


def _group_vector(group: FiniteGroup, values, vector: str, entries: str) -> np.ndarray:
    """values as a read-only complex vector of one finite entry per element."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    if v.size != group.order:
        raise InputError(f"{vector} must match the group order")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InputError(f"{entries} must be finite")
    v.flags.writeable = False
    return v


class GroupFunction:
    """A complex-valued function on a finite group, stored as a vector."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.values = _group_vector(group, values, "function vector", "function values")

    def __repr__(self) -> str:
        return f"GroupFunction({self.values.tolist()!r})"


class Functional:
    """A linear functional on group functions: psi -> sum(weights * psi)."""

    __slots__ = ("group", "weights")

    def __init__(self, group: FiniteGroup, weights):
        self.group = group
        self.weights = _group_vector(group, weights, "weight vector", "weights")

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


def is_mean(mu: Functional, tol: float = ZERO_TOL) -> bool:
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

    def __init__(self, group: FiniteGroup, matrices):
        mats = [as_matrix(m, square=True, name="representation matrix")
                for m in matrices]
        if len(mats) != group.order:
            raise InputError("need one matrix per group element")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise InputError("representation matrices must share one dimension")
        scale = unitary_bound(d)
        if frob(mats[group.identity] - np.eye(d)) > scale:
            raise InputError("identity element must map to the identity matrix")
        for i, m in enumerate(mats):
            if not is_unitary(m):
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


class RegularRep:
    """The left regular representation as permutations of the elements:
    x sends delta_a to delta_{x a}.

    Only the group's Cayley table is stored.  Its homomorphism law is the
    associativity the group verified on construction, and its matrices
    are permutation matrices, so they are unitary and exact.
    """

    __slots__ = ("group", "dim")

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.dim = group.order

    def matrix(self, x: int) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.group.table[_check_element(self.group, x)], np.arange(self.dim)] = 1.0
        return m

    def character(self) -> np.ndarray:
        """Number of points each left translation fixes, counted exactly."""
        fixed = self.group.table == np.arange(self.dim)
        return np.count_nonzero(fixed, axis=1).astype(float)


def left_regular_rep(group: FiniteGroup) -> RegularRep:
    """Left translation on the group itself."""
    return RegularRep(group)


def regular_character(group: FiniteGroup) -> np.ndarray:
    """Character of the left regular representation, written down exactly:
    a left translation fixes a point only when it is the identity, so the
    trace is the group order there and zero elsewhere."""
    char = np.zeros(group.order)
    char[group.identity] = group.order
    return char


def integrate_rep(rep: UnitaryRep | RegularRep, mu: Functional) -> np.ndarray:
    """The functional integrated against the representation: sum of
    weights(x) times the matrix of x.  Multiplicative for the induced
    product on functionals and intertwines the flip with the adjoint."""
    if not _same_group(rep.group, mu.group):
        raise InputError("representation and functional live on different groups")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    if isinstance(rep, RegularRep):
        # x puts weights(x) at (x a, a); x -> x a is a bijection for each a
        out[rep.group.table, np.arange(rep.dim)] = mu.weights[:, None]
        return out
    for x in range(rep.group.order):
        out += mu.weights[x] * rep.matrices[x]
    return out


def gns_regular(group: FiniteGroup, mu: Functional) -> RegularRep:
    """Regular representation attached to an invariant mean.

    The Hilbert space is the Gram quotient of the functions under
    (psi, chi) -> mu(psi conj(chi)); the group acts by psi -> L_{x^{-1}} psi.
    A mean that passes the checks below is the uniform one within GNS_TOL.
    The uniform mean's form is the standard inner product over |G|, so the
    vectors sqrt(|G|) delta_a are an orthonormal basis of the quotient and
    x sends delta_a to delta_{x a}: the representation is exactly the left
    regular one.
    """
    if not _same_group(mu.group, group):
        raise InputError("mean lives on a different group")
    if not is_mean(mu, tol=GNS_TOL):
        raise InputError("functional is not a mean (weights must be a probability)")
    residual = invariance_residual(group, mu.weights.real)
    if residual > GNS_TOL:
        raise InputError(f"mean is not left invariant (residual {residual:.2e})")
    return left_regular_rep(group)


def triviality_test(group: FiniteGroup, mu: Functional) -> bool:
    """Whether the mean's regular representation is trivial: the criterion
    mu(chi psi) = mu(chi L_x psi) over the delta basis and all x."""
    if not _same_group(mu.group, group):
        raise InputError("mean lives on a different group")
    # mu(delta_a L_x delta_b) = w_a [x a = b] while mu(delta_a delta_b) is
    # w_a [a = b]; they agree for all b iff w_a = 0 or x a = a.
    support = np.nonzero(np.abs(mu.weights) > ZERO_TOL)[0]
    return bool(np.all(group.table[:, support] == support))
