"""The ten classical matrix group types over a finite-dimensional space.

Each type is cut out of the invertible matrices by up to two relations
built from a conjugation (antilinear, squaring to +1), an anti-conjugation
(antilinear, squaring to -1), or a signature matrix.  Antilinear maps are
realised as a unitary matrix composed with entrywise conjugation, which
turns every defining relation into an explicit matrix identity:

    conjugation J v = C conj(v)       with C unitary, C conj(C) = +1
    anti-conjugation Jt v = Ca conj(v) with Ca unitary, Ca conj(Ca) = -1
    J x* J^{-1}  = C x^T conj(C)            (J^{-1} = J)
    Jt x* Jt^{-1} = -Ca x^T conj(Ca)        (Jt^{-1} = -Jt)

The module provides membership predicates, averaging projections onto the
matrix Lie algebras, structured random sampling, the polar (Cartan)
decomposition with its involution, the KAN (Iwasawa) decomposition for the
general linear case, and a commutant-based irreducibility test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import CLASSICAL_TYPES, factor, nest
from .errors import DomainError, InputError
from .utils import (CARTAN_TOL, EIGEN_GAP_TOL, MEMBERSHIP_TOL, NULLITY_TOL, as_matrix, crandn,
                    dagger, expm, frob, is_hermitian, is_singular, is_unitary, nonsingular_cond,
                    opnorm, pow2_scaled, solve, svd, times_pow2, unitary_bound)


class _Relation(NamedTuple):
    """One defining relation: the structure matrix it reads (a StructureData
    attribute), its group residual, the power of ||g|| that scales that
    residual, and the R-linear involution of the Lie algebra it fixes."""

    matrix: str
    residual: Callable[[np.ndarray, np.ndarray], float]
    power: int
    involution: Callable[[np.ndarray, np.ndarray], np.ndarray]


# The antilinear structure maps, by StructureData attribute: C conj(C), and
# the map's article and name.
_ANTILINEAR = {"c_conj": (1, "a", "conjugation"),
               "c_anti": (-1, "an", "anti-conjugation")}


def _antilinear(attr: str) -> _Relation:
    """g C = C conj(g), whose involution x -> C conj(x) C^{-1} has
    C^{-1} = sign conj(C), sign the map's square."""
    sign = float(_ANTILINEAR[attr][0])
    return _Relation(attr, lambda g, c: frob(g @ c - c @ g.conj()), 1,
                     lambda x, c: sign * (c @ x.conj() @ c.conj()))


_RELATIONS = {
    # g^{-1} = C g^T conj(C)
    "orth": _Relation("c_conj",
                      lambda g, c: frob(g @ (c @ g.T @ c.conj()) - np.eye(g.shape[0])),
                      2, lambda x, c: -c @ x.T @ c.conj()),
    # g^{-1} = -Ca g^T conj(Ca)
    "symp": _Relation("c_anti",
                      lambda g, c: frob(g @ (c @ g.T @ c.conj()) + np.eye(g.shape[0])),
                      2, lambda x, c: c @ x.T @ c.conj()),
    "real": _antilinear("c_conj"),
    "quat": _antilinear("c_anti"),
    # g* V g = V
    "iu": _Relation("v", lambda g, c: frob(dagger(g) @ c @ g - c),
                    2, lambda x, c: -c @ dagger(x) @ c),
}

# The defining relations of each type, in the order algebra_project averages over them.
_TYPE_RELATIONS = dict(zip(CLASSICAL_TYPES, [
    (),                 # A
    ("orth",),          # B
    ("symp",),          # C
    ("real",),          # AI
    ("quat",),          # AII
    ("iu",),            # AIII
    ("orth", "iu"),     # BI
    ("orth", "quat"),   # BII
    ("symp", "real"),   # CI
    ("symp", "iu"),     # CII
], strict=True))


@dataclass(frozen=True)
class StructureData:
    """Conjugation / anti-conjugation matrices and signature split for one type.

    ``c_conj`` realises the conjugation, ``c_anti`` the anti-conjugation,
    and ``split`` gives the sizes of the +1 and -1 blocks of the signature
    ``v``.  Absent pieces are None.
    """

    n: int
    c_conj: np.ndarray | None = None
    c_anti: np.ndarray | None = None
    split: tuple[int, int] | None = None

    @property
    def v(self) -> np.ndarray | None:
        """The signature diag(+1...,-1...) of the split."""
        if self.split is None:
            return None
        p, q = self.split
        return np.diag(np.concatenate([np.ones(p), -np.ones(q)])).astype(complex)


def _reads(typ: str, n: int) -> set[str]:
    """The structure matrices the type's relations read.  Rejects an unknown
    type, and an odd n for a type with an anti-conjugation."""
    if typ not in _TYPE_RELATIONS:
        raise InputError(f"unknown classical type {typ!r}")
    reads = {_RELATIONS[name].matrix for name in _TYPE_RELATIONS[typ]}
    if "c_anti" in reads and n % 2:
        raise InputError(f"type {typ} needs even dimension, got n={n}")
    return reads


def _check_split(split, n: int) -> None:
    p, q = split
    if p + q != n or p < 1 or q < 1:
        raise InputError(f"split {split} does not partition dimension {n}")


def _symplectic_form(blocks) -> np.ndarray:
    """Direct sum of the standard symplectic forms on consecutive blocks of
    the given even sizes."""
    n = sum(blocks)
    w = np.zeros((n, n), dtype=complex)
    start = 0
    for size in blocks:
        mid, end = start + size // 2, start + size
        w[start:mid, mid:end] = np.eye(size // 2)
        w[mid:end, start:mid] = -np.eye(size // 2)
        start = end
    return w


def default_structure(typ: str, n: int, split=None) -> StructureData:
    """Standard structure matrices for a type: identity conjugation, the
    standard symplectic form and the split (n - n//2, n//2).  When the
    anti-conjugation must preserve both signature blocks (CII) the default
    split is (2 (n//4), n - 2 (n//4)) and the form is taken per block.
    Types without a signature ignore ``split``."""
    reads = _reads(typ, n)
    c_conj = np.eye(n, dtype=complex) if "c_conj" in reads else None
    c_anti = None
    blocks = (n,)
    if "v" in reads:
        if split is None:
            smallest = 4 if "c_anti" in reads else 2    # both default blocks nonempty
            if n < smallest:
                raise InputError(f"type {typ} needs n >= {smallest} for its default split, "
                                 f"got n={n}")
            p = 2 * (n // 4) if "c_anti" in reads else n - n // 2
            split = (p, n - p)
        split = (int(split[0]), int(split[1]))
        _check_split(split, n)
        blocks = split
    else:
        split = None
    if "c_anti" in reads:
        if any(size % 2 for size in blocks):
            raise InputError(f"type {typ} needs even split components, got {split}")
        c_anti = _symplectic_form(blocks)
    return StructureData(n=n, c_conj=c_conj, c_anti=c_anti, split=split)


def validate_structure(typ: str, structure: StructureData) -> None:
    """Check the structure matrices satisfy the invariants of the type: each
    (anti-)conjugation is unitary and squares to +1 (-1), the split
    partitions n, a conjugation and an anti-conjugation commute, and each
    preserves both signature blocks."""
    n = structure.n
    reads = _reads(typ, n)
    eye = np.eye(n)
    scale = unitary_bound(n)
    maps = {}
    for attr, (square, article, what) in _ANTILINEAR.items():
        if attr not in reads:
            continue
        c = getattr(structure, attr)
        if c is None:
            raise InputError(f"type {typ} needs {article} {what} matrix")
        c = as_matrix(c, square=True, name=attr)
        if c.shape[0] != n:
            raise InputError(f"{attr} has dimension {c.shape[0]}, expected {n}")
        if not is_unitary(c):
            raise InputError(f"{attr} must be unitary")
        if frob(c @ c.conj() - square * eye) > scale:
            raise InputError(f"{what} must square to {square:+d} (C conj(C) = {square})")
        maps[what] = c
    if "v" in reads:
        if structure.split is None:
            raise InputError(f"type {typ} needs a signature matrix and split")
        _check_split(structure.split, n)
        p = structure.split[0]
        for what, c in maps.items():
            if frob(c[p:, :p]) + frob(c[:p, p:]) > scale:
                raise InputError(f"type {typ} needs the {what} to preserve both blocks")
    if len(maps) == 2:
        c, ca = maps.values()
        if frob(c @ ca.conj() - ca @ c.conj()) > scale:
            raise InputError(f"type {typ} needs commuting (anti-)conjugations")


def _relations(typ: str, structure: StructureData):
    """The defining relations of a type as (name, structure matrix) pairs."""
    return [(name, getattr(structure, _RELATIONS[name].matrix))
            for name in _TYPE_RELATIONS[typ]]


def _resolve(typ: str, x: np.ndarray, structure: StructureData | None):
    if structure is None:
        structure = default_structure(typ, x.shape[0])
    validate_structure(typ, structure)
    if x.shape[0] != structure.n:
        raise InputError(
            f"matrix dimension {x.shape[0]} does not match structure n={structure.n}")
    return structure


def algebra_membership(x, typ: str, structure: StructureData | None = None,
                       tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether x is fixed by every defining involution of the type:
    ||x - theta(x)||_F within tol scaled by max(1, ||x||) sqrt(n)."""
    x = as_matrix(x, square=True)
    structure = _resolve(typ, x, structure)
    rootn = np.sqrt(x.shape[0])
    return all(frob(x - _RELATIONS[name].involution(x, c))
               <= tol * max(1.0, opnorm(x)) * rootn
               for name, c in _relations(typ, structure))


def group_membership(g, typ: str, structure: StructureData | None = None,
                     tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether g is invertible and satisfies all group relations of the type:
    each residual within tol scaled by max(1, ||g||^power) sqrt(n)."""
    g = as_matrix(g, square=True)
    return _group_membership(g, typ, _resolve(typ, g, structure), tol, svd(g))


def _group_membership(g, typ: str, structure: StructureData, tol: float, s) -> bool:
    """group_membership of g given its singular values s, descending."""
    if not s.size or s[-1] == 0.0 or is_singular(float(s[0]) / float(s[-1])):
        return False
    relations = _relations(typ, structure)
    nrm = float(s[0])
    rootn = np.sqrt(g.shape[0])
    return all(_RELATIONS[name].residual(g, c)
               <= tol * max(1.0, nrm ** _RELATIONS[name].power) * rootn
               for name, c in relations)


def algebra_project(x, typ: str,
                    structure: StructureData | None = None) -> np.ndarray:
    """Average x over the type's defining involutions; lands in the algebra,
    is idempotent, and fixes members."""
    x = as_matrix(x, square=True)
    structure = _resolve(typ, x, structure)
    terms = [x]
    for name, c in _relations(typ, structure):
        theta = _RELATIONS[name].involution
        terms = terms + [theta(t, c) for t in terms]
    return sum(terms) / len(terms)


def random_group_element(typ: str, structure: StructureData, seed: int = 0,
                         radius: float = 0.5) -> np.ndarray:
    """Deterministic sample: the product of two exponentials of radius-scaled
    projected algebra elements.  Stays in the identity component."""
    if radius <= 0:
        raise InputError("radius must be positive")
    dim = structure.n
    rng = np.random.default_rng(seed)
    g = np.eye(dim, dtype=complex)
    for _ in range(2):
        x = algebra_project(crandn(rng, dim, dim), typ, structure)
        nrm = opnorm(x)
        if nrm > 0.0:
            g = g @ expm(x * (radius / nrm))
    return g


@dataclass(frozen=True)
class CartanFactors:
    """g = k p: k unitary in the group, x Hermitian in the algebra, p = exp(x)."""

    k: np.ndarray
    x: np.ndarray
    p: np.ndarray


def cartan_decompose(g, typ: str,
                     structure: StructureData | None = None) -> CartanFactors:
    """Polar split g = k exp(x) from one SVD g = w diag(s) vh, whose s the group test
    reads: k = w vh, x = vh* diag(log s) vh, p = vh* diag(s) vh; backward stable (N. J.
    Higham, SIAM J. Sci. Stat. Comput. 7, 1986), where eigh(g* g) loses cond(g)^2 eps."""
    g = as_matrix(g, square=True)
    structure = _resolve(typ, g, structure)
    w, s, vh = svd(g, vectors=True)
    if not _group_membership(g, typ, structure, CARTAN_TOL, s):
        raise DomainError(f"matrix fails the {typ} group relations at tol {CARTAN_TOL:g}")
    v = dagger(vh)
    return CartanFactors(k=w @ vh, x=(v * np.log(s)) @ vh, p=(v * s) @ vh)


def cartan_involution(g) -> np.ndarray:
    """The involution g -> (g*)^{-1}; fixes exactly the unitaries.  Every
    inverse in the double range is returned, as of 0.9 2^-1024 [[1, 1], [1, -1]]
    (entries about 1e308); one past it, as of 1e-310 [[2, 1], [1, 2]], is a DomainError."""
    g = as_matrix(g, square=True)
    nonsingular_cond(g)
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = solve(g, np.eye(g.shape[0]))
    if not np.isfinite(inverse).all():
        raise DomainError("the inverse of the matrix lies outside the double range")
    return dagger(inverse)


def regular_eigenflag(x0) -> nest.Flag:
    """Maximal flag adapted to a regular Hermitian x0, eigenvalues descending.

    Rejects x0 whose spectrum has a gap below EIGEN_GAP_TOL (relative to
    the largest magnitude), naming the colliding eigenvalues.
    """
    x0 = as_matrix(x0, square=True, name="x0")
    if not is_hermitian(x0):
        raise InputError("x0 must be Hermitian")
    lam, w = np.linalg.eigh((x0 + dagger(x0)) / 2.0)
    lam, w = lam[::-1], w[:, ::-1]
    scale = float(np.abs(lam).max())
    for i in range(lam.size - 1):
        if lam[i] - lam[i + 1] <= EIGEN_GAP_TOL * scale:
            raise DomainError(
                f"x0 is not regular: eigenvalues {lam[i]:.6g} and "
                f"{lam[i + 1]:.6g} collide (gap below {EIGEN_GAP_TOL:g})")
    return nest.Flag(w, range(1, lam.size + 1))


@dataclass(frozen=True)
class IwasawaFactors:
    """g = k a n: unitary k, positive a commuting with x0, unipotent n."""

    k: np.ndarray
    a: np.ndarray
    n: np.ndarray
    x0: np.ndarray


def _default_regular(n: int) -> np.ndarray:
    return np.diag(np.arange(n, 0, -1)).astype(complex)


def iwasawa_decompose(g, x0=None) -> IwasawaFactors:
    """KAN decomposition of an invertible g relative to the eigenflag of x0.

    In the eigenflag's basis g = u b is the QR decomposition with positive
    diagonal, and b = a n splits b into its diagonal and unit upper
    triangular parts, n from b and the diagonal each divided by its own power
    of 2 and the quotient scaled back, as in ``utils.solve`` (a subnormal
    pivot divides); k, a and n are those three rotated back.
    For the default x0 = diag(n, ..., 1) the eigenflag is the standard one.
    """
    g = as_matrix(g, square=True, name="g")
    x0 = _default_regular(g.shape[0]) if x0 is None else as_matrix(x0, square=True, name="x0")
    flag = regular_eigenflag(x0)
    qb = factor.qb_nest(flag.to_adapted(g), nest.Flag.standard(flag.n))
    diag = np.real(np.diag(qb.b))
    (ds, e), (bs, f) = pow2_scaled(diag), pow2_scaled(qb.b)
    nt = times_pow2(bs / ds[:, None], f - e)
    np.fill_diagonal(nt, 1.0)
    return IwasawaFactors(k=flag.from_adapted(qb.u), a=flag.from_adapted(np.diag(diag + 0j)),
                          n=flag.from_adapted(nt), x0=x0)


def iwasawa_algebra_split(x, x0=None):
    """Split x into skew-Hermitian, real-diagonal and strictly-upper parts
    relative to the eigenflag of x0: the Lie algebra shadow of KAN."""
    x = as_matrix(x, square=True)
    x0 = _default_regular(x.shape[0]) if x0 is None else as_matrix(x0, square=True, name="x0")
    flag = regular_eigenflag(x0)
    low, dia, upp = nest.triangular_integral(flag, x)
    dherm = (dia + dagger(dia)) / 2.0
    return low - dagger(low) + (dia - dherm), dherm, upp + dagger(low)


def irreducibility_check(generators) -> bool:
    """True iff the adjoint-closed set generated by the matrices has scalar
    commutant, tested by the null space of the stacked commutator system."""
    mats = [as_matrix(m, square=True) for m in generators]
    if not mats:
        raise InputError("generator list must be nonempty")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise InputError("generators must share one dimension")
    eye = np.eye(n)
    rows = []
    for m in mats:
        for gen in (m, dagger(m)):
            rows.append(np.kron(gen.T, eye) - np.kron(eye, gen))
    system = np.vstack(rows)
    s = svd(system)
    if s.size == 0 or s[0] == 0.0:
        return n * n == 1
    nullity = int(np.sum(s <= NULLITY_TOL * s[0])) + (n * n - s.size)
    return nullity == 1
