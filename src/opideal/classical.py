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

import numpy as np

from .errors import DomainError, InputError
from .factor import qb_nest
from .nest import Flag, triangular_integral
from .utils import (CARTAN_TOL, EIGEN_GAP_TOL, MEMBERSHIP_TOL, NULLITY_TOL,
                    as_matrix, cond2, crandn, dagger, frob, is_hermitian,
                    is_singular, is_unitary, opnorm, unitary_bound)

__all__ = [
    "CLASSICAL_TYPES",
    "StructureData",
    "CartanFactors",
    "IwasawaFactors",
    "default_structure",
    "validate_structure",
    "algebra_membership",
    "group_membership",
    "algebra_project",
    "random_group_element",
    "cartan_decompose",
    "cartan_involution",
    "regular_eigenflag",
    "iwasawa_decompose",
    "iwasawa_algebra_split",
    "irreducibility_check",
]

CLASSICAL_TYPES = ("A", "B", "C", "AI", "AII", "AIII", "BI", "BII", "CI", "CII")

_EVEN_TYPES = frozenset({"C", "AII", "BII", "CI", "CII"})
_NEEDS = {
    "A": (),
    "B": ("conj",),
    "C": ("anti",),
    "AI": ("conj",),
    "AII": ("anti",),
    "AIII": ("signature",),
    "BI": ("conj", "signature"),
    "BII": ("conj", "anti"),
    "CI": ("conj", "anti"),
    "CII": ("anti", "signature"),
}


@dataclass(frozen=True)
class StructureData:
    """Conjugation / anti-conjugation matrices and signature for one type.

    ``c_conj`` realises the conjugation, ``c_anti`` the anti-conjugation,
    ``v`` is the diag(+1...,-1...) signature with ``split`` giving the two
    block sizes.  Absent pieces are None.
    """

    n: int
    c_conj: np.ndarray | None = None
    c_anti: np.ndarray | None = None
    v: np.ndarray | None = None
    split: tuple[int, int] | None = None


def _symplectic_form(n: int) -> np.ndarray:
    m = n // 2
    w = np.zeros((n, n), dtype=complex)
    w[:m, m:] = np.eye(m)
    w[m:, :m] = -np.eye(m)
    return w


def default_structure(typ: str, n: int, split=None) -> StructureData:
    """Standard structure matrices for a type: identity conjugation, the
    standard symplectic form (split per block for CII), diag(+1,-1) signature."""
    if typ not in CLASSICAL_TYPES:
        raise InputError(f"unknown classical type {typ!r}")
    if typ in _EVEN_TYPES and n % 2:
        raise InputError(f"type {typ} needs even dimension, got n={n}")
    needs = _NEEDS[typ]
    c_conj = np.eye(n, dtype=complex) if "conj" in needs else None
    c_anti = None
    v = None
    if "signature" in needs:
        if split is None:
            if typ == "CII":
                p = 2 * (n // 4)
                split = (p, n - p)
            else:
                split = (n - n // 2, n // 2)
        split = (int(split[0]), int(split[1]))
        if split[0] + split[1] != n or split[0] < 1 or split[1] < 1:
            raise InputError(f"split {split} does not partition dimension {n}")
        v = np.diag(np.concatenate([np.ones(split[0]), -np.ones(split[1])])
                    ).astype(complex)
    if "anti" in needs:
        if typ == "CII":
            p, q = split
            if p % 2 or q % 2:
                raise InputError(
                    f"type CII needs even split components, got {split}")
            c_anti = np.zeros((n, n), dtype=complex)
            c_anti[:p, :p] = _symplectic_form(p)
            c_anti[p:, p:] = _symplectic_form(q)
        else:
            c_anti = _symplectic_form(n)
    return StructureData(n=n, c_conj=c_conj, c_anti=c_anti, v=v, split=split)


def validate_structure(typ: str, structure: StructureData) -> None:
    """Check the structure matrices satisfy the invariants of the type."""
    if typ not in CLASSICAL_TYPES:
        raise InputError(f"unknown classical type {typ!r}")
    n = structure.n
    if typ in _EVEN_TYPES and n % 2:
        raise InputError(f"type {typ} needs even dimension, got n={n}")
    needs = _NEEDS[typ]
    eye = np.eye(n)
    scale = unitary_bound(n)

    def _unitary(c, name):
        c = as_matrix(c, square=True, name=name)
        if c.shape[0] != n:
            raise InputError(f"{name} has dimension {c.shape[0]}, expected {n}")
        if not is_unitary(c):
            raise InputError(f"{name} must be unitary")
        return c

    if "conj" in needs:
        if structure.c_conj is None:
            raise InputError(f"type {typ} needs a conjugation matrix")
        c = _unitary(structure.c_conj, "c_conj")
        if frob(c @ c.conj() - eye) > scale:
            raise InputError("conjugation must square to +1 (C conj(C) = 1)")
    if "anti" in needs:
        if structure.c_anti is None:
            raise InputError(f"type {typ} needs an anti-conjugation matrix")
        ca = _unitary(structure.c_anti, "c_anti")
        if frob(ca @ ca.conj() + eye) > scale:
            raise InputError("anti-conjugation must square to -1 (C conj(C) = -1)")
    if "signature" in needs:
        if structure.v is None or structure.split is None:
            raise InputError(f"type {typ} needs a signature matrix and split")
        v = as_matrix(structure.v, square=True, name="v")
        p, q = structure.split
        want = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
        if p + q != n or frob(v - want) > scale:
            raise InputError("v must be diag(+1...,-1...) matching the split")

    # compatibility between pieces
    if typ == "BI":
        p, q = structure.split
        c = structure.c_conj
        if frob(c[p:, :p]) + frob(c[:p, p:]) > scale:
            raise InputError("type BI needs the conjugation to preserve both blocks")
    if typ in ("BII", "CI"):
        c, ca = structure.c_conj, structure.c_anti
        if frob(c @ ca.conj() - ca @ c.conj()) > scale:
            raise InputError(f"type {typ} needs commuting (anti-)conjugations")
    if typ == "CII":
        p, q = structure.split
        ca = structure.c_anti
        if frob(ca[p:, :p]) + frob(ca[:p, p:]) > scale:
            raise InputError("type CII needs the anti-conjugation to preserve both blocks")


def _relations(typ: str, structure: StructureData):
    """The defining relations of a type as (name, structure matrix) pairs."""
    rel = []
    if typ in ("B", "BI", "BII"):
        rel.append(("orth", structure.c_conj))
    if typ in ("C", "CI", "CII"):
        rel.append(("symp", structure.c_anti))
    if typ in ("AI", "CI"):
        rel.append(("real", structure.c_conj))
    if typ in ("AII", "BII"):
        rel.append(("quat", structure.c_anti))
    if typ in ("AIII", "BI", "CII"):
        rel.append(("iu", structure.v))
    return rel


def _group_residual(name: str, c: np.ndarray, g: np.ndarray):
    eye = np.eye(g.shape[0])
    nrm = opnorm(g)
    if name == "orth":       # g^{-1} = C g^T conj(C)
        return frob(g @ (c @ g.T @ c.conj()) - eye), max(1.0, nrm**2)
    if name == "symp":       # g^{-1} = -Ca g^T conj(Ca)
        return frob(g @ (c @ g.T @ c.conj()) + eye), max(1.0, nrm**2)
    if name == "real":       # g C = C conj(g)
        return frob(g @ c - c @ g.conj()), max(1.0, nrm)
    if name == "quat":       # g Ca = Ca conj(g)
        return frob(g @ c - c @ g.conj()), max(1.0, nrm)
    # "iu": g* V g = V
    return frob(dagger(g) @ c @ g - c), max(1.0, nrm**2)


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
    return all(frob(x - theta(x)) <= tol * max(1.0, opnorm(x)) * rootn
               for theta in _involutions(typ, structure))


def group_membership(g, typ: str, structure: StructureData | None = None,
                     tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether g is invertible and satisfies all group relations of the type."""
    g = as_matrix(g, square=True)
    structure = _resolve(typ, g, structure)
    if is_singular(cond2(g)):
        return False
    rootn = np.sqrt(g.shape[0])
    for name, c in _relations(typ, structure):
        res, scale = _group_residual(name, c, g)
        if res > tol * scale * rootn:
            return False
    return True


def _involutions(typ: str, structure: StructureData):
    """R-linear involutions whose joint fixed set is the type's Lie algebra."""
    thetas = []
    for name, c in _relations(typ, structure):
        if name == "orth":
            thetas.append(lambda x, c=c: -c @ x.T @ c.conj())
        elif name == "symp":
            thetas.append(lambda x, c=c: c @ x.T @ c.conj())
        elif name in ("real", "quat"):
            # fixed set of x -> C conj(x) C^{-1}; C^{-1} = conj(C) resp. -conj(C)
            sign = 1.0 if name == "real" else -1.0
            thetas.append(lambda x, c=c, s=sign: s * (c @ x.conj() @ c.conj()))
        else:  # "iu"
            thetas.append(lambda x, c=c: -c @ dagger(x) @ c)
    return thetas


def algebra_project(x, typ: str,
                    structure: StructureData | None = None) -> np.ndarray:
    """Average x over the type's defining involutions; lands in the algebra,
    is idempotent, and fixes members."""
    x = as_matrix(x, square=True)
    structure = _resolve(typ, x, structure)
    terms = [x]
    for theta in _involutions(typ, structure):
        terms = terms + [theta(t) for t in terms]
    return sum(terms) / len(terms)


def random_group_element(typ: str, structure: StructureData | None = None,
                         seed: int = 0, radius: float = 0.5, n: int | None = None,
                         factors: int = 2) -> np.ndarray:
    """Deterministic sample: a product of exponentials of radius-scaled
    projected algebra elements.  Stays in the identity component."""
    if radius <= 0:
        raise InputError("radius must be positive")
    if structure is None:
        if n is None:
            raise InputError("give either a structure or the dimension n")
        structure = default_structure(typ, n)
    validate_structure(typ, structure)
    # Deferred so that importing the package (and so every CLI request)
    # does not pay for scipy.linalg; no subcommand samples group elements.
    from scipy.linalg import expm

    dim = structure.n
    rng = np.random.default_rng(seed)
    g = np.eye(dim, dtype=complex)
    for _ in range(max(1, factors)):
        x = algebra_project(crandn(rng, dim, dim), typ, structure)
        nrm = opnorm(x)
        if nrm > 0.0:
            g = g @ expm(x * (radius / nrm))
    return g


@dataclass(frozen=True)
class CartanFactors:
    """Unitary group element k and Hermitian algebra element x, g = k exp(x)."""

    k: np.ndarray
    x: np.ndarray


def _eigh_fun(h: np.ndarray, fun) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return v @ np.diag(fun(w)) @ dagger(v)


def cartan_decompose(g, typ: str,
                     structure: StructureData | None = None) -> CartanFactors:
    """Polar split g = k exp(x) with k unitary in the group and x Hermitian
    in the algebra: x = log(g* g) / 2 via Hermitian eigendecomposition."""
    g = as_matrix(g, square=True)
    structure = _resolve(typ, g, structure)
    if not group_membership(g, typ, structure, tol=CARTAN_TOL):
        raise DomainError(f"matrix fails the {typ} group relations at tol {CARTAN_TOL:g}")
    a = dagger(g) @ g
    x = _eigh_fun(a, lambda w: 0.5 * np.log(w))
    k = g @ _eigh_fun(a, lambda w: w**-0.5)
    return CartanFactors(k=k, x=x)


def cartan_involution(g) -> np.ndarray:
    """The involution g -> (g*)^{-1}; fixes exactly the unitaries."""
    g = as_matrix(g, square=True)
    c = cond2(g)
    if is_singular(c):
        raise DomainError(f"matrix is numerically singular (condition number {c:.3e})")
    return dagger(np.linalg.inv(g))


def regular_eigenflag(x0) -> Flag:
    """Maximal flag adapted to a regular Hermitian x0, eigenvalues descending.

    Rejects x0 whose spectrum has a gap below EIGEN_GAP_TOL (relative to
    the largest magnitude), naming the colliding eigenvalues.
    """
    x0 = as_matrix(x0, square=True, name="x0")
    if not is_hermitian(x0):
        raise InputError("x0 must be Hermitian")
    lam, w = np.linalg.eigh((x0 + dagger(x0)) / 2.0)
    lam, w = lam[::-1], w[:, ::-1]
    scale = max(1.0, float(np.abs(lam).max()))
    for i in range(lam.size - 1):
        if lam[i] - lam[i + 1] <= EIGEN_GAP_TOL * scale:
            raise DomainError(
                f"x0 is not regular: eigenvalues {lam[i]:.6g} and "
                f"{lam[i + 1]:.6g} collide (gap below {EIGEN_GAP_TOL:g})")
    return Flag(w, range(1, lam.size + 1))


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

    Computed as the unitary/triangular factorization on the eigenflag
    followed by the diagonal/unipotent split b = a n.  For the default
    x0 = diag(n, ..., 1) this is QR with positive diagonal, split further
    into its diagonal and unit upper triangular parts.
    """
    g = as_matrix(g, square=True, name="g")
    dim = g.shape[0]
    x0 = _default_regular(dim) if x0 is None else as_matrix(x0, square=True, name="x0")
    if x0.shape[0] != dim:
        raise InputError(f"x0 dimension {x0.shape[0]} does not match g ({dim})")
    flag = regular_eigenflag(x0)
    qb = qb_nest(g, flag)
    bt = flag.to_adapted(qb.b)
    diag = np.real(np.diag(bt)).copy()
    at = np.diag(diag.astype(complex))
    nt = np.linalg.solve(at, bt)
    np.fill_diagonal(nt, 1.0)
    return IwasawaFactors(k=qb.u, a=flag.from_adapted(at),
                          n=flag.from_adapted(nt), x0=x0)


def iwasawa_algebra_split(x, x0=None):
    """Split x into skew-Hermitian, real-diagonal and strictly-upper parts
    relative to the eigenflag of x0: the Lie algebra shadow of KAN."""
    x = as_matrix(x, square=True)
    dim = x.shape[0]
    x0 = _default_regular(dim) if x0 is None else as_matrix(x0, square=True, name="x0")
    flag = regular_eigenflag(x0)
    low, dia, upp = triangular_integral(flag, x)
    dherm = (dia + dagger(dia)) / 2.0
    dskew = dia - dherm
    xk = low - dagger(low) + dskew
    xa = dherm
    xn = upp + dagger(low)
    return xk, xa, xn


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
    s = np.linalg.svd(system, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return n * n == 1
    nullity = int(np.sum(s <= NULLITY_TOL * s[0])) + (n * n - s.size)
    return nullity == 1
