"""Two-block unipotent-diagonal-unipotent factorization and its action.

With the space split into an upper block of size p and a lower block of
size q, any matrix whose lower-right block is invertible factors as

    [[A, B], [C, D]] = [[1, Z+], [0, 1]] [[A - B D^{-1} C, 0], [0, D]] [[1, 0], [Z-, 1]]

with Z+ = B D^{-1} and Z- = D^{-1} C.  Pushing a group element through
the factorization of g [[1, Z], [0, 1]] yields the fractional-linear
action g.Z = (A Z + B)(C Z + D)^{-1} on the upper-right block space and
the block-diagonal multiplier J(g, Z), which satisfies the cocycle rule
J(g1 g2, Z) = J(g1, g2.Z) J(g2, Z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .utils import as_matrix, cond2, is_singular

__all__ = [
    "BlockSplit",
    "HCFactors",
    "upper_unipotent",
    "lower_unipotent",
    "hc_factorize",
    "hc_action",
    "hc_cocycle",
    "hc_domain_test",
]


@dataclass(frozen=True)
class BlockSplit:
    """Sizes of the two diagonal blocks; their sum is the ambient dimension."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 1 or self.n_minus < 1:
            raise InputError("both block sizes must be positive")

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus


@dataclass(frozen=True)
class HCFactors:
    """Upper-right coordinate, block-diagonal multiplier, lower-left coordinate."""

    zplus: np.ndarray
    kappa: np.ndarray
    zminus: np.ndarray


def _blocks(g: np.ndarray, split: BlockSplit):
    p = split.n_plus
    return g[:p, :p], g[:p, p:], g[p:, :p], g[p:, p:]


def _check_square(g, split: BlockSplit, name: str = "matrix") -> np.ndarray:
    g = as_matrix(g, square=True, name=name)
    if g.shape[0] != split.total:
        raise InputError(
            f"{name} dimension {g.shape[0]} does not match split total {split.total}")
    return g


def _check_coordinate(z, split: BlockSplit) -> np.ndarray:
    z = as_matrix(z, name="z")
    if z.shape != (split.n_plus, split.n_minus):
        raise InputError(
            f"z must be {split.n_plus} x {split.n_minus}, got {z.shape}")
    return z


def upper_unipotent(z, split: BlockSplit) -> np.ndarray:
    """exp of an upper-right block coordinate: [[1, Z], [0, 1]]."""
    z = _check_coordinate(z, split)
    g = np.eye(split.total, dtype=complex)
    g[:split.n_plus, split.n_plus:] = z
    return g


def lower_unipotent(z, split: BlockSplit) -> np.ndarray:
    """exp of a lower-left block coordinate: [[1, 0], [Z, 1]]."""
    z = as_matrix(z, name="z")
    if z.shape != (split.n_minus, split.n_plus):
        raise InputError(
            f"z must be {split.n_minus} x {split.n_plus}, got {z.shape}")
    g = np.eye(split.total, dtype=complex)
    g[split.n_plus:, :split.n_plus] = z
    return g


def hc_factorize(g, split: BlockSplit) -> HCFactors:
    """Unipotent-diagonal-unipotent block factorization of g.

    Requires the lower-right block to be invertible; otherwise g lies
    outside the open factorizable set and a DomainError is raised.
    """
    g = _check_square(g, split, "g")
    a, b, c, d = _blocks(g, split)
    cd = cond2(d)
    if is_singular(cd):
        raise DomainError(
            "not in the factorizable set: lower-right block is numerically "
            f"singular (condition number {cd:.3e})")
    zplus = np.linalg.solve(d.T, b.T).T        # B D^{-1}
    zminus = np.linalg.solve(d, c)             # D^{-1} C
    kappa = np.zeros_like(g)
    kappa[:split.n_plus, :split.n_plus] = a - zplus @ c
    kappa[split.n_plus:, split.n_plus:] = d
    return HCFactors(zplus=zplus, kappa=kappa, zminus=zminus)


def hc_action(g, z, split: BlockSplit) -> np.ndarray:
    """Fractional-linear action g.Z = (A Z + B)(C Z + D)^{-1}."""
    g = _check_square(g, split, "g")
    z = _check_coordinate(z, split)
    a, b, c, d = _blocks(g, split)
    m = c @ z + d
    cm = cond2(m)
    if is_singular(cm):
        raise DomainError(
            "outside the domain of the action: C Z + D is numerically "
            f"singular (condition number {cm:.3e})")
    return np.linalg.solve(m.T, (a @ z + b).T).T


def hc_cocycle(g, z, split: BlockSplit) -> np.ndarray:
    """Multiplier J(g, Z): the block-diagonal factor of g [[1, Z], [0, 1]]."""
    g = _check_square(g, split, "g")
    z = _check_coordinate(z, split)
    return hc_factorize(g @ upper_unipotent(z, split), split).kappa


def hc_domain_test(g, z, split: BlockSplit) -> bool:
    """Whether g [[1, Z], [0, 1]] lies in the open factorizable set."""
    g = _check_square(g, split, "g")
    z = _check_coordinate(z, split)
    _, _, c, d = _blocks(g, split)
    return not is_singular(cond2(c @ z + d))
