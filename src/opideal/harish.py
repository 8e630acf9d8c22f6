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
from .utils import as_matrix, nonsingular_cond, solve


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


def _check_square(g, split: BlockSplit, name: str = "matrix") -> np.ndarray:
    g = as_matrix(g, square=True, name=name)
    if g.shape[0] != split.total:
        raise InputError(
            f"{name} dimension {g.shape[0]} does not match split total {split.total}")
    return g


def _check_coordinate(z, rows: int, cols: int) -> np.ndarray:
    z = as_matrix(z, name="z")
    if z.shape != (rows, cols):
        raise InputError(f"z must be {rows} x {cols}, got {z.shape}")
    return z


def upper_unipotent(z, split: BlockSplit) -> np.ndarray:
    """exp of an upper-right block coordinate: [[1, Z], [0, 1]]."""
    z = _check_coordinate(z, split.n_plus, split.n_minus)
    g = np.eye(split.total, dtype=complex)
    g[:split.n_plus, split.n_plus:] = z
    return g


def lower_unipotent(z, split: BlockSplit) -> np.ndarray:
    """exp of a lower-left block coordinate: [[1, 0], [Z, 1]]."""
    z = _check_coordinate(z, split.n_minus, split.n_plus)
    g = np.eye(split.total, dtype=complex)
    g[split.n_plus:, :split.n_plus] = z
    return g


def _factorize(g: np.ndarray, split: BlockSplit, outside: str) -> HCFactors:
    """The factorization of a validated g, solved by ``utils.solve`` at d's
    power of 2; ``outside`` names the set that a singular d leaves."""
    p = split.n_plus
    a, b, c, d = g[:p, :p], g[:p, p:], g[p:, :p], g[p:, p:]
    nonsingular_cond(d, f"{outside}: lower-right block")
    zplus = solve(d.T, b.T).T      # B D^{-1}
    zminus = solve(d, c)           # D^{-1} C
    kappa = np.zeros_like(g)
    kappa[:p, :p] = a - zplus @ c
    kappa[p:, p:] = d
    return HCFactors(zplus=zplus, kappa=kappa, zminus=zminus)


def hc_factorize(g, split: BlockSplit) -> HCFactors:
    """Unipotent-diagonal-unipotent block factorization of g.

    Requires the lower-right block to be invertible; otherwise g lies
    outside the open factorizable set and a DomainError is raised.
    """
    return _factorize(_check_square(g, split, "g"), split, "not in the factorizable set")


def _point_factors(g, z, split: BlockSplit) -> HCFactors:
    """The factorization of g [[1, Z], [0, 1]], whose lower-right block is C Z + D."""
    return _factorize(_check_square(g, split, "g") @ upper_unipotent(z, split), split,
                      "outside the domain of the action")


def hc_action(g, z, split: BlockSplit) -> np.ndarray:
    """Action g.Z: the upper-right coordinate of g [[1, Z], [0, 1]], which is
    (A Z + B)(C Z + D)^{-1}."""
    return _point_factors(g, z, split).zplus


def hc_cocycle(g, z, split: BlockSplit) -> np.ndarray:
    """Multiplier J(g, Z): the block-diagonal factor of g [[1, Z], [0, 1]]."""
    return _point_factors(g, z, split).kappa


def hc_domain_test(g, z, split: BlockSplit) -> bool:
    """Whether g [[1, Z], [0, 1]] lies in the open factorizable set."""
    try:
        _point_factors(g, z, split)
    except DomainError:
        return False
    return True
