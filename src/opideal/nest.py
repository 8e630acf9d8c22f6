"""Flags of nested subspaces and triangular truncation relative to partitions.

A flag is an orthonormal basis adapted to a chain of subspaces together
with the chain's dimensions; a partition is a finite subchain.  Relative
to a partition every square matrix splits exactly into its block-diagonal,
strictly-block-upper and strictly-block-lower truncations, computed here
as entry masks in the adapted basis.  In finite dimension the triangular
"integral" is simply the truncation at the finest partition the flag
supports.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .symfunc import SymNormFunc, phi_norm
from .utils import (MAX_EXPERIMENT_DIM, MAX_EXPERIMENT_TRIALS, NEST_TOL, as_matrix,
                    crandn, dagger, frob, is_unitary, opnorm)

__all__ = [
    "Flag",
    "Partition",
    "project",
    "truncate_diag",
    "truncate_upper",
    "truncate_lower",
    "triangular_integral",
    "refinement_identities_check",
    "is_in_nest_algebra",
    "truncation_norm_experiment",
]


class Flag:
    """An orthonormal flag: adapting unitary columns plus nested dimensions."""

    __slots__ = ("basis", "dims", "n", "is_standard")

    def __init__(self, basis, dims):
        basis = as_matrix(basis, square=True, name="flag basis")
        n = basis.shape[0]
        # the identity is certified exactly; another basis pays an n x n product
        is_standard = bool(np.array_equal(basis, np.eye(n)))
        if not is_standard and not is_unitary(basis):
            err = frob(dagger(basis) @ basis - np.eye(n))
            raise InputError(f"flag basis is not unitary (residual {err:.2e})")
        dims = tuple(int(d) for d in dims)
        if not dims or dims[0] < 1 or dims[-1] != n or any(
                b <= a for a, b in zip(dims, dims[1:])):
            raise InputError(
                "flag dims must be strictly increasing positive integers ending at n")
        self.basis = basis
        self.basis.flags.writeable = False
        self.dims = dims
        self.n = n
        self.is_standard = is_standard

    @classmethod
    def standard(cls, n: int, dims=None) -> "Flag":
        """The coordinate flag; by default maximal (every dimension a cut)."""
        if dims is None:
            dims = range(1, n + 1)
        return cls(np.eye(n, dtype=complex), dims)

    def to_adapted(self, x) -> np.ndarray:
        """x in the adapted basis, W* x W; x itself for the standard flag.
        The one check that x fits the flag: finite, square, of dimension n."""
        x = as_matrix(x, square=True)
        if x.shape[0] != self.n:
            raise InputError(f"matrix dimension {x.shape[0]} does not match flag n={self.n}")
        return x if self.is_standard else dagger(self.basis) @ x @ self.basis

    def from_adapted(self, y: np.ndarray) -> np.ndarray:
        """y back from the adapted basis, W y W*; y itself for the standard flag."""
        return y if self.is_standard else self.basis @ y @ dagger(self.basis)

    def __repr__(self) -> str:
        return f"Flag(n={self.n}, dims={self.dims}, standard={self.is_standard})"


class Partition:
    """A finite subchain of a flag's dimensions, always containing n.

    ``index[i]`` is the block holding adapted coordinate i.
    """

    __slots__ = ("flag", "cuts", "index")

    def __init__(self, flag: Flag, cuts):
        cuts = tuple(sorted({int(c) for c in cuts}))
        if not cuts:
            raise InputError("partition needs at least one cut")
        bad = sorted(set(cuts) - set(flag.dims) - {0})
        if bad:
            raise InputError(f"cuts {bad} are not dimensions of the flag")
        cuts = tuple(c for c in cuts if c != 0)
        if not cuts or cuts[-1] != flag.n:
            raise InputError("partition must contain the full dimension n")
        self.flag = flag
        self.cuts = cuts
        self.index = np.repeat(np.arange(len(cuts)), np.diff((0,) + cuts))
        self.index.flags.writeable = False

    @classmethod
    def maximal(cls, flag: Flag) -> "Partition":
        return cls(flag, flag.dims)

    @property
    def bounds(self):
        return (0,) + self.cuts

    @property
    def block_count(self) -> int:
        return len(self.cuts)

    def is_subchain_of(self, other: "Partition") -> bool:
        return self.flag is other.flag and set(self.cuts) <= set(other.cuts)

    def __repr__(self) -> str:
        return f"Partition(cuts={self.cuts})"


def project(flag: Flag, k: int) -> np.ndarray:
    """Orthogonal projection onto the first k flag directions."""
    if k != 0 and k not in flag.dims:
        raise InputError(f"k={k} is not a cut dimension of the flag")
    b = flag.basis[:, :k]
    return b @ dagger(b)


def _block_mask(index: np.ndarray, y: np.ndarray, cmp) -> np.ndarray:
    """y where cmp(row block, column block) holds, else 0: np.equal keeps the
    block diagonal, np.less the strictly upper and np.greater the strictly
    lower blocks of an adapted-basis matrix."""
    return np.where(cmp(index[:, None], index[None, :]), y, 0.0)


def _truncate(partition: Partition, x, cmp) -> np.ndarray:
    flag = partition.flag
    return flag.from_adapted(_block_mask(partition.index, flag.to_adapted(x), cmp))


def truncate_diag(partition: Partition, x) -> np.ndarray:
    """Block-diagonal truncation relative to the partition."""
    return _truncate(partition, x, np.equal)


def truncate_upper(partition: Partition, x) -> np.ndarray:
    """Strictly-block-upper truncation relative to the partition."""
    return _truncate(partition, x, np.less)


def truncate_lower(partition: Partition, x) -> np.ndarray:
    """Strictly-block-lower truncation relative to the partition."""
    return _truncate(partition, x, np.greater)


def triangular_integral(flag: Flag, x):
    """The (lower, diagonal, upper) parts at the finest partition of the flag."""
    y = flag.to_adapted(x)
    idx = Partition.maximal(flag).index
    return tuple(flag.from_adapted(_block_mask(idx, y, cmp))
                 for cmp in (np.greater, np.equal, np.less))


def refinement_identities_check(p_part: Partition, q_part: Partition, x) -> dict:
    """Max deviation of the composition identities for a coarser/finer pair.

    For p coarser than q the upper and lower truncations compose to the
    coarser one in either order, while the diagonal truncations compose to
    the finer one.
    """
    if not p_part.is_subchain_of(q_part):
        raise InputError("first partition must be a subchain of the second")
    report = {}
    for name, op in (("diag", truncate_diag),
                     ("upper", truncate_upper),
                     ("lower", truncate_lower)):
        px, qx = op(p_part, x), op(q_part, x)
        target = qx if name == "diag" else px
        report[f"{name}_pq"] = frob(op(p_part, qx) - target)
        report[f"{name}_qp"] = frob(op(q_part, px) - target)
    return report


def is_in_nest_algebra(b, flag: Flag, tol: float = NEST_TOL) -> bool:
    """Whether b leaves every flag subspace invariant: b e = e b e for all cuts.

    A cut k passes when ``||(1 - e_k) b e_k||_2 <= tol``.  In the adapted
    basis that residual is the spectral norm of the off-diagonal block
    ``y[k:, :k]``, a submatrix of the strictly lower truncation at the finest
    partition; so when the truncation's Frobenius norm is within tol every
    cut passes at once, and only otherwise is each cut checked on its own.
    """
    y = flag.to_adapted(b)
    if frob(_block_mask(Partition.maximal(flag).index, y, np.greater)) <= tol:
        return True
    return all(opnorm(y[k:, :k]) <= tol for k in flag.dims)


def _experiment_sample(rng: np.random.Generator, n: int, trial: int) -> np.ndarray:
    # Cycle three matrix families: dense Gaussian, complex rank-one, and
    # flat positive rank-one.  The rank-one families witness the growth of
    # the trace-norm truncation ratio with dimension.
    kind = trial % 3
    if kind == 0:
        return crandn(rng, n, n)
    if kind == 1:
        return np.outer(crandn(rng, n), crandn(rng, n).conj())
    u = rng.uniform(0.5, 1.0, n)
    v = rng.uniform(0.5, 1.0, n)
    return np.outer(u, v).astype(complex)


def _trial_ratio(phi: SymNormFunc, part: Partition, n: int, seed: int,
                 trial: int) -> float:
    rng = np.random.default_rng([seed, n, trial])
    x = _experiment_sample(rng, n, trial)
    denom = phi_norm(phi, x)
    if denom <= 0.0:
        return 0.0
    return phi_norm(phi, truncate_upper(part, x)) / denom


def truncation_norm_experiment(phi: SymNormFunc, n_list, trials: int,
                               seed: int):
    """Measured max of ||upper(X)|| / ||X|| over seeded samples, per size.

    Each trial's generator is derived from (seed, n, trial), so the result
    is reproducible.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if trials > MAX_EXPERIMENT_TRIALS:
        raise InputError(f"trials {trials} exceed the limit {MAX_EXPERIMENT_TRIALS}")
    sizes = [int(n) for n in n_list]
    if any(n < 1 for n in sizes):
        raise InputError("sizes must be positive")
    if max(sizes, default=0) > MAX_EXPERIMENT_DIM:
        raise InputError(f"size {max(sizes)} exceeds the limit {MAX_EXPERIMENT_DIM}")
    # a trial costs O(n^3), and at least a fixed overhead; a size listed
    # twice repeats its row, so more entries than sizes add nothing
    if len(sizes) > MAX_EXPERIMENT_DIM:
        raise InputError(f"{len(sizes)} sizes exceed the limit {MAX_EXPERIMENT_DIM}")
    work = trials * sum(n ** 3 for n in sizes)
    if work > MAX_EXPERIMENT_TRIALS * MAX_EXPERIMENT_DIM ** 3:
        raise InputError(f"trials x sum of n^3 is {work}, over the limit "
                         f"{MAX_EXPERIMENT_TRIALS} x {MAX_EXPERIMENT_DIM}^3")
    rows = []
    for n in sizes:
        part = Partition.maximal(Flag.standard(n))
        rows.append((n, max(_trial_ratio(phi, part, n, seed, t)
                            for t in range(trials))))
    return rows
