"""Triangular factorizations: block LDL* and unitary-times-triangular."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opideal import (BlockSplit, DomainError, Flag, InputError, LdlFactors, Partition,
                     hc_factorize, is_in_nest_algebra, ldl_nest, nilpotency_check, qb_nest,
                     truncate_diag, truncate_lower, truncate_upper)
from opideal.utils import crandn, dagger, frob
from oracles import (cholesky_udu_oracle, gram_schmidt_qr, nilpotency_index_exact,
                     random_flag)


def random_spd(rng, n, shift=0.5):
    g = crandn(rng, n, n)
    return dagger(g) @ g + shift * np.eye(n)


def reconstruct(f: LdlFactors) -> np.ndarray:
    eye = np.eye(f.r.shape[0])
    return (eye + f.r) @ f.d @ dagger(eye + f.r)


def test_ldl_identity():
    part = Partition.maximal(Flag.standard(3))
    f = ldl_nest(np.eye(3), part)
    assert frob(f.r) == 0.0
    assert frob(f.d - np.eye(3)) == 0.0


def test_ldl_hand_case_2x2():
    # solving a = (1+r) d (1+r*) for a = [[2,1],[1,2]] by hand gives
    # r = [[0, 1/2],[0, 0]] and d = diag(3/2, 2)
    part = Partition.maximal(Flag.standard(2))
    f = ldl_nest(np.array([[2.0, 1.0], [1.0, 2.0]]), part)
    assert np.allclose(f.r, [[0.0, 0.5], [0.0, 0.0]], atol=1e-14)
    assert np.allclose(f.d, np.diag([1.5, 2.0]), atol=1e-14)


def test_ldl_block_diagonal_input():
    rng = np.random.default_rng(1)
    a = np.zeros((5, 5), dtype=complex)
    a[:2, :2] = random_spd(rng, 2)
    a[2:, 2:] = random_spd(rng, 3)
    part = Partition(Flag.standard(5, dims=[2, 5]), [2, 5])
    f = ldl_nest(a, part)
    assert frob(f.r) < 1e-14
    assert frob(f.d - a) < 1e-14


def test_ldl_rejects_bad_inputs():
    part = Partition.maximal(Flag.standard(2))
    with pytest.raises(InputError):
        ldl_nest(np.array([[1.0, 2.0], [0.0, 1.0]]), part)        # not Hermitian
    with pytest.raises(DomainError, match="eigenvalue"):
        ldl_nest(np.array([[1.0, 0.0], [0.0, -2.0]]), part)       # indefinite


def test_ldl_matches_cholesky_oracle_on_maximal_flag():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5, 7):
        a = random_spd(rng, n)
        f = ldl_nest(a, Partition.maximal(Flag.standard(n)))
        r_o, d_o = cholesky_udu_oracle(a)
        assert np.allclose(f.r, r_o, atol=1e-9)
        assert np.allclose(f.d, d_o, atol=1e-9)


def test_ldl_structure_and_reconstruction_random_partitions():
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        flag = random_flag(rng, n) if trial % 2 else Flag.standard(n)
        cuts = sorted(set(rng.choice(range(1, n), rng.integers(0, n - 1),
                                     replace=False).tolist()) | {n})
        part = Partition(flag, cuts)
        a = random_spd(rng, n)
        f = ldl_nest(a, part)
        assert frob(reconstruct(f) - a) <= 1e-10 * frob(a)
        assert frob(truncate_upper(part, f.r) - f.r) <= 1e-12 * max(1.0, frob(f.r))
        # d commutes with every partition projection
        for k in part.cuts:
            from opideal import project
            e = project(flag, k)
            assert frob(f.d @ e - e @ f.d) < 1e-10
        assert nilpotency_check(f.r, part) <= part.block_count


def test_ldl_deterministic():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 6)
    part = Partition(Flag.standard(6, dims=[2, 4, 6]), [2, 4, 6])
    f1 = ldl_nest(a, part)
    f2 = ldl_nest(a, part)
    assert np.array_equal(f1.r, f2.r) and np.array_equal(f1.d, f2.d)


def test_qb_unitary_input():
    rng = np.random.default_rng(5)
    q, r = np.linalg.qr(crandn(rng, 4, 4))
    flag = Flag.standard(4)
    f = qb_nest(q, flag)
    assert frob(f.b - np.eye(4)) < 1e-12
    assert frob(f.u - q) < 1e-12


def test_qb_triangular_input():
    rng = np.random.default_rng(6)
    g = np.triu(crandn(rng, 4, 4))
    np.fill_diagonal(g, np.abs(np.diag(g)) + 1.0)
    f = qb_nest(g, Flag.standard(4))
    assert frob(f.u - np.eye(4)) < 1e-12
    assert frob(f.b - g) < 1e-11


def test_qb_matches_gram_schmidt_oracle():
    rng = np.random.default_rng(7)
    g = crandn(rng, 5, 5)
    f = qb_nest(g, Flag.standard(5))
    q_o, r_o = gram_schmidt_qr(g)
    for j in range(5):
        assert np.allclose(f.u[:, j], q_o[:, j], atol=1e-9)
        assert np.allclose(f.b[:, j], r_o[:, j], atol=1e-9)


def test_qb_rejects_singular():
    g = np.zeros((3, 3))
    g[0, 0] = 1.0
    with pytest.raises(DomainError, match="condition"):
        qb_nest(g, Flag.standard(3))


def test_qb_stays_accurate_when_badly_conditioned():
    # the unitarity invariant must survive condition numbers up to the
    # acceptance threshold, which rules out any route through g* g
    rng = np.random.default_rng(11)
    u1, _ = np.linalg.qr(crandn(rng, 5, 5))
    u2, _ = np.linalg.qr(crandn(rng, 5, 5))
    g = u1 @ np.diag([1.0, 0.5, 0.3, 0.2, 1e-10]) @ u2
    f = qb_nest(g, Flag.standard(5))
    assert frob(dagger(f.u) @ f.u - np.eye(5)) < 1e-12
    assert frob(f.u @ f.b - g) < 1e-12 * frob(g)


def test_qb_structure_on_random_flags():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        dims = sorted(set(rng.choice(range(1, n), rng.integers(0, n - 1),
                                     replace=False).tolist()) | {n})
        flag = random_flag(rng, n, dims=dims)
        g = crandn(rng, n, n) + 2.0 * np.eye(n)
        f = qb_nest(g, flag)
        assert frob(f.u @ f.b - g) <= 1e-10 * frob(g)
        assert frob(dagger(f.u) @ f.u - np.eye(n)) < 1e-12
        assert is_in_nest_algebra(f.b, flag, tol=1e-9)
        # normalisation: the block diagonal of b is Hermitian positive definite
        bt = dagger(flag.basis) @ f.b @ flag.basis
        lo = 0
        for hi in dims:
            blk = bt[lo:hi, lo:hi]
            assert frob(blk - dagger(blk)) < 1e-10
            assert np.linalg.eigvalsh((blk + dagger(blk)) / 2).min() > 0
            lo = hi


def test_qb_deterministic():
    rng = np.random.default_rng(10)
    g = crandn(rng, 5, 5) + 2.0 * np.eye(5)
    flag = Flag.standard(5, dims=[2, 5])
    f1, f2 = qb_nest(g, flag), qb_nest(g, flag)
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.b, f2.b)


def test_qb_consistent_with_ldl_of_gram_matrix():
    rng = np.random.default_rng(9)
    g = crandn(rng, 6, 6) + 1.5 * np.eye(6)
    flag = Flag.standard(6, dims=[3, 6])
    f = qb_nest(g, flag)
    ldl = ldl_nest(dagger(g) @ g, Partition.maximal(flag))
    assert frob(dagger(f.b) @ f.b - reconstruct(ldl)) <= 1e-9 * frob(dagger(g) @ g)


def _assert_linear_remainder(remainder):
    # remainder(eps) is the relative first-order error, O(eps): pin its
    # slope, so that each halving of eps halves it to within 1 %
    errors = [remainder(eps) for eps in (1e-3, 5e-4, 2.5e-4)]
    assert errors[0] <= 1e-2
    assert all(1.98 <= a / b <= 2.02 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_factorizations_near_1_are_the_triangular_truncation(real):
    # near 1 each factorization is the triangular truncation (Gohberg & Krein,
    # Volterra Operators, 1970, Ch. IV): 1 + eps h = (1 + r) d (1 + r*) with
    # r = eps U(h) + O(eps^2), and 1 + eps x = u b with
    # b = 1 + eps (U(x) + L(x)* + Herm D(x)) + O(eps^2)
    n, rng = 16, np.random.default_rng(91)
    draw = (lambda *shape: rng.standard_normal(shape)) if real else (
        lambda *shape: crandn(rng, *shape))
    eye = np.eye(n)
    for dims in (range(1, n + 1), (3, 8, 11, n)):
        for basis in (eye, np.linalg.qr(draw(n, n))[0]):     # standard and rotated
            flag = Flag(basis, dims)
            x = draw(n, n)
            h = (x + dagger(x)) / 2.0
            for part in (Partition.maximal(flag), Partition(flag, flag.dims[1::2] + (n,))):
                r1 = truncate_upper(part, h)
                _assert_linear_remainder(
                    lambda eps: frob(ldl_nest(eye + eps * h, part).r / eps - r1) / frob(r1))
            part = Partition.maximal(flag)
            d = truncate_diag(part, x)
            b1 = truncate_upper(part, x) + dagger(truncate_lower(part, x)) + (d + dagger(d)) / 2
            _assert_linear_remainder(
                lambda eps: frob((qb_nest(eye + eps * x, flag).b - eye) / eps - b1) / frob(b1))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_hc_near_1_reads_the_off_diagonal_blocks(real):
    # 1 + eps [[A, B], [C, D]] has zplus = eps B (1 + eps D)^-1 = eps B + O(eps^2)
    # and zminus = eps C + O(eps^2)
    n, rng = 16, np.random.default_rng(92)
    for p in (1, 7, 15):
        x = rng.standard_normal((n, n)) if real else crandn(rng, n, n)

        def remainder(eps):
            f = hc_factorize(np.eye(n) + eps * x, BlockSplit(p, n - p))
            return np.hypot(frob(f.zplus / eps - x[:p, p:]),
                            frob(f.zminus / eps - x[p:, :p])) / frob(x)
        _assert_linear_remainder(remainder)


def test_nilpotency_examples():
    part = Partition.maximal(Flag.standard(4))
    assert nilpotency_check(np.zeros((4, 4)), part) == 1
    jordan = np.diag(np.ones(3), 1)
    assert nilpotency_check(jordan, part) == 4
    with pytest.raises(InputError):
        nilpotency_check(np.eye(4), part)        # diagonal is not strictly upper


def test_strict_upper_floor_is_relative():
    rng = np.random.default_rng(5)
    part = Partition.maximal(Flag.standard(6))
    r = np.triu(rng.standard_normal((6, 6)), 1)
    for k in (-600, 600):
        assert nilpotency_check(np.ldexp(r, k), part) == 6
    tiny = np.ldexp(r, -600)
    tiny[5, 0] = 1e-6 * frob(tiny)
    with pytest.raises(InputError, match="not strictly block upper"):
        nilpotency_check(tiny, part)


@st.composite
def _block_patterns(draw):
    """A partition of a standard flag into at most 12 blocks of 1 to 3
    coordinates, the 0/1 mask of a random strictly upper block pattern on
    it, and a seed for the entries."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12))
    above = np.triu_indices(len(sizes), 1)
    blocks = np.zeros((len(sizes), len(sizes)), dtype=int)
    blocks[above] = draw(st.lists(st.booleans(), min_size=len(above[0]),
                                  max_size=len(above[0])))
    cuts = np.cumsum(sizes).tolist()
    part = Partition(Flag.standard(cuts[-1]), cuts)
    mask = blocks[part.index[:, None], part.index[None, :]]
    return part, mask, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(_block_patterns())
def test_nilpotency_index_is_exact_without_cancellation(pattern):
    # every entry of a nonzero block is positive, so no sum of chain products
    # cancels; magnitudes from 1 to 9 * 2^40 make some powers tiny against ||r||^k
    part, mask, rng = pattern
    r = mask * rng.integers(1, 10, mask.shape) << rng.integers(0, 41, mask.shape)
    assert nilpotency_check(r, part) == nilpotency_index_exact(r)


@settings(max_examples=100, deadline=None)
@given(_block_patterns())
def test_nilpotency_index_bounds_the_exact_one(pattern):
    part, mask, rng = pattern
    r = mask * rng.integers(-2, 3, mask.shape)
    assert nilpotency_index_exact(r) <= nilpotency_check(r, part) <= part.block_count


@settings(max_examples=100, deadline=None)
@given(_block_patterns(), st.integers(-1000, 1000))
def test_nilpotency_index_is_the_same_at_every_scale(pattern, k):
    part, mask, rng = pattern
    r = mask * rng.uniform(0.5, 2.0, mask.shape)
    assert nilpotency_check(np.ldexp(r, k), part) == nilpotency_check(r, part)
