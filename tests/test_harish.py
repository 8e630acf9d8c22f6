"""Block factorization, fractional-linear action, and multiplier cocycle."""

import numpy as np
import pytest

from opideal import (BlockSplit, DomainError, InputError, default_structure,
                     hc_action, hc_cocycle, hc_domain_test, hc_factorize,
                     lower_unipotent, random_group_element, upper_unipotent)
from opideal.utils import crandn, frob
from oracles import fractional_linear_action


SPLIT = BlockSplit(2, 3)


def sample_u_pq(seed, split=SPLIT, radius=0.7):
    st = default_structure("AIII", split.total, split=(split.n_plus, split.n_minus))
    return random_group_element("AIII", st, seed=seed, radius=radius)


def test_block_split_validation():
    with pytest.raises(InputError):
        BlockSplit(0, 3)
    assert BlockSplit(2, 3).total == 5


def test_factorize_identity():
    f = hc_factorize(np.eye(5), SPLIT)
    assert frob(f.zplus) == 0.0
    assert frob(f.zminus) == 0.0
    assert np.array_equal(f.kappa, np.eye(5))


def test_factorize_block_formulas():
    # the three factors are B D^{-1}, diag(A - B D^{-1} C, D), D^{-1} C
    rng = np.random.default_rng(1)
    g = crandn(rng, 5, 5)
    g[2:, 2:] += 2.0 * np.eye(3)
    a, b = g[:2, :2], g[:2, 2:]
    c, d = g[2:, :2], g[2:, 2:]
    dinv = np.linalg.inv(d)
    f = hc_factorize(g, SPLIT)
    assert frob(f.zplus - b @ dinv) < 1e-12
    assert frob(f.zminus - dinv @ c) < 1e-12
    assert frob(f.kappa[:2, :2] - (a - b @ dinv @ c)) < 1e-12
    assert frob(f.kappa[2:, 2:] - d) < 1e-12
    assert frob(f.kappa[:2, 2:]) == 0.0 and frob(f.kappa[2:, :2]) == 0.0
    recon = upper_unipotent(f.zplus, SPLIT) @ f.kappa @ lower_unipotent(f.zminus, SPLIT)
    assert frob(recon - g) < 1e-12 * frob(g)


def test_factorize_rejects_singular_block():
    g = np.eye(5, dtype=complex)
    g[2:, 2:] = 0.0
    with pytest.raises(DomainError, match="lower-right"):
        hc_factorize(g, SPLIT)


def test_factorize_group_samples_reconstruct():
    for seed in range(12):
        g = sample_u_pq(seed)
        f = hc_factorize(g, SPLIT)
        recon = (upper_unipotent(f.zplus, SPLIT) @ f.kappa
                 @ lower_unipotent(f.zminus, SPLIT))
        assert frob(recon - g) <= 1e-12 * frob(g)


def test_action_identity_and_origin():
    rng = np.random.default_rng(2)
    z = 0.4 * crandn(rng, 2, 3)
    assert frob(hc_action(np.eye(5), z, SPLIT) - z) < 1e-14
    g = sample_u_pq(3)
    b, d = g[:2, 2:], g[2:, 2:]
    assert frob(hc_action(g, np.zeros((2, 3)), SPLIT) - b @ np.linalg.inv(d)) < 1e-12


def test_action_matches_factorization_route():
    rng = np.random.default_rng(3)
    for seed in range(8):
        g = sample_u_pq(seed)
        z = 0.3 * crandn(rng, 2, 3)
        direct = fractional_linear_action(g, z, SPLIT.n_plus)
        via = hc_action(g, z, SPLIT)
        assert frob(direct - via) < 1e-12 * max(1.0, frob(direct))


def test_action_composition_law():
    rng = np.random.default_rng(4)
    for seed in range(10):
        g1, g2 = sample_u_pq(2 * seed), sample_u_pq(2 * seed + 1)
        z = 0.3 * crandn(rng, 2, 3)
        lhs = hc_action(g1 @ g2, z, SPLIT)
        rhs = hc_action(g1, hc_action(g2, z, SPLIT), SPLIT)
        assert frob(lhs - rhs) < 1e-9 * max(1.0, frob(lhs))


def test_action_outside_domain():
    g = np.zeros((5, 5), dtype=complex)
    g[:2, 2:] = np.eye(2, 3)
    g[2:, :2] = np.eye(3, 2)
    g[2:, 2:] = 0.0
    g[0, 0] = 0.0
    with pytest.raises(DomainError, match="domain"):
        hc_action(g, np.zeros((2, 3)), SPLIT)


def test_action_cocycle_and_domain_test_share_the_domain():
    # lower-right blocks C Z + D whose condition numbers straddle COND_LIMIT
    rng = np.random.default_rng(10)
    c = 1e-3 * crandn(rng, 3, 2)
    z = 1e-10 * crandn(rng, 2, 3)
    inside = []
    for eps in np.geomspace(1e-11, 1e-13, 9):
        g = np.eye(5, dtype=complex)
        g[2:, :2] = c
        g[4, 4] = eps
        outcomes = []
        for f in (hc_action, hc_cocycle):
            try:
                f(g, z, SPLIT)
                outcomes.append(True)
            except DomainError as exc:
                assert "domain" in str(exc)
                outcomes.append(False)
        assert outcomes == [hc_domain_test(g, z, SPLIT)] * 2
        inside.append(outcomes[0])
    assert inside[0] and not inside[-1]


def test_cocycle_identity_element_and_block_diagonal():
    assert np.array_equal(hc_cocycle(np.eye(5), np.zeros((2, 3)), SPLIT), np.eye(5))
    rng = np.random.default_rng(5)
    g = np.zeros((5, 5), dtype=complex)
    g[:2, :2] = crandn(rng, 2, 2) + 2 * np.eye(2)
    g[2:, 2:] = crandn(rng, 3, 3) + 2 * np.eye(3)
    j = hc_cocycle(g, np.zeros((2, 3)), SPLIT)
    assert frob(j - g) < 1e-12 * frob(g)


def test_cocycle_rule():
    rng = np.random.default_rng(6)
    for seed in range(10):
        g1, g2 = sample_u_pq(3 * seed + 1), sample_u_pq(3 * seed + 2)
        z = 0.3 * crandn(rng, 2, 3)
        lhs = hc_cocycle(g1 @ g2, z, SPLIT)
        rhs = hc_cocycle(g1, hc_action(g2, z, SPLIT), SPLIT) @ hc_cocycle(g2, z, SPLIT)
        assert frob(lhs - rhs) < 1e-9 * max(1.0, frob(lhs))


def test_domain_test():
    g = sample_u_pq(7)
    assert hc_domain_test(g, np.zeros((2, 3)), SPLIT)
    bad = np.zeros((5, 5), dtype=complex)
    bad[:2, 2:] = np.eye(2, 3)
    bad[2:, :2] = np.eye(3, 2)
    assert not hc_domain_test(bad, np.zeros((2, 3)), SPLIT)
    # contractive coordinates stay inside for group samples
    rng = np.random.default_rng(8)
    for seed in range(10):
        g = sample_u_pq(seed)
        z = crandn(rng, 2, 3)
        z *= 0.9 / np.linalg.norm(z, 2)
        assert hc_domain_test(g, z, SPLIT)


def test_isotropy_of_origin():
    # block-diagonal unitary group elements fix the origin; movers have
    # nonzero off-diagonal blocks
    rng = np.random.default_rng(9)
    q1, _ = np.linalg.qr(crandn(rng, 2, 2))
    q2, _ = np.linalg.qr(crandn(rng, 3, 3))
    k = np.zeros((5, 5), dtype=complex)
    k[:2, :2], k[2:, 2:] = q1, q2
    assert frob(hc_action(k, np.zeros((2, 3)), SPLIT)) < 1e-13
    for seed in range(10):
        g = sample_u_pq(seed)
        moved = frob(hc_action(g, np.zeros((2, 3)), SPLIT))
        off = frob(g[:2, 2:])
        assert (moved < 1e-9) == (off < 1e-9)


def test_shape_validation():
    with pytest.raises(InputError):
        hc_factorize(np.eye(4), SPLIT)
    with pytest.raises(InputError):
        hc_action(np.eye(5), np.zeros((3, 2)), SPLIT)
