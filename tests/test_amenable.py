"""Finite groups: means, convolution algebra, integrated representations."""

import numpy as np
import pytest

from opideal import (FiniteGroup, Functional, GroupFunction, InputError,
                     UnitaryRep, arens_product, cyclic_group, delta_functional,
                     dihedral_group, gns_regular, integrate_rep,
                     invariance_residual, invariant_means, is_mean,
                     left_regular_rep, quaternion_group, regular_character,
                     sigma, sigma_dual, symmetric_group,
                     translate_left, translate_right, trivial_group,
                     triviality_test, uniform_mean)
from opideal.amenable import _quotient_rep
from opideal.utils import dagger, frob
from oracles import invariance_nullity, s3_irreps


def test_group_constructors():
    assert trivial_group().order == 1
    assert cyclic_group(6).order == 6
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert quaternion_group().order == 8
    assert dihedral_group(5).order == 10


def test_cayley_validation_rejects_corrupt_tables():
    good = symmetric_group(3).table.copy()
    rng = np.random.default_rng(0)
    rejected = 0
    for _ in range(20):
        bad = good.copy()
        i, j = rng.integers(6, size=2)
        bad[i, j] = (bad[i, j] + 1 + rng.integers(5)) % 6
        try:
            FiniteGroup(bad)
        except InputError:
            rejected += 1
    assert rejected == 20
    with pytest.raises(InputError):
        FiniteGroup([[0, 1], [1, 1]])       # second row is not a bijection
    with pytest.raises(InputError):
        FiniteGroup([[1, 0], [0, 0]])       # no two-sided identity


def test_quaternion_group_structure():
    q8 = quaternion_group()
    # -1 is the unique non-identity central involution
    minus_one = q8.labels.index("-1")
    i_idx = q8.labels.index("i")
    assert q8.multiply(i_idx, i_idx) == minus_one
    assert q8.multiply(minus_one, minus_one) == q8.identity


def test_translations_examples():
    z2 = cyclic_group(2)
    psi = GroupFunction(z2, [1.0 + 0j, 2.0])
    assert np.array_equal(translate_left(z2.identity, psi).values, psi.values)
    assert np.array_equal(translate_left(1, psi).values, [2.0, 1.0])
    with pytest.raises(InputError):
        translate_left(5, psi)


def test_translation_composition_convention():
    # L_{xy} = L_y after L_x: the double-lookup oracle fixes the variance
    for group in (symmetric_group(3), quaternion_group()):
        rng = np.random.default_rng(1)
        psi = GroupFunction(group, rng.standard_normal(group.order))
        for x in range(group.order):
            for y in range(group.order):
                xy = group.multiply(x, y)
                via = translate_left(y, translate_left(x, psi))
                assert np.array_equal(translate_left(xy, psi).values, via.values)


def test_left_right_translations_commute():
    group = symmetric_group(3)
    rng = np.random.default_rng(2)
    psi = GroupFunction(group, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for x in range(6):
        for y in range(6):
            a = translate_left(x, translate_right(y, psi))
            b = translate_right(y, translate_left(x, psi))
            assert np.array_equal(a.values, b.values)


def _invariance_lstsq_oracle(group):
    # solve the invariance system with a generic least-squares route
    n = group.order
    eye = np.eye(n)
    rows = [eye[group.table[group.inverse[x]]] - eye for x in range(n)]
    rows.append(np.ones((1, n)))
    rhs = np.zeros(n * n + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(np.vstack(rows), rhs, rcond=None)
    return sol


def test_invariant_means_examples():
    z2 = cyclic_group(2)
    means = invariant_means(z2)
    assert len(means) == 1
    assert np.allclose(means[0].weights, [0.5, 0.5])

    s3 = symmetric_group(3)
    mu = invariant_means(s3)[0]
    assert np.allclose(mu.weights, np.full(6, 1 / 6), atol=1e-15)
    oracle = _invariance_lstsq_oracle(s3)
    assert np.allclose(mu.weights.real, oracle, atol=1e-10)
    assert is_mean(mu)

    assert np.allclose(invariant_means(trivial_group())[0].weights, [1.0])


def _relabelled_s3():
    # the same group under a scrambled element numbering, so the identity
    # is not element 0 and the table is not sorted
    table = symmetric_group(3).table
    perm = np.array([3, 5, 0, 4, 2, 1])
    relabelled = np.empty_like(table)
    relabelled[np.ix_(perm, perm)] = perm[table]
    return FiniteGroup(relabelled)


CERTIFIED_GROUPS = [
    pytest.param(lambda: cyclic_group(1), id="z1"),
    pytest.param(lambda: cyclic_group(2), id="z2"),
    pytest.param(lambda: cyclic_group(6), id="z6"),
    pytest.param(lambda: dihedral_group(5), id="d5"),
    pytest.param(lambda: symmetric_group(3), id="s3"),
    pytest.param(lambda: symmetric_group(4), id="s4"),
    pytest.param(quaternion_group, id="q8"),
    pytest.param(_relabelled_s3, id="relabelled-s3"),
]


@pytest.mark.parametrize("make_group", CERTIFIED_GROUPS)
def test_exact_mean_certificate_matches_numeric_rank(make_group):
    # transitivity of left multiplication, the exact certificate, against
    # the rank of the invariance system and a least-squares solve
    group = make_group()
    assert invariance_nullity(group, 1e-10) == 1
    means = invariant_means(group)
    assert len(means) == 1
    assert np.allclose(means[0].weights.real, _invariance_lstsq_oracle(group),
                       atol=1e-10)
    assert invariance_residual(group, means[0].weights.real) == 0.0


@pytest.mark.parametrize("make_group", CERTIFIED_GROUPS)
def test_exact_regular_character_matches_permutation_traces(make_group):
    group = make_group()
    assert np.array_equal(regular_character(group),
                          left_regular_rep(group).character())


def test_invariance_residual_matches_translation_loop():
    group = dihedral_group(4)
    w = np.random.default_rng(9).standard_normal(8)
    loop = max(float(np.abs(w[group.table[group.inverse[x]]] - w).max())
               for x in range(group.order))
    assert invariance_residual(group, w) == loop > 0.0


def test_mean_invariance_exact():
    s3 = symmetric_group(3)
    mu = invariant_means(s3)[0]
    rng = np.random.default_rng(3)
    psi = GroupFunction(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for x in range(6):
        assert mu(translate_left(x, psi)) == pytest.approx(mu(psi), abs=1e-15)


def test_arens_product_examples_and_oracle():
    s3 = symmetric_group(3)
    rng = np.random.default_rng(4)
    nu = Functional(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    ident = arens_product(delta_functional(s3, s3.identity), nu)
    assert np.allclose(ident.weights, nu.weights, atol=1e-15)
    for x in range(6):
        for y in range(6):
            prod = arens_product(delta_functional(s3, x), delta_functional(s3, y))
            expected = np.zeros(6)
            expected[s3.multiply(x, y)] = 1.0
            assert np.allclose(prod.weights, expected)
    # brute-force double sum oracle
    mu = Functional(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    brute = np.zeros(6, dtype=complex)
    for x in range(6):
        for y in range(6):
            brute[s3.multiply(x, y)] += mu.weights[x] * nu.weights[y]
    assert np.allclose(arens_product(mu, nu).weights, brute, atol=1e-12)


def test_arens_associative_and_group_mismatch():
    s3 = symmetric_group(3)
    rng = np.random.default_rng(5)
    fs = [Functional(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
          for _ in range(3)]
    left = arens_product(arens_product(fs[0], fs[1]), fs[2])
    right = arens_product(fs[0], arens_product(fs[1], fs[2]))
    assert np.allclose(left.weights, right.weights, atol=1e-12)
    with pytest.raises(InputError):
        arens_product(fs[0], Functional(cyclic_group(6), np.ones(6)))


def test_sigma_involution_and_translation_interchange():
    g = quaternion_group()
    rng = np.random.default_rng(6)
    psi = GroupFunction(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    assert np.array_equal(sigma(sigma(psi)).values, psi.values)
    # symmetric real function is fixed up to conjugation
    sym_vals = rng.standard_normal(8)
    sym_vals = sym_vals + sym_vals[g.inverse]
    sym = GroupFunction(g, sym_vals)
    assert np.array_equal(sigma(sym).values, np.conj(sym.values))
    # L_x sigma = sigma R_{x^{-1}}, exactly
    for x in range(8):
        a = translate_left(x, sigma(psi))
        b = sigma(translate_right(g.inv(x), psi))
        assert np.array_equal(a.values, b.values)


def test_sigma_interchanges_the_two_module_actions():
    # sigma(mu . psi) = sigma_dual(mu) . sigma(psi), where the left action
    # pairs with left translates and the right action with right translates
    g = quaternion_group()
    rng = np.random.default_rng(13)
    mu = Functional(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    psi = GroupFunction(g, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    left_act = GroupFunction(
        g, [mu(translate_left(x, psi)) for x in range(8)])
    smu, spsi = sigma_dual(mu), sigma(psi)
    right_act = GroupFunction(
        g, [smu(translate_right(x, spsi)) for x in range(8)])
    assert np.allclose(sigma(left_act).values, right_act.values, atol=1e-12)


def test_sigma_dual_properties():
    g = symmetric_group(3)
    for x in range(6):
        sd = sigma_dual(delta_functional(g, x))
        expected = np.zeros(6, dtype=complex)
        expected[g.inv(x)] = 1.0
        assert np.array_equal(sd.weights, expected)
    rng = np.random.default_rng(7)
    m1 = Functional(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    m2 = Functional(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    lhs = sigma_dual(arens_product(m1, m2))
    rhs = arens_product(sigma_dual(m2), sigma_dual(m1))
    assert np.allclose(lhs.weights, rhs.weights, atol=1e-12)
    # antilinear and ell^1-isometric
    assert np.allclose(sigma_dual(Functional(g, 2j * m1.weights)).weights,
                       -2j * sigma_dual(m1).weights)
    assert np.abs(m1.weights).sum() == pytest.approx(
        np.abs(sigma_dual(m1).weights).sum())


def test_unitary_rep_validation():
    s3, reps = s3_irreps()
    assert [r.dim for r in reps] == [1, 1, 2]
    bad = [np.eye(2, dtype=complex)] * 6
    bad[3] = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(InputError):
        UnitaryRep(s3, bad)


def test_integrate_rep_examples():
    s3, reps = s3_irreps()
    std = reps[2]
    assert np.allclose(integrate_rep(std, delta_functional(s3, s3.identity)),
                       np.eye(2))
    # uniform mean kills nontrivial irreducibles: multiplicity of the
    # trivial character is the character average, computed independently
    mu = uniform_mean(s3)
    for rep in reps[1:]:
        mult = complex(rep.character().sum()) / 6.0
        assert abs(mult) < 1e-12
        assert frob(integrate_rep(rep, mu)) < 1e-12
    assert np.allclose(integrate_rep(reps[0], mu), np.eye(1))


def test_integrate_rep_is_algebra_map():
    s3, reps = s3_irreps()
    std = reps[2]
    rng = np.random.default_rng(8)
    mu = Functional(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    nu = Functional(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    lhs = integrate_rep(std, arens_product(mu, nu))
    rhs = integrate_rep(std, mu) @ integrate_rep(std, nu)
    assert frob(lhs - rhs) < 1e-10
    # linearity
    lin = integrate_rep(std, Functional(s3, mu.weights + 2.0 * nu.weights))
    assert frob(lin - integrate_rep(std, mu) - 2.0 * integrate_rep(std, nu)) < 1e-12
    # flip intertwines with the adjoint
    assert frob(integrate_rep(std, sigma_dual(mu)) - dagger(integrate_rep(std, mu))) < 1e-12


def test_gns_regular_examples():
    triv = trivial_group()
    rep = gns_regular(triv, uniform_mean(triv))
    assert rep.dim == 1 and np.allclose(rep.matrices[0], np.eye(1))

    z2 = cyclic_group(2)
    rep2 = gns_regular(z2, uniform_mean(z2))
    assert rep2.dim == 2
    assert np.allclose(rep2.character().real, [2.0, 0.0], atol=1e-12)

    s3 = symmetric_group(3)
    rep6 = gns_regular(s3, uniform_mean(s3))
    assert rep6.dim == 6
    regular = left_regular_rep(s3).character()
    assert np.allclose(rep6.character(), regular, atol=1e-12)
    assert np.allclose(rep6.character().real, [6.0, 0, 0, 0, 0, 0], atol=1e-12)


def test_gns_rejects_bad_functionals():
    s3 = symmetric_group(3)
    with pytest.raises(InputError, match="mean"):
        gns_regular(s3, Functional(s3, np.full(6, 0.5)))      # not normalised
    lopsided = np.zeros(6)
    lopsided[0] = 1.0
    with pytest.raises(InputError, match="invariant"):
        gns_regular(s3, Functional(s3, lopsided))             # point mass moves


def test_gns_quotient_rank_deficient_path():
    # synthetic non-mean weights exercise the degenerate Gram quotient
    z2 = cyclic_group(2)
    mats, rank = _quotient_rep(z2, np.array([1.0, 0.0]))
    assert rank == 1
    assert all(m.shape == (1, 1) for m in mats)


def test_triviality_criterion():
    assert triviality_test(trivial_group(), uniform_mean(trivial_group()))
    z2 = cyclic_group(2)
    assert not triviality_test(z2, uniform_mean(z2))
    s3 = symmetric_group(3)
    assert not triviality_test(s3, uniform_mean(s3))
