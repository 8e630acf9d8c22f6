"""Classical group types: membership, projections, Cartan and Iwasawa."""

import dataclasses
import inspect

import numpy as np
import pytest
from scipy.linalg import expm

from opideal import (CLASSICAL_TYPES, DomainError, InputError,
                     algebra_membership, algebra_project, cartan_decompose,
                     cartan_involution, default_structure, group_membership,
                     irreducibility_check, iwasawa_algebra_split,
                     iwasawa_decompose, random_group_element,
                     regular_eigenflag, validate_structure)
from opideal import classical
from opideal.classical import StructureData
from opideal.utils import CARTAN_TOL, crandn, dagger, expm as numpy_expm, frob, opnorm
from oracles import algebra_membership_by_relations


def test_default_structures_validate():
    for typ in CLASSICAL_TYPES:
        st = default_structure(typ, 4)
        validate_structure(typ, st)


def test_even_dimension_enforced():
    # exactly the types with an anti-conjugation need an even dimension
    for typ in CLASSICAL_TYPES:
        if typ in ("C", "AII", "BII", "CI", "CII"):
            with pytest.raises(InputError, match=f"type {typ} needs even dimension, got n=3"):
                default_structure(typ, 3)
        else:
            validate_structure(typ, default_structure(typ, 3))


def test_cii_split_components_must_be_even():
    with pytest.raises(InputError):
        default_structure("CII", 4, split=(1, 3))
    st = default_structure("CII", 6)
    assert st.split == (2, 4)


def test_structure_compat_checks():
    st = default_structure("BI", 4, split=(2, 2))
    bad = np.eye(4, dtype=complex)[[0, 2, 1, 3]]   # swaps across the split
    with pytest.raises(InputError):
        validate_structure("BI", type(st)(n=4, c_conj=bad, split=st.split))


def test_cii_anti_conjugation_must_preserve_the_blocks():
    # the standard symplectic form of C^4 pairs e1 with e3, so it mixes the
    # blocks of the split (2, 2); CII's default takes the form per block
    validate_structure("CII", default_structure("CII", 4))
    mixing = default_structure("C", 4).c_anti
    with pytest.raises(InputError,
                       match="type CII needs the anti-conjugation to preserve both blocks"):
        validate_structure("CII", StructureData(n=4, c_anti=mixing, split=(2, 2)))


@pytest.mark.parametrize("typ", ["BII", "CI"])
def test_conjugation_pair_must_commute(typ):
    # diag(1, 1, -1, -1) is a conjugation; it anticommutes with the
    # symplectic form that pairs e1 with e3
    c = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    ca = default_structure("C", 4).c_anti
    validate_structure(typ, StructureData(n=4, c_conj=np.eye(4), c_anti=ca))
    with pytest.raises(InputError, match=rf"type {typ} needs commuting \(anti-\)conjugations"):
        validate_structure(typ, StructureData(n=4, c_conj=c, c_anti=ca))


# The structure matrices each type reads, written out by hand
_NEEDS = {
    "A": set(), "B": {"c_conj"}, "C": {"c_anti"}, "AI": {"c_conj"},
    "AII": {"c_anti"}, "AIII": {"v"}, "BI": {"c_conj", "v"},
    "BII": {"c_conj", "c_anti"}, "CI": {"c_conj", "c_anti"},
    "CII": {"c_anti", "v"},
}


def _symplectic(m):
    w = np.zeros((m, m), dtype=complex)
    w[:m // 2, m // 2:] = np.eye(m // 2)
    w[m // 2:, :m // 2] = -np.eye(m // 2)
    return w


def test_relation_table_derives_the_structure_needs():
    assert tuple(_NEEDS) == CLASSICAL_TYPES
    for typ in CLASSICAL_TYPES:
        assert classical._reads(typ, 4) == _NEEDS[typ]


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("typ", CLASSICAL_TYPES)
def test_default_structures_match_literals(typ, n):
    needs = _NEEDS[typ]
    split = None
    if "v" in needs:
        split = {4: (2, 2), 6: (2, 4), 8: (4, 4)}[n] if typ == "CII" else (n - n // 2, n // 2)
    anti = None
    if "c_anti" in needs:
        anti = np.zeros((n, n), dtype=complex)
        for lo, hi in ((0, split[0]), (split[0], n)) if typ == "CII" else ((0, n),):
            anti[lo:hi, lo:hi] = _symplectic(hi - lo)
    st = default_structure(typ, n)
    assert st.n == n and st.split == split
    for got, want in ((st.c_conj, np.eye(n) if "c_conj" in needs else None),
                      (st.c_anti, anti),
                      (st.v, None if split is None else
                       np.diag([1.0] * split[0] + [-1.0] * split[1]))):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == complex and np.array_equal(got, want)


def test_signature_is_derived_from_the_split():
    assert [f.name for f in dataclasses.fields(StructureData)] == [
        "n", "c_conj", "c_anti", "split"]
    st = StructureData(n=3, split=(1, 2))
    assert np.array_equal(st.v, np.diag([1.0, -1.0, -1.0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.v = np.eye(3)
    assert StructureData(n=3).v is None
    # a split is ignored by types without a signature
    assert default_structure("B", 4, split=(1, 3)).split is None
    for split in [(1, 1), (0, 3), (3, 0)]:
        with pytest.raises(InputError) as err:
            validate_structure("AIII", StructureData(n=3, split=split))
        assert str(err.value) == f"split {split} does not partition dimension 3"


def test_random_group_element_takes_a_structure():
    params = inspect.signature(random_group_element).parameters
    assert list(params) == ["typ", "structure", "seed", "radius"]
    assert params["structure"].default is inspect.Parameter.empty


def test_identity_in_every_group():
    for typ in CLASSICAL_TYPES:
        st = default_structure(typ, 4)
        assert group_membership(np.eye(4), typ, st)


def test_scalar_i_examples():
    x = 1j * np.eye(2)
    assert algebra_membership(x, "A")
    st = default_structure("AIII", 2, split=(1, 1))
    assert algebra_membership(x, "AIII", st)      # (i)* V = -V (i)
    assert not algebra_membership(x, "AI", default_structure("AI", 2))


def test_aiii_one_parameter_group_against_relation_oracle():
    rng = np.random.default_rng(1)
    st = default_structure("AIII", 4, split=(2, 2))
    v = st.v
    h = crandn(rng, 4, 4)
    h = (h + dagger(h)) / 2.0
    for t in (0.3, 1.0):
        g = expm(1j * t * v @ h)
        assert group_membership(g, "AIII", st, tol=1e-9)
        assert frob(dagger(g) @ v @ g - v) < 1e-9 * frob(g) ** 2


def test_projection_fixes_members_and_is_idempotent():
    rng = np.random.default_rng(2)
    for typ in CLASSICAL_TYPES:
        st = default_structure(typ, 4)
        x = crandn(rng, 4, 4)
        p1 = algebra_project(x, typ, st)
        assert algebra_membership(p1, typ, st, tol=1e-12)
        p2 = algebra_project(p1, typ, st)
        assert frob(p1 - p2) < 1e-13
        assert frob(algebra_project(p1, typ, st) - p1) < 1e-14 * max(1.0, frob(p1))


def test_projection_type_a_is_identity():
    rng = np.random.default_rng(3)
    x = crandn(rng, 3, 3)
    assert np.array_equal(algebra_project(x, "A"), x)


def test_projection_type_c_relation_oracle():
    rng = np.random.default_rng(4)
    st = default_structure("C", 4)
    x = algebra_project(crandn(rng, 4, 4), "C", st)
    ca = st.c_anti
    assert frob(x - ca @ x.T @ ca.conj()) < 1e-13


def test_random_group_element_properties():
    st = default_structure("AIII", 4, split=(2, 2))
    tiny = random_group_element("AIII", st, seed=5, radius=1e-9)
    assert frob(tiny - np.eye(4)) < 1e-7
    g1 = random_group_element("AIII", st, seed=5, radius=0.6)
    g2 = random_group_element("AIII", st, seed=5, radius=0.6)
    assert np.array_equal(g1, g2)
    assert frob(dagger(g1) @ st.v @ g1 - st.v) < 1e-9 * frob(g1) ** 2
    with pytest.raises(InputError):
        random_group_element("AIII", st, seed=5, radius=0.0)


@pytest.mark.parametrize("typ", CLASSICAL_TYPES)
@pytest.mark.parametrize("radius", [0.5, 3.0])
def test_numpy_expm_matches_scipy_on_algebra_elements(typ, radius):
    rng = np.random.default_rng([51, CLASSICAL_TYPES.index(typ)])
    for n in (4, 6):
        st = default_structure(typ, n)
        for _ in range(3):
            x = algebra_project(crandn(rng, n, n), typ, st)
            x *= radius / opnorm(x)
            exact = expm(x)
            assert frob(numpy_expm(x) - exact) <= 1e-13 * frob(exact)


def test_group_closure_under_product_and_inverse():
    rng = np.random.default_rng(6)
    for typ in CLASSICAL_TYPES:
        st = default_structure(typ, 4)
        g = random_group_element(typ, st, seed=int(rng.integers(1e6)), radius=0.5)
        h = random_group_element(typ, st, seed=int(rng.integers(1e6)), radius=0.5)
        assert group_membership(g @ h, typ, st, tol=1e-9)
        assert group_membership(np.linalg.inv(g), typ, st, tol=1e-9)


def test_cartan_unitary_input():
    st = default_structure("B", 4)
    g = random_group_element("B", st, seed=7, radius=0.5)
    cf0 = cartan_decompose(g, "B", st)
    k = cf0.k                                     # unitary element of the group
    cf = cartan_decompose(k, "B", st)
    assert frob(cf.x) < 1e-12
    assert frob(cf.k - k) < 1e-12


def test_cartan_positive_input():
    rng = np.random.default_rng(8)
    h = crandn(rng, 3, 3)
    h = (h + dagger(h)) / 2.0
    p = expm(h)                                   # positive definite in GL
    cf = cartan_decompose(p, "A")
    assert frob(cf.k - np.eye(3)) < 1e-10
    assert frob(cf.x - h) < 1e-10


def _svd_polar_oracle(g):
    u, s, vh = np.linalg.svd(g)
    k = u @ vh
    pos = dagger(vh) @ np.diag(s) @ vh
    w, v = np.linalg.eigh(pos)
    return k, v @ np.diag(np.log(w)) @ dagger(v)


@pytest.mark.parametrize("typ", CLASSICAL_TYPES)
def test_cartan_each_type_with_polar_oracle(typ):
    st = default_structure(typ, 4)
    for seed in (11, 12):
        g = random_group_element(typ, st, seed=seed, radius=0.7)
        cf = cartan_decompose(g, typ, st)
        k_o, x_o = _svd_polar_oracle(g)
        assert frob(cf.k - k_o) < 1e-9 * max(1.0, frob(k_o))
        assert frob(cf.x - x_o) < 1e-9 * max(1.0, frob(x_o))
        assert group_membership(cf.k, typ, st, tol=1e-8)
        assert algebra_membership(cf.x, typ, st, tol=1e-8)
        assert frob(cf.x - dagger(cf.x)) < 1e-10


def _conditioned_element(typ, st, rng, cond):
    """g = k0 exp(h0) with k0 unitary in the group, h0 Hermitian in the algebra
    and cond(g) = cond: the skew-Hermitian and Hermitian parts of two projected
    Gaussians, the second spread to a spectrum of width log(cond)."""
    parts = []
    for sign in (-1.0, 1.0):
        x = algebra_project(crandn(rng, st.n, st.n), typ, st)
        parts.append((x + sign * dagger(x)) / 2.0)
    skew, h0 = parts
    lam = np.linalg.eigvalsh(h0)
    h0 = h0 * (np.log(cond) / (lam[-1] - lam[0]))
    return expm(skew), h0


@pytest.mark.parametrize("typ", CLASSICAL_TYPES)
@pytest.mark.parametrize("cond", [1e5, 1e7])
def test_cartan_of_ill_conditioned_elements(typ, cond):
    """The polar factors of g = k0 exp(h0) stay in the group and the algebra
    at CARTAN_TOL, and within 4 cond(g) eps of k0 and h0, up to cond(g) = 1e7
    (the largest error over 400 draws per cond was 0.76 cond(g) eps)."""
    st = default_structure(typ, 8)
    rng = np.random.default_rng([61, CLASSICAL_TYPES.index(typ)])
    bound = 4.0 * cond * np.finfo(float).eps
    for _ in range(5):
        k0, h0 = _conditioned_element(typ, st, rng, cond)
        assert group_membership(k0, typ, st) and algebra_membership(h0, typ, st)
        cf = cartan_decompose(k0 @ expm(h0), typ, st)
        assert group_membership(cf.k, typ, st, tol=CARTAN_TOL)
        assert algebra_membership(cf.x, typ, st, tol=CARTAN_TOL)
        assert frob(cf.k - k0) <= bound
        assert frob(cf.x - h0) <= bound


def test_cartan_rejects_outsiders():
    st = default_structure("B", 4)
    rng = np.random.default_rng(13)
    with pytest.raises(DomainError):
        cartan_decompose(crandn(rng, 4, 4) + 3 * np.eye(4), "B", st)


def test_cartan_involution_clauses():
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(crandn(rng, 4, 4))
    assert frob(cartan_involution(q) - q) < 1e-12
    h = crandn(rng, 4, 4)
    p = expm((h + dagger(h)) / 2.0)
    assert frob(cartan_involution(p) - np.linalg.inv(p)) < 1e-9
    g1 = crandn(rng, 4, 4) + 2 * np.eye(4)
    g2 = crandn(rng, 4, 4) + 2 * np.eye(4)
    hom = cartan_involution(g1 @ g2) - cartan_involution(g1) @ cartan_involution(g2)
    assert frob(hom) < 1e-10
    assert frob(cartan_involution(cartan_involution(g1)) - g1) < 1e-10
    # non-unitary elements move
    assert frob(cartan_involution(p) - p) > 1e-3
    with pytest.raises(DomainError):
        cartan_involution(np.zeros((3, 3)))


def test_cartan_involution_of_a_matrix_whose_inverse_is_past_the_range():
    # 1e-310 [[2, 1], [1, 2]] has condition number 3, and its inverse, about
    # 6.7e309, is no double: a DomainError, with no warning on the way
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(DomainError, match="inverse of the matrix lies outside the double range"):
        cartan_involution(1e-310 * g)
    inverse = cartan_involution(1e-300 * g)     # about 6.7e299: in range
    assert frob(inverse * 1e-300 - np.linalg.inv(g)) <= 1e-15


def test_cartan_involution_of_a_matrix_whose_inverse_is_at_the_top_of_the_range():
    # g's parts c = 0.9 2^-1024 are subnormal, and its inverse's entries
    # +-1/(2c), about 9.99e307, are doubles: the identity divided by g's power
    # of 2 would be past the range, but each side of the solve is divided by its own
    g = 0.9 * 2.0 ** -1024 * np.array([[1.0, 1.0], [1.0, -1.0]])
    entry = 1.0 / (2.0 * g[0, 0])
    involuted = cartan_involution(g)
    assert not involuted.imag.any()
    assert np.all(np.abs(involuted.real - entry * np.sign(g)) <= 2 * np.spacing(entry))


def _positive_qr(g):
    q, r = np.linalg.qr(g)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph, r / ph[:, None]


def test_iwasawa_unitary_and_triangular_inputs():
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(crandn(rng, 5, 5))
    f = iwasawa_decompose(q)
    assert frob(f.a - np.eye(5)) < 1e-10
    assert frob(f.n - np.eye(5)) < 1e-10

    r = np.triu(crandn(rng, 5, 5))
    np.fill_diagonal(r, np.abs(np.diag(r)) + 1.0)
    f2 = iwasawa_decompose(r)
    assert frob(f2.k - np.eye(5)) < 1e-10


def test_iwasawa_matches_qr_oracle():
    rng = np.random.default_rng(16)
    g = crandn(rng, 6, 6)
    f = iwasawa_decompose(g)
    q_o, r_o = _positive_qr(g)
    a_o = np.diag(np.diag(r_o).real)
    n_o = np.linalg.solve(a_o, r_o)
    assert frob(f.k - q_o) < 1e-9
    assert frob(f.a - a_o) < 1e-9
    assert frob(f.n - n_o) < 1e-9
    assert frob(f.k @ f.a @ f.n - g) < 1e-10 * frob(g)
    # repeated runs identical
    f2 = iwasawa_decompose(g)
    assert np.array_equal(f.k, f2.k) and np.array_equal(f.a, f2.a)


def test_iwasawa_real_inputs_stay_real():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((5, 5))
    f = iwasawa_decompose(g)
    assert np.abs(f.k.imag).max() < 1e-12
    assert frob(f.k @ f.a @ f.n - g) < 1e-10 * frob(g)


def test_iwasawa_custom_regular_element():
    rng = np.random.default_rng(18)
    q, _ = np.linalg.qr(crandn(rng, 4, 4))
    x0 = q @ np.diag([4.0, 2.5, 1.0, -1.0]) @ dagger(q)
    g = crandn(rng, 4, 4) + 2 * np.eye(4)
    f = iwasawa_decompose(g, x0)
    assert frob(f.k @ f.a @ f.n - g) < 1e-10 * frob(g)
    assert frob(f.a @ x0 - x0 @ f.a) < 1e-10
    flag = regular_eigenflag(x0)
    from opideal import is_in_nest_algebra
    assert is_in_nest_algebra(f.n, flag, tol=1e-9)


def test_iwasawa_rejects_degenerate_x0():
    x0 = np.diag([2.0, 1.0, 1.0 + 1e-10])
    with pytest.raises(DomainError, match="collide"):
        iwasawa_decompose(np.eye(3) * 2.0, x0)
    with pytest.raises(InputError, match="Hermitian"):
        iwasawa_decompose(np.eye(3) * 2.0, np.diag([3.0, 2.0, 1.0]) + 1j * np.eye(3))
    with pytest.raises(InputError, match="dimension"):
        iwasawa_decompose(np.eye(3) * 2.0, np.diag([2.0, 1.0]))


def test_regularity_is_relative_to_the_spectrum():
    # the gap test scales with x0: 1e-9 diag(1, 2, 3) is as regular as diag(1, 2, 3)
    assert regular_eigenflag(1e-9 * np.diag([1.0, 2.0, 3.0])).dims == (1, 2, 3)
    for x0 in (np.zeros((3, 3)), 1e-9 * np.diag([1.0, 1.0, 3.0])):
        with pytest.raises(DomainError, match="collide"):
            regular_eigenflag(x0)


def _split_oracle(x):
    # unique entrywise solution of the linear constraints in flag coordinates
    n = x.shape[0]
    xa = np.diag(np.diag(x).real).astype(complex)
    xn = np.zeros_like(x)
    for i in range(n):
        for j in range(i + 1, n):
            xn[i, j] = x[i, j] + np.conj(x[j, i])
    xk = x - xa - xn
    return xk, xa, xn


def test_algebra_split_examples_and_oracle():
    rng = np.random.default_rng(19)
    # skew input: no diagonal part
    s = crandn(rng, 4, 4)
    s = (s - dagger(s)) / 2.0
    xk, xa, xn = iwasawa_algebra_split(s)
    assert frob(xa) < 1e-14
    assert frob(xk + xn - s) < 1e-14
    # real diagonal input: only the commuting part
    d = np.diag([3.0, 1.0, -2.0, 0.5]).astype(complex)
    xk, xa, xn = iwasawa_algebra_split(d)
    assert frob(xk) == 0.0 and frob(xn) == 0.0 and np.array_equal(xa, d)
    # random input matches the entrywise constraint solution
    x = crandn(rng, 5, 5)
    xk, xa, xn = iwasawa_algebra_split(x)
    ok, oa, on = _split_oracle(x)
    assert frob(xk - ok) < 1e-13
    assert frob(xa - oa) < 1e-13
    assert frob(xn - on) < 1e-13
    assert frob(xk + xa + xn - x) < 1e-13
    assert frob(xk + dagger(xk)) < 1e-13
    assert frob(np.tril(xn)) == 0.0


def test_algebra_split_is_linear_and_projective():
    rng = np.random.default_rng(20)
    x, y = crandn(rng, 4, 4), crandn(rng, 4, 4)
    for c in (1.0, 2.5):
        left = iwasawa_algebra_split(c * x + y)
        right = [c * a + b for a, b in zip(iwasawa_algebra_split(x),
                                           iwasawa_algebra_split(y))]
        for l, r in zip(left, right):
            assert frob(l - r) < 1e-12
    comps = iwasawa_algebra_split(x)
    for i, comp in enumerate(comps):
        again = iwasawa_algebra_split(comp)
        for j, piece in enumerate(again):
            target = comp if i == j else 0.0
            assert frob(piece - target) < 1e-13


def test_irreducibility_known_cases():
    n = 3
    basis = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            basis.append(e)
    assert irreducibility_check(basis)
    assert not irreducibility_check([np.diag([1.0, 2.0]).astype(complex)])
    rng = np.random.default_rng(21)
    assert irreducibility_check([crandn(rng, 3, 3), crandn(rng, 3, 3)])
    # block structure conjugated by a unitary is still reducible
    q, _ = np.linalg.qr(crandn(rng, 4, 4))
    blocks = []
    for _ in range(3):
        b = np.zeros((4, 4), dtype=complex)
        b[:2, :2] = crandn(rng, 2, 2)
        b[2:, 2:] = crandn(rng, 2, 2)
        blocks.append(q @ b @ dagger(q))
    assert not irreducibility_check(blocks)
    with pytest.raises(InputError):
        irreducibility_check([])


def _rotated_structure(typ, rng):
    # C -> U C U^T keeps C unitary, C conj(C) = +-1 and commuting pairs, so
    # the relation residual and the involution residual differ by a
    # nontrivial unitary factor; signature types keep the standard V.
    st = default_structure(typ, 4)
    if st.v is not None:
        return st
    q, _ = np.linalg.qr(crandn(rng, 4, 4))

    def rot(c):
        return None if c is None else q @ c @ q.T
    return StructureData(n=4, c_conj=rot(st.c_conj), c_anti=rot(st.c_anti))


@pytest.mark.parametrize("typ", CLASSICAL_TYPES)
def test_algebra_membership_matches_relation_oracle(typ):
    rng = np.random.default_rng(12)
    for st in (default_structure(typ, 4), _rotated_structure(typ, rng)):
        validate_structure(typ, st)
        for _ in range(5):
            x = algebra_project(crandn(rng, 4, 4), typ, st)
            assert algebra_membership(x, typ, st)
            assert algebra_membership_by_relations(x, typ, st, 1e-10)
            for eps in (1e-6, 1e-3):
                e = crandn(rng, 4, 4)
                y = x + eps * e / frob(e)
                got = algebra_membership(y, typ, st)
                assert got == algebra_membership_by_relations(y, typ, st, 1e-10)
                assert got == (typ == "A")
