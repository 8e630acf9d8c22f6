"""Gauge functions: evaluation, singular values, duality, dilation indices."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opideal import (InputError, NonincreasingSequence,
                     SymNormFunc, adjoint_phi_eval, boyd_estimate, contract,
                     contraction_norm, dilate, dilation_norm, dual_gauge,
                     phi_eval, phi_norm, singular_values, symfunc)
from opideal.symfunc import _average
from opideal.utils import MAX_PROBE_LEN, crandn, dagger
from oracles import (_test_sequences, flat_probe_norm, full_family_contraction_norm,
                     full_family_dilation_norm, full_family_dual_estimate,
                     pairing_ratio, schatten_gauge_decimal, slsqp_dual_ascent)


def test_sequence_validation():
    NonincreasingSequence([3.0, 3.0, 1.0, 0.0])
    with pytest.raises(InputError):
        NonincreasingSequence([3.0, 4.0])
    with pytest.raises(InputError):
        NonincreasingSequence([2.0, -1.0])
    with pytest.raises(InputError):
        NonincreasingSequence([np.nan, 1.0])
    assert list(NonincreasingSequence.rearranged([1.0, 5.0, 2.0])) == [5.0, 2.0, 1.0]
    assert NonincreasingSequence([3.0, 1.0])[1] == 1.0


def test_gauge_descriptor_validation():
    with pytest.raises(InputError):
        SymNormFunc.schatten(0.5)
    with pytest.raises(InputError):
        SymNormFunc.kyfan(0)
    with pytest.raises(InputError):
        SymNormFunc("total", p=2.0)
    assert str(SymNormFunc.parse("schatten:inf")) == "schatten:inf"
    assert SymNormFunc.parse("kyfan:3").k == 3
    with pytest.raises(InputError):
        SymNormFunc.parse("schatten")
    with pytest.raises(InputError):
        SymNormFunc.parse("lp:2")
    assert dual_gauge(SymNormFunc.kyfan(2)) is None     # max(xi_1, sum / k): no kyfan


def test_phi_eval_examples():
    assert phi_eval(SymNormFunc.schatten(2), [4.0, 3.0]) == pytest.approx(5.0)
    with pytest.raises(InputError):
        phi_eval(SymNormFunc.schatten(2), [3.0, 4.0])
    assert phi_eval(SymNormFunc.schatten(1), [1.0, 1.0, 1.0]) == pytest.approx(3.0)
    assert phi_eval(SymNormFunc.kyfan(2), [5.0, 2.0, 1.0]) == pytest.approx(7.0)


@pytest.mark.parametrize("phi", [
    SymNormFunc.schatten(1), SymNormFunc.schatten(1.5), SymNormFunc.schatten(2),
    SymNormFunc.schatten(4), SymNormFunc.schatten(math.inf),
    SymNormFunc.kyfan(1), SymNormFunc.kyfan(3),
])
def test_gauge_normalisation(phi):
    assert phi_eval(phi, [1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert phi_eval(phi, []) == 0.0


def test_singular_values_identity_and_diag():
    assert np.allclose(singular_values(np.eye(3)).values, [1.0, 1.0, 1.0])
    assert np.allclose(singular_values(np.diag([3.0, -4.0])).values, [4.0, 3.0])


def test_singular_values_against_gram_eigensolve():
    # independent oracle: square roots of the Hermitian spectrum of T*T
    rng = np.random.default_rng(42)
    t = crandn(rng, 4, 4)
    expected = np.sqrt(np.sort(np.linalg.eigvalsh(dagger(t) @ t))[::-1])
    assert np.allclose(singular_values(t).values, expected, atol=1e-12)


def test_singular_values_rejects_nonfinite():
    with pytest.raises(InputError):
        singular_values([[np.inf, 0.0], [0.0, 1.0]])


def test_phi_norm_examples():
    rng = np.random.default_rng(7)
    t = crandn(rng, 3, 3)
    assert phi_norm(SymNormFunc.schatten(math.inf), t) == pytest.approx(
        np.linalg.norm(t, 2))
    proj = np.zeros((3, 3), dtype=complex)
    proj[1, 1] = 1.0
    assert phi_norm(SymNormFunc.schatten(1), proj) == pytest.approx(1.0)
    # entrywise oracle for the Frobenius value
    t5 = crandn(rng, 5, 5)
    frob = np.sqrt((np.abs(t5) ** 2).sum())
    assert phi_norm(SymNormFunc.schatten(2), t5) == pytest.approx(frob, rel=1e-12)


def test_dual_self_dual_pair():
    res = adjoint_phi_eval(SymNormFunc.schatten(2), [4.0, 3.0])
    assert res.closed_form == pytest.approx(5.0, abs=1e-12)
    assert res.estimate == pytest.approx(5.0, rel=1e-6)


def test_dual_of_trace_gauge_is_max():
    eta = [6.0, 2.5, 1.0]
    res = adjoint_phi_eval(SymNormFunc.schatten(1), eta)
    assert res.closed_form == pytest.approx(6.0, abs=1e-12)
    assert res.estimate == pytest.approx(6.0, rel=1e-9)


def test_dual_numeric_matches_closed_form_p3():
    rng = np.random.default_rng(12)
    for _ in range(10):
        eta = np.sort(rng.uniform(0.0, 3.0, rng.integers(2, 10)))[::-1]
        eta[0] = max(eta[0], 0.5)
        res = adjoint_phi_eval(SymNormFunc.schatten(3), eta)
        exact = float(np.power(eta, 1.5).sum() ** (1.0 / 1.5))
        assert res.closed_form == pytest.approx(exact, rel=1e-12)
        assert res.estimate == pytest.approx(exact, rel=1e-3)


def test_dual_kyfan_numeric_against_formula():
    # the top-k-sum gauge has dual max(eta_1, total/k); derived independently
    rng = np.random.default_rng(99)
    for k in (1, 2, 3):
        eta = np.sort(rng.uniform(0.1, 2.0, 8))[::-1]
        res = adjoint_phi_eval(SymNormFunc.kyfan(k), eta)
        expected = max(eta[0], eta.sum() / k)
        assert res.closed_form == pytest.approx(expected, rel=1e-12)
        assert res.estimate == pytest.approx(expected, rel=1e-6)


def test_dual_rejects_zero():
    with pytest.raises(InputError):
        adjoint_phi_eval(SymNormFunc.schatten(2), [0.0, 0.0])


def test_dual_ascent_converges_off_grid_exponents():
    # exponents whose maximiser is not a flat vector, so the Hoelder
    # maximiser has to do the work; default tolerance must hold
    rng = np.random.default_rng(31)
    for p in (1.2, 1.5, 5.0):
        for _ in range(5):
            eta = np.sort(np.abs(rng.standard_normal(10)))[::-1]
            eta[0] = max(eta[0], 1e-2)
            res = adjoint_phi_eval(SymNormFunc.schatten(p), eta)
            assert abs(res.estimate - res.closed_form) <= 1e-9 * res.closed_form
            assert res.estimate <= res.closed_form * (1 + 1e-12)   # lower bound


def _lq_dual(p, eta):
    q = p / (p - 1.0)
    return float(np.power(eta, q).sum() ** (1.0 / q))


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("length", [1, 8, 64, 256, 4096])
def test_dual_fixed_point_reaches_lq_value(p, length):
    # the estimate against the exact ell^q value: within 1e-12 and never
    # above it by more
    phi = SymNormFunc.schatten(p)
    rng = np.random.default_rng([41, length])
    eta = np.sort(rng.exponential(size=length))[::-1]
    exact = _lq_dual(p, eta)
    value = adjoint_phi_eval(phi, eta).estimate
    assert abs(value - exact) <= 1e-12 * exact
    assert value <= exact * (1 + 1e-12)


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("eta", [[3.0, 2.0, 0.0, 0.0], [1.0, 0.0], [2.5]])
def test_dual_fixed_point_on_support(p, eta):
    # entries of eta that are zero carry no weight: the maximiser is zero
    # off the support, and a length-1 eta is its own dual value
    phi = SymNormFunc.schatten(p)
    eta = np.array(eta)
    exact = _lq_dual(p, eta)
    value = adjoint_phi_eval(phi, eta).estimate
    assert abs(value - exact) <= 1e-12 * exact


def test_dual_estimate_not_below_slsqp_oracle():
    # criterion 1's case family: the estimate is at least the constrained
    # SLSQP ascent's value, up to rounding
    rng = np.random.default_rng(20240901)
    for _ in range(100):
        length = int(rng.integers(2, 17))
        eta = np.sort(np.abs(rng.standard_normal(length)))[::-1]
        eta[0] = max(eta[0], 1e-3)
        for p in (1.0, 2.0, 3.0):
            phi = SymNormFunc.schatten(p)
            oracle = slsqp_dual_ascent(phi, eta)
            assert adjoint_phi_eval(phi, eta).estimate >= oracle * (1 - 1e-12)


def test_dilate_contract_examples():
    assert list(dilate(1, [5.0, 2.0])) == [5.0, 2.0]
    assert list(contract(1, [5.0, 2.0])) == [5.0, 2.0]
    assert list(dilate(2, [3.0, 1.0])) == [3.0, 3.0, 1.0, 1.0]
    assert list(contract(2, [4.0, 2.0, 2.0, 0.0])) == [3.0, 1.0]
    assert list(contract(2, [4.0, 2.0, 2.0])) == [3.0, 1.0]
    with pytest.raises(InputError):
        dilate(0, [1.0])
    with pytest.raises(InputError):
        contract(-2, [1.0])


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 4.0])
def test_dilation_norm_closed_form(r):
    phi = SymNormFunc.schatten(r)
    for m in (2, 3, 5, 8):
        assert dilation_norm(phi, m, 32) == pytest.approx(m ** (1.0 / r), abs=1e-10)


def test_dilation_norm_trace_gauge_brute_oracle():
    # independent maximisation over a fresh random family of sorted vectors
    phi = SymNormFunc.schatten(1)
    rng = np.random.default_rng(3)
    for m in (2, 4):
        best = 0.0
        for _ in range(200):
            xi = np.sort(rng.uniform(0, 1, rng.integers(1, 20)))[::-1]
            if xi.sum() == 0:
                continue
            best = max(best, np.repeat(xi, m).sum() / xi.sum())
        assert best == pytest.approx(m, rel=1e-12)
        assert dilation_norm(phi, m, 32) == pytest.approx(m, abs=1e-12)


@pytest.mark.parametrize("r", [2.0, 4.0])
def test_boyd_estimate_schatten(r):
    est = boyd_estimate(SymNormFunc.schatten(r), 16, 64)
    assert est.p_hat == pytest.approx(r, abs=1e-8)
    assert est.q_hat == pytest.approx(r, abs=1e-8)
    assert est.p_hat <= est.q_hat + 1e-8


def test_boyd_estimate_trace_gauge():
    est = boyd_estimate(SymNormFunc.schatten(1), 8, 32)
    assert est.p_hat == pytest.approx(1.0, abs=1e-8)
    assert est.dilation_norms[4] == pytest.approx(4.0, abs=1e-10)


def test_boyd_estimate_sup_gauge_degenerates():
    est = boyd_estimate(SymNormFunc.schatten(math.inf), 4, 16)
    assert math.isinf(est.p_hat) and math.isinf(est.q_hat)


def test_boyd_estimate_kyfan_gauge():
    # a top-k gauge is equivalent to the sup norm: repeats stop helping at
    # m = k, so the lower index grows past every finite bound with m while
    # block averages of flat tails have norm one
    est = boyd_estimate(SymNormFunc.kyfan(2), 8, 32)
    assert est.dilation_norms[2] == pytest.approx(2.0, abs=1e-12)
    assert est.dilation_norms[8] == pytest.approx(2.0, abs=1e-12)
    assert est.p_hat == pytest.approx(math.log(8) / math.log(2), abs=1e-9)
    assert math.isinf(est.q_hat)
    assert est.p_hat <= est.q_hat


def test_boyd_indices_near_the_sup_norm_are_finite():
    # ||D_m|| = m^(1/p) is within 1e-12 of 1 but above it in floating point,
    # and so is 1/||D_(1/m)||: both indices are read off the scan
    est = boyd_estimate(SymNormFunc.schatten(1e12), 32, 256)
    assert est.p_hat == pytest.approx(1e12, rel=1e-5)
    assert est.q_hat == pytest.approx(1e12, rel=1e-5)


@pytest.mark.parametrize("phi", [SymNormFunc.schatten(1e17), SymNormFunc.schatten(math.inf),
                                 SymNormFunc.kyfan(1)], ids=str)
def test_boyd_indices_are_infinite_where_the_norms_are_one(phi):
    # the flat-probe scan reads these norms as 1.0 exactly
    est = boyd_estimate(phi, 32, 256)
    assert set(est.dilation_norms.values()) == set(est.contraction_norms.values()) == {1.0}
    assert math.isinf(est.p_hat) and math.isinf(est.q_hat)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_kyfan_block_averages_have_norm_one(k):
    # the probe of k m ones averages to k ones, of the same gauge k
    est = boyd_estimate(SymNormFunc.kyfan(k), 32, 256)
    assert set(est.contraction_norms.values()) == {1.0}
    assert math.isinf(est.q_hat)


def test_boyd_estimate_validation():
    with pytest.raises(InputError):
        boyd_estimate(SymNormFunc.schatten(2), 1, 16)
    with pytest.raises(InputError):
        boyd_estimate(SymNormFunc.schatten(2), 8, 4)


_gauges = st.sampled_from([
    SymNormFunc.schatten(1), SymNormFunc.schatten(1.5), SymNormFunc.schatten(2),
    SymNormFunc.schatten(3), SymNormFunc.schatten(math.inf),
    SymNormFunc.kyfan(1), SymNormFunc.kyfan(2), SymNormFunc.kyfan(4),
])
_raw = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(_gauges, _raw, _raw)
def test_triangle_inequality_after_rearrangement(phi, a, b):
    n = max(len(a), len(b))
    xa = np.sort(np.pad(a, (0, n - len(a))))[::-1]
    xb = np.sort(np.pad(b, (0, n - len(b))))[::-1]
    lhs = phi_eval(phi, NonincreasingSequence.rearranged(xa + xb))
    rhs = phi_eval(phi, xa) + phi_eval(phi, xb)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(_gauges, _raw, st.floats(min_value=0.0, max_value=1e3))
def test_positive_homogeneity(phi, a, c):
    xi = np.sort(a)[::-1]
    assert phi_eval(phi, c * xi) == pytest.approx(c * phi_eval(phi, xi), rel=1e-12,
                                                  abs=1e-9)


_MATRIX_GAUGES = [SymNormFunc.schatten(1), SymNormFunc.schatten(1.5),
                  SymNormFunc.schatten(2), SymNormFunc.schatten(3),
                  SymNormFunc.schatten(math.inf), SymNormFunc.kyfan(2),
                  SymNormFunc.kyfan(3)]


def _random_unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("phi", _MATRIX_GAUGES)
def test_adjoint_and_operator_norm_bounds(phi):
    rng = np.random.default_rng(21)
    for _ in range(10):
        t = crandn(rng, 5, 5)
        nt = phi_norm(phi, t)
        assert abs(nt - phi_norm(phi, dagger(t))) <= 1e-12 * max(1.0, nt)
        assert np.linalg.norm(t, 2) <= nt * (1 + 1e-12)


@pytest.mark.parametrize("phi", _MATRIX_GAUGES)
def test_unitary_invariance(phi):
    rng = np.random.default_rng(22)
    for _ in range(8):
        t = crandn(rng, 5, 5)
        u = _random_unitary(rng, 5)
        v = _random_unitary(rng, 5)
        assert phi_norm(phi, u @ t @ v) == pytest.approx(phi_norm(phi, t), rel=1e-10)


@pytest.mark.parametrize("phi", _MATRIX_GAUGES)
def test_bimodule_bound(phi):
    rng = np.random.default_rng(23)
    for _ in range(8):
        a, t, b = (crandn(rng, 4, 4) for _ in range(3))
        lhs = phi_norm(phi, a @ t @ b)
        rhs = np.linalg.norm(a, 2) * phi_norm(phi, t) * np.linalg.norm(b, 2)
        assert lhs <= rhs * (1 + 1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_trace_pairing_bound(p):
    phi = SymNormFunc.schatten(p)
    dual = dual_gauge(phi)
    rng = np.random.default_rng(24)
    for _ in range(8):
        t, s = crandn(rng, 4, 4), crandn(rng, 4, 4)
        lhs = abs(np.trace(t @ s))
        rhs = phi_norm(dual, t) * phi_norm(phi, s)
        assert lhs <= rhs * (1 + 1e-10)


def test_schatten_monotone_in_p_at_fixed_dimension():
    rng = np.random.default_rng(25)
    ps = [1.0, 1.5, 2.0, 3.0, 6.0, math.inf]
    for _ in range(8):
        t = crandn(rng, 5, 5)
        norms = [phi_norm(SymNormFunc.schatten(p), t) for p in ps]
        for lo, hi in zip(norms, norms[1:]):
            assert hi <= lo * (1 + 1e-12)


def test_dual_options_deterministic():
    eta = np.sort(np.random.default_rng(5).uniform(0, 2, 9))[::-1]
    a = adjoint_phi_eval(SymNormFunc.schatten(3), eta)
    b = adjoint_phi_eval(SymNormFunc.schatten(3), eta)
    assert a.estimate == b.estimate


@pytest.mark.parametrize("p, values, exact", [
    (400.0, [10.0, 1.0], 10.0),                       # 10^400 overflows
    (2.0, [1e200, 1e200], math.sqrt(2.0) * 1e200),    # 1e400 overflows
    (3.0, [3e150], 3e150),
    (3.0, [1e-120, 1e-120], 2.0 ** (1.0 / 3.0) * 1e-120),   # 1e-360 underflows
    (2.0, [1e-170, 1e-170], math.sqrt(2.0) * 1e-170),
    (3.0, [1e-105], 1e-105),                          # 1e-315 is subnormal
])
def test_schatten_gauge_scales_out_of_range_sums(p, values, exact):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phi_eval(SymNormFunc.schatten(p), values)
    assert got == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("phi, exact", [
    ("schatten:1", 1e308),
    ("schatten:1.5", 2.0 ** (1.0 / 3.0) * 1e308),
    ("schatten:2", math.sqrt(2.0) * 1e308),
    ("schatten:3", 2.0 ** (2.0 / 3.0) * 1e308),
    ("kyfan:2", 1e308),
    ("kyfan:3", 1e308),
])
def test_dual_value_near_the_double_range_does_not_overflow(phi, exact):
    # <xi, eta> and sum(eta) overflow although the dual value does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = adjoint_phi_eval(SymNormFunc.parse(phi), [1e308, 1e308])
    assert res.closed_form == pytest.approx(exact, rel=1e-15)
    assert exact * (1 - 1e-12) <= res.estimate <= res.closed_form * (1 + 1e-12)


def test_schatten_gauge_is_within_4_ulp_of_the_decimal_oracle():
    # the root of a plain sum of p-th powers errs by up to 22 ulp on these
    # draws at scales 1e-20 and 1e20: the rounded exponent 1/p meets a large log(sum)
    rng = np.random.default_rng(40)
    for p in (1.5, 2.0, 3.0, 7.0):
        for scale in (1e-20, 1.0, 1e20):
            v = np.sort(rng.exponential(size=20))[::-1] * scale
            ref = schatten_gauge_decimal(p, v)
            assert abs(phi_eval(SymNormFunc.schatten(p), v) - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_dual_candidates_e1_and_ones_hold_the_nonsmooth_maximisers(n):
    # e1 and the all-ones vector attain max(eta_1, sum / min(k, n)) over
    # every flat prefix, so schatten:1, schatten:inf and kyfan:k need no other
    rng = np.random.default_rng([41, n])
    for _ in range(5):
        eta = np.sort(rng.integers(1, 4, n).astype(float) * rng.exponential())[::-1]
        for phi in [SymNormFunc.schatten(1), SymNormFunc.schatten(math.inf)] + [
                SymNormFunc.kyfan(k) for k in (1, 2, 3, 5, 9)]:
            res = adjoint_phi_eval(phi, eta)
            assert res.estimate == pytest.approx(res.closed_form, rel=1e-14)


def test_dual_estimate_is_the_rescaled_pairing_ratio_of_its_trial_vectors():
    # every trial vector has largest entry 1, so rescaling it and eta by their
    # largest entries, as the oracle does for any xi, changes no bit
    rng = np.random.default_rng(44)
    gauges = [SymNormFunc.schatten(p) for p in (1, 1.01, 1.5, 2, 3, 8, math.inf)] + [
        SymNormFunc.kyfan(k) for k in (1, 3, 20)]
    for n in (1, 2, 7, 64, 256):
        draws = [rng.exponential(size=n), rng.integers(1, 4, n).astype(float),
                 np.where(np.arange(n) < n // 2 + 1, rng.exponential(size=n), 0.0)]
        for eta in (np.sort(d)[::-1] * 2.0 ** k for d in draws for k in (-600, 0, 600)):
            trials = [np.eye(1, n)[0]] + ([np.ones(n)] if n > 1 else [])
            for phi in gauges:
                holder = []
                if phi.kind == "schatten" and 1.0 < phi.p < math.inf:
                    with np.errstate(under="ignore"):
                        holder = [np.power(eta / eta.max(), 1.0 / (phi.p - 1.0))]
                expected = max(pairing_ratio(phi, xi, eta) for xi in trials + holder)
                assert adjoint_phi_eval(phi, eta).estimate == expected, (phi, n)


def test_probe_family_holds_each_sequence_once():
    for seq_len in (4, 32):
        seqs = [tuple(v) for v in _test_sequences(seq_len)]
        assert len(seqs) == len(set(seqs))


def test_probe_family_is_the_flat_vectors():
    for seq_len in (1, 4, 32):
        seqs = [v.tolist() for v in _test_sequences(seq_len)]
        assert seqs == [[1.0] * j for j in range(1, seq_len + 1)]
    with pytest.raises(InputError, match="seq_len"):
        dilation_norm(SymNormFunc.schatten(2), 2, 0)


_FULL_FAMILY_GRID = [SymNormFunc.schatten(p) for p in
                     (1.0, 1.01, 1.5, 2.0, 3.0, 8.0, 100.0, math.inf)] + [
                    SymNormFunc.kyfan(k) for k in (1, 2, 5, 20)]


def _eta_families(length):
    rng = np.random.default_rng([43, length])
    yield np.sort(rng.exponential(size=length))[::-1]
    yield np.sort(rng.uniform(0.1, 2.0, length))[::-1]
    yield np.sort(rng.integers(1, 4, length).astype(float))[::-1]    # ties
    tail = np.sort(rng.exponential(size=length))[::-1]
    tail[length // 2 + 1:] = 0.0
    yield tail


@pytest.mark.parametrize("phi", _FULL_FAMILY_GRID, ids=str)
def test_flat_probes_attain_the_full_family_values(phi):
    # the dual estimate attains the closed form to rounding, so it does not
    # fall below the full family's ascent; the Boyd probes are a subset of
    # the seeded full families, so no norm can rise, and they attain every
    # operator norm, so none falls by more than rounding
    for length in (1, 2, 3, 8, 64, 256):
        for eta in _eta_families(length):
            ref = full_family_dual_estimate(phi, eta)
            res = adjoint_phi_eval(phi, eta)
            assert ref * (1 - 1e-15) <= res.estimate
            assert abs(res.estimate - res.closed_form) <= 1e-15 * res.closed_form
    for m_max, seq_len in ((8, 16), (16, 64)):
        est = boyd_estimate(phi, m_max, seq_len)
        for m in range(2, m_max + 1):
            ref = full_family_dilation_norm(phi, m, seq_len)
            assert ref * (1 - 1e-15) <= est.dilation_norms[m] <= ref
            ref = full_family_contraction_norm(phi, m, seq_len)
            assert ref * (1 - 1e-15) <= est.contraction_norms[m] <= ref


def test_boyd_scan_is_exact_on_flat_vectors():
    # on the flat probes ||D_4||_2 = sqrt(4j) / sqrt(j) rounds to 2 exactly;
    # a power-law or random probe rounds it up to 2.0000000000000004
    est = boyd_estimate(SymNormFunc.schatten(2), 8, 16)
    assert est.dilation_norms[4] == 2.0
    assert est.p_hat == 2.0


_BOYD_GRID = [SymNormFunc.schatten(p) for p in
              (1.0, 1.001, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0, 20.0, 100.0,
               1000.0, math.inf)] + [
             SymNormFunc.kyfan(k) for k in (1, 2, 3, 5, 8, 20, 300)]
# every gauge on these; the long scans only where the per-probe oracle runs
# them in a second or less: the workload's schatten:1.5, the underflowing
# rows of schatten:1000, the near ties of schatten:1, and kyfan gauges whose
# k lies below and above every row length
_BOYD_CELLS = ((2, 2), (3, 7), (8, 16), (16, 64))
_BOYD_LONG = {"schatten:1": (32, 256), "schatten:1.5": (64, 256),
              "schatten:1000": (32, 256), "kyfan:2": (32, 256),
              "kyfan:300": (32, 256)}


@pytest.mark.parametrize("phi", _BOYD_GRID, ids=str)
def test_boyd_norms_equal_the_per_probe_loop(phi):
    # the gauges come from probe lengths and one block per image length, and
    # still equal, bit for bit, the ratios of probes built one at a time
    cells = _BOYD_CELLS + ((_BOYD_LONG[str(phi)],) if str(phi) in _BOYD_LONG else ())
    for m_max, seq_len in cells:
        est = boyd_estimate(phi, m_max, seq_len)
        for m in range(2, m_max + 1):
            ref = flat_probe_norm(phi, np.repeat, m, seq_len)
            assert dilation_norm(phi, m, seq_len) == est.dilation_norms[m] == ref
            ref = flat_probe_norm(phi, _average, m, seq_len)
            assert contraction_norm(phi, m, seq_len) == est.contraction_norms[m] == ref


def _count_gauge_calls(monkeypatch):
    calls = []
    gauge = symfunc._gauge_raw

    def counted(phi, v):
        calls.append(v.size)
        return gauge(phi, v)

    monkeypatch.setattr(symfunc, "_gauge_raw", counted)
    return calls


def test_boyd_scan_gauges_lengths_not_arrays(monkeypatch):
    # a guard by count, not time: the per-probe loop made 31,744 calls here
    calls = _count_gauge_calls(monkeypatch)
    boyd_estimate(SymNormFunc.schatten(1.5), 32, 256)
    assert len(calls) < 1000


def test_underflowing_rows_are_gauged_in_their_block(monkeypatch):
    # (r/32)^1000 underflows for the single-entry images r/32 with r < 16, and
    # for no longer image, which starts with a 1.  Each row is divided by its
    # largest entry first, so the blocks of 1, ..., 8 columns are gauged once
    # each and no row a second time.
    tiny = np.finfo(float).tiny
    assert [r for r in range(1, 33) if (r / 32) ** 1000 < tiny] == list(range(1, 16))
    calls = _count_gauge_calls(monkeypatch)
    phi = SymNormFunc.schatten(1000)
    norm = contraction_norm(phi, 32, 256)
    assert calls == [32 * cols for cols in range(1, 9)]
    monkeypatch.undo()
    assert norm == flat_probe_norm(phi, _average, 32, 256)


def test_probe_length_cap_is_checked_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("a probe was gauged")

    monkeypatch.setattr(symfunc, "_flat_gauge", refuse)
    phi = SymNormFunc.schatten(2)
    for seq_len in (MAX_PROBE_LEN + 1, 10 ** 12):
        message = f"seq_len {seq_len} exceeds the limit {MAX_PROBE_LEN}"
        for call in (lambda: dilation_norm(phi, 2, seq_len),
                     lambda: contraction_norm(phi, 2, seq_len),
                     lambda: boyd_estimate(phi, 2, seq_len),
                     lambda: boyd_estimate(phi, seq_len, seq_len)):
            with pytest.raises(InputError, match=message):
                call()
    monkeypatch.undo()
    assert boyd_estimate(phi, 2, MAX_PROBE_LEN).seq_len == MAX_PROBE_LEN
