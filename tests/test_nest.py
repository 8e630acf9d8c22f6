"""Flags, partitions, and the three truncation operators."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from opideal import (Flag, InputError, Partition, SymNormFunc,
                     is_in_nest_algebra, iwasawa_decompose, ldl_nest, nest,
                     project, qb_nest, refinement_identities_check,
                     regular_eigenflag, triangular_integral, truncate_diag,
                     truncate_lower, truncate_upper, truncation_norm_experiment)
from opideal.cli import main
from opideal.serialize import save_flag, save_matrix
from opideal.utils import (MAX_EXPERIMENT_DIM, MAX_EXPERIMENT_TRIALS, crandn, dagger,
                           frob, is_unitary)

from oracles import nest_membership_per_cut


def random_flag(rng, n, dims=None):
    q, r = np.linalg.qr(crandn(rng, n, n))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Flag(q, dims if dims is not None else range(1, n + 1))


def test_flag_validation():
    Flag.standard(4)
    with pytest.raises(InputError):
        Flag(np.ones((3, 3)), [1, 2, 3])          # not unitary
    with pytest.raises(InputError):
        Flag(np.eye(3), [1, 2])                   # must end at n
    with pytest.raises(InputError):
        Flag(np.eye(3), [2, 1, 3])


def test_adapted_basis_round_trip():
    rng = np.random.default_rng(41)
    flag = random_flag(rng, 5, dims=[2, 5])
    x = crandn(rng, 5, 5)
    y = flag.to_adapted(x)
    # entry (i, j) is the pairing of the i-th and j-th adapted directions
    w = flag.basis
    pairing = np.array([[np.vdot(w[:, i], x @ w[:, j]) for j in range(5)]
                        for i in range(5)])
    assert np.allclose(y, pairing, atol=1e-12)
    assert np.allclose(flag.from_adapted(y), x, atol=1e-12)
    assert np.allclose(flag.to_adapted(flag.from_adapted(x)), x, atol=1e-12)


def test_adapted_basis_is_identity_on_standard_flag():
    x = crandn(np.random.default_rng(42), 4, 4)
    flag = Flag.standard(4)
    assert flag.to_adapted(x) is x
    assert flag.from_adapted(x) is x


def test_partition_validation():
    flag = Flag.standard(5, dims=[2, 4, 5])
    Partition(flag, [2, 5])
    Partition(flag, [0, 4, 5])                    # zero allowed and dropped
    with pytest.raises(InputError):
        Partition(flag, [3, 5])                   # 3 not a flag dim
    with pytest.raises(InputError):
        Partition(flag, [2, 4])                   # must contain n


def test_partition_block_index():
    flag = Flag.standard(7)
    for cuts in [(7,), (1, 7), (2, 3, 7), range(1, 8)]:
        part = Partition(flag, cuts)
        loop = np.empty(7, dtype=int)
        bounds = part.bounds
        for i in range(part.block_count):
            loop[bounds[i]:bounds[i + 1]] = i
        assert np.array_equal(part.index, loop)
        assert not part.index.flags.writeable


def test_project_examples():
    flag = Flag.standard(3)
    assert np.allclose(project(flag, 0), np.zeros((3, 3)))
    assert np.allclose(project(flag, 3), np.eye(3))
    assert np.allclose(project(flag, 2), np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(InputError):
        project(Flag.standard(4, dims=[2, 4]), 3)
    p = project(random_flag(np.random.default_rng(1), 5), 2)
    assert frob(p @ p - p) < 1e-12 and frob(p - dagger(p)) < 1e-12
    assert np.linalg.matrix_rank(p) == 2


def test_truncations_maximal_flag_are_entry_masks():
    rng = np.random.default_rng(2)
    x = crandn(rng, 5, 5)
    part = Partition.maximal(Flag.standard(5))
    assert np.array_equal(truncate_diag(part, x), np.diag(np.diag(x)))
    assert np.array_equal(truncate_upper(part, x), np.triu(x, 1))
    assert np.array_equal(truncate_lower(part, x), np.tril(x, -1))


def test_truncations_single_block():
    rng = np.random.default_rng(3)
    x = crandn(rng, 4, 4)
    part = Partition(Flag.standard(4), [4])
    assert np.array_equal(truncate_diag(part, x), x)
    assert frob(truncate_upper(part, x)) == 0.0
    assert frob(truncate_lower(part, x)) == 0.0


def _projector_sum_oracle(part, x, which):
    # direct evaluation of the defining projector sums
    flag = part.flag
    bounds = part.bounds
    out = np.zeros_like(x)
    for i in range(1, len(bounds)):
        p_prev = project(flag, bounds[i - 1]) if bounds[i - 1] else np.zeros_like(x)
        dp = project(flag, bounds[i]) - p_prev
        if which == "diag":
            out += dp @ x @ dp
        elif which == "upper":
            out += p_prev @ x @ dp
        else:
            out += dp @ x @ p_prev
    return out


def test_truncations_match_projector_sum_oracle():
    rng = np.random.default_rng(4)
    flag = random_flag(rng, 6, dims=[2, 4, 6])
    part = Partition(flag, [2, 4, 6])
    x = crandn(rng, 6, 6)
    for which, op in (("diag", truncate_diag), ("upper", truncate_upper),
                      ("lower", truncate_lower)):
        assert frob(op(part, x) - _projector_sum_oracle(part, x, which)) < 1e-12


def _truncate_cli(flag, x, tmp_path):
    """`opideal truncate --flag`: exit 1 with an input-error, re-raised here."""
    save_matrix(tmp_path / "x.json", x)
    save_flag(tmp_path / "f.json", flag)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["truncate", "--matrix", str(tmp_path / "x.json"),
                     "--flag", str(tmp_path / "f.json")])
    err = json.loads(out.getvalue())["error"]
    assert code == 1 and err["code"] == "input-error"
    raise InputError(err["message"])


def _iwasawa_x0_of_flag(flag, x, tmp_path):
    # a regular element whose eigenflag is the given flag
    w = flag.basis
    iwasawa_decompose(x, w @ np.diag(np.arange(flag.n, 0, -1.0)) @ dagger(w))


_MISMATCH_ENTRY_POINTS = {
    "truncate_diag": lambda flag, x, _: truncate_diag(Partition.maximal(flag), x),
    "truncate_upper": lambda flag, x, _: truncate_upper(Partition.maximal(flag), x),
    "truncate_lower": lambda flag, x, _: truncate_lower(Partition.maximal(flag), x),
    "triangular_integral": lambda flag, x, _: triangular_integral(flag, x),
    "is_in_nest_algebra": lambda flag, x, _: is_in_nest_algebra(x, flag),
    "ldl_nest": lambda flag, x, _: ldl_nest(x, Partition.maximal(flag)),
    "qb_nest": lambda flag, x, _: qb_nest(x, flag),
    "iwasawa_decompose": _iwasawa_x0_of_flag,
    "cli-truncate-flag": _truncate_cli,
}


@pytest.mark.parametrize("standard", [True, False], ids=["standard", "rotated"])
@pytest.mark.parametrize("entry", sorted(_MISMATCH_ENTRY_POINTS))
def test_truncation_dimension_mismatch(entry, standard, tmp_path):
    flag = Flag.standard(3) if standard else random_flag(np.random.default_rng(8), 3)
    with pytest.raises(InputError) as err:
        _MISMATCH_ENTRY_POINTS[entry](flag, np.eye(4), tmp_path)
    assert str(err.value) == "matrix dimension 4 does not match flag n=3"


def test_identity_basis_needs_no_unitarity_product(monkeypatch):
    calls = []

    def counting(u):
        calls.append(u.shape[0])
        return is_unitary(u)

    monkeypatch.setattr(nest, "is_unitary", counting)
    for n in (1, 2, 8, 128):
        assert Flag.standard(n).is_standard
        assert regular_eigenflag(np.diag(np.arange(n, 0, -1.0))).is_standard
    assert calls == []
    assert not random_flag(np.random.default_rng(10), 5).is_standard
    assert calls == [5]


def test_triangular_integral_adjoint_relations():
    rng = np.random.default_rng(5)
    flag = random_flag(rng, 5)
    h = crandn(rng, 5, 5)
    h = h + dagger(h)
    low, dia, upp = triangular_integral(flag, h)
    assert frob(low - dagger(upp)) < 1e-12
    assert frob(dia - dagger(dia)) < 1e-12

    x = crandn(rng, 5, 5)
    lx, dx, ux = triangular_integral(flag, x)
    ls, ds, us = triangular_integral(flag, dagger(x))
    assert frob(ls - dagger(ux)) < 1e-12
    assert frob(ds - dagger(dx)) < 1e-12
    assert frob(lx + dx + ux - x) < 1e-12


def test_triangular_integral_diagonal_case():
    flag = Flag.standard(4)
    d = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    low, dia, upp = triangular_integral(flag, d)
    assert frob(low) == 0.0 and frob(upp) == 0.0 and np.array_equal(dia, d)


def test_triangular_integral_equals_finest_truncation(monkeypatch):
    rng = np.random.default_rng(6)
    flag = random_flag(rng, 6)
    part = Partition.maximal(flag)
    x = crandn(rng, 6, 6)
    rotations = []
    to_adapted = Flag.to_adapted

    def counting(self, y):
        rotations.append(1)
        return to_adapted(self, y)

    monkeypatch.setattr(Flag, "to_adapted", counting)
    low, dia, upp = triangular_integral(flag, x)
    assert len(rotations) == 1
    assert low.tobytes() == truncate_lower(part, x).tobytes()
    assert dia.tobytes() == truncate_diag(part, x).tobytes()
    assert upp.tobytes() == truncate_upper(part, x).tobytes()


def test_split_is_the_three_truncations_from_one_rotation(op_counts):
    rng = np.random.default_rng(11)
    flag = random_flag(rng, 6, dims=[1, 3, 4, 6])
    part = Partition(flag, [3, 6])
    x = crandn(rng, 6, 6)
    op_counts.clear()
    low, dia, upp = nest.split(part, x)
    assert dict(op_counts) == {"in": 1, "out": 3}
    assert low.tobytes() == truncate_lower(part, x).tobytes()
    assert dia.tobytes() == truncate_diag(part, x).tobytes()
    assert upp.tobytes() == truncate_upper(part, x).tobytes()
    with pytest.raises(InputError, match="does not match flag n=6"):
        nest.split(part, np.eye(4))


def test_truncation_algebra_properties():
    rng = np.random.default_rng(7)
    for trial in range(50):
        flag = random_flag(rng, 8) if trial % 2 else Flag.standard(8)
        cuts = sorted(set(rng.choice(range(1, 8), rng.integers(0, 4),
                                     replace=False).tolist()) | {8})
        part = Partition(flag, cuts)
        x = crandn(rng, 8, 8)
        parts = {"d": truncate_diag(part, x), "u": truncate_upper(part, x),
                 "l": truncate_lower(part, x)}
        assert frob(sum(parts.values()) - x) < 1e-12
        ops = {"d": truncate_diag, "u": truncate_upper, "l": truncate_lower}
        for a in "dul":
            assert frob(ops[a](part, parts[a]) - parts[a]) < 1e-12   # idempotent
            for b in "dul":
                if a != b:
                    assert frob(ops[a](part, parts[b])) < 1e-12      # annihilate


def test_refinement_identities():
    rng = np.random.default_rng(8)
    flag = random_flag(rng, 8)
    x = crandn(rng, 8, 8)
    q = Partition(flag, [2, 4, 6, 8])
    p = Partition(flag, [4, 8])
    report = refinement_identities_check(p, q, x)
    assert max(report.values()) < 1e-12
    same = refinement_identities_check(q, q, x)
    assert max(same.values()) < 1e-12
    coarse = Partition(flag, [8])
    rep2 = refinement_identities_check(coarse, q, x)
    assert max(rep2.values()) < 1e-12
    with pytest.raises(InputError):
        refinement_identities_check(q, p, x)      # q is not a subchain of p


def test_refinement_identities_exhaustive_n8():
    # every nested pair of partitions of a random maximal flag: each inner
    # cut is absent, in the finer chain only, or in both
    rng = np.random.default_rng(9)
    flag = random_flag(rng, 8)
    x = crandn(rng, 8, 8)
    import itertools
    inner = [1, 2, 3, 4, 5, 6, 7]
    worst = 0.0
    for assignment in itertools.product((0, 1, 2), repeat=len(inner)):
        qcuts = [c for c, a in zip(inner, assignment) if a >= 1]
        pcuts = [c for c, a in zip(inner, assignment) if a == 2]
        q = Partition(flag, qcuts + [8])
        p = Partition(flag, pcuts + [8])
        report = refinement_identities_check(p, q, x)
        worst = max(worst, max(report.values()))
    assert worst < 1e-12


def test_nest_algebra_predicate():
    flag = Flag.standard(4)
    upper = np.triu(np.ones((4, 4)))
    assert is_in_nest_algebra(upper, flag)
    lower = np.zeros((4, 4))
    lower[2, 0] = 1.0
    assert not is_in_nest_algebra(lower, flag)

    block_flag = Flag.standard(5, dims=[2, 5])
    b = np.zeros((5, 5))
    b[:2, :] = 1.0
    b[2:, 2:] = 1.0            # block upper for cuts {2, 5}
    b[3, 0] = 0.5              # off-pattern entry below the cut
    assert not is_in_nest_algebra(b, block_flag)
    b[3, 0] = 0.0
    assert is_in_nest_algebra(b, block_flag)
    assert not is_in_nest_algebra(np.tril(np.ones((5, 5)), -1) + b,
                                  Flag.standard(5))


def test_nest_algebra_matches_per_cut_oracle():
    rng = np.random.default_rng(23)
    n = 8
    flags = [Flag.standard(n), random_flag(rng, n),
             Flag.standard(n, dims=[3, 5, 8]), random_flag(rng, n, dims=[2, 6, 8])]
    for flag in flags:
        for tol in (1e-12, 1e-9):
            for _ in range(5):
                upper = triangular_integral(flag, crandn(rng, n, n))[2] \
                    + np.diag(rng.uniform(1, 2, n))
                lower = triangular_integral(flag, crandn(rng, n, n))[0]
                for eps in (0.0, 1e-15, 1e-11, 1e-6, 1e-2):
                    for b in (upper + eps * lower, lower + eps * upper,
                              upper + eps * crandn(rng, n, n)):
                        assert is_in_nest_algebra(b, flag, tol) == \
                            nest_membership_per_cut(b, flag, tol)


def test_nest_algebra_checks_cuts_when_frobenius_bound_is_loose():
    # Every per-cut residual is 0.8 tol while the whole lower part has
    # Frobenius norm above tol, so only the cut-by-cut test can accept.
    tol, n = 1e-9, 8
    rng = np.random.default_rng(5)
    for flag in (Flag.standard(n), random_flag(rng, n)):
        y = np.triu(np.ones((n, n))) + 0.2 * tol * np.tril(np.ones((n, n)), -1)
        b = flag.basis @ y @ dagger(flag.basis)
        assert frob(truncate_lower(Partition.maximal(flag), b)) > tol
        assert is_in_nest_algebra(b, flag, tol)
        assert nest_membership_per_cut(b, flag, tol)
        assert not is_in_nest_algebra(b, flag, 0.5 * tol)


def test_experiment_contracts_for_frobenius_gauge():
    rows = truncation_norm_experiment(SymNormFunc.schatten(2), [1, 4, 8],
                                      trials=12, seed=3)
    assert rows[0][1] == 0.0                       # n = 1 has no upper part
    for _, ratio in rows[1:]:
        assert ratio <= 1.0 + 1e-12


def test_experiment_trace_gauge_trend_is_monotone():
    rows = truncation_norm_experiment(SymNormFunc.schatten(1),
                                      [4, 8, 16, 32, 64], trials=60, seed=7)
    ratios = [r for _, r in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


def test_experiment_holds_one_trial_at_a_time():
    # a size's 200 trials stacked for one batched SVD would hold about 50 MB
    tracemalloc.start()
    try:
        truncation_norm_experiment(SymNormFunc.schatten(1), [4, 8, 16, 32, 64], 200, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_experiment_caps_are_checked_before_any_trial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial ran")

    phi = SymNormFunc.schatten(1)
    with monkeypatch.context() as patch:
        patch.setattr(nest, "_trial_ratio", refuse)
        for trials in (MAX_EXPERIMENT_TRIALS + 1, 10 ** 12):
            with pytest.raises(InputError, match=f"trials {trials} exceed the limit 1000"):
                truncation_norm_experiment(phi, [2], trials=trials, seed=1)
        for n in (MAX_EXPERIMENT_DIM + 1, 10 ** 12):
            with pytest.raises(InputError, match=f"size {n} exceeds the limit 256"):
                truncation_norm_experiment(phi, [2, n, 4], trials=1, seed=1)
        with pytest.raises(InputError, match="over the limit 1000 x 256"):
            truncation_norm_experiment(phi, [256, 256], MAX_EXPERIMENT_TRIALS, 1)
        with pytest.raises(InputError, match="257 sizes exceed the limit 256"):
            truncation_norm_experiment(phi, [1] * 257, 1, 1)
    with monkeypatch.context() as patch:
        patch.setattr(nest, "_trial_ratio", lambda *args: 0.0)
        assert truncation_norm_experiment(
            phi, [MAX_EXPERIMENT_DIM], MAX_EXPERIMENT_TRIALS, 1) == [(256, 0.0)]
        assert len(truncation_norm_experiment(phi, [1] * 256, MAX_EXPERIMENT_TRIALS, 1)) == 256
    assert len(truncation_norm_experiment(phi, [1], MAX_EXPERIMENT_TRIALS, 1)) == 1
    assert truncation_norm_experiment(phi, [MAX_EXPERIMENT_DIM], 1, 1)[0][0] == 256


def test_experiment_deterministic():
    phi = SymNormFunc.schatten(1)
    a = truncation_norm_experiment(phi, [4, 8], trials=9, seed=5)
    b = truncation_norm_experiment(phi, [4, 8], trials=9, seed=5)
    assert a == b
    with pytest.raises(InputError):
        truncation_norm_experiment(phi, [4], trials=0, seed=5)
