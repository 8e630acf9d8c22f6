"""The tolerance policy lives in one module, and its shared predicates
decide alike wherever they are used."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from opideal import (DomainError, Flag, InputError, Partition, StructureData, UnitaryRep,
                     cartan_decompose, cyclic_group, ldl_nest, qb_nest, singular_values, utils,
                     validate_structure)
from opideal.utils import (HERMITIAN_TOL, PD_THRESHOLD, SINGULAR_CLIP, UNITARY_TOL, cond2,
                           crandn, dagger, frob, is_hermitian, is_singular, is_unitary,
                           pow2_scaled, solve, svd)
from oracles import frobenius_norm_decimal, pow2_scaled_by_parts

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opideal"


def _small_float_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(path.name, node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-6]


def test_thresholds_are_defined_only_in_utils():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    stray = [hit for path in sources if path.name != "utils.py"
             for hit in _small_float_literals(path)]
    assert stray == [], f"tolerance literals outside utils.py: {stray}"


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_unitarity_bound_is_shared(factor, accepted):
    # u* u - 1 = diag(r, 0, 0, 0) with r the given multiple of the bound;
    # u is also an involution up to the same residual, so as the image of
    # the generator of Z2 only its unitarity is in question.
    n = 4
    r = factor * UNITARY_TOL * np.sqrt(n)
    u = np.diag([-np.sqrt(1.0 + r), 1.0, 1.0, 1.0]).astype(complex)
    checks = [
        (lambda: Flag(u, range(1, n + 1)), "flag basis is not unitary"),
        (lambda: UnitaryRep(cyclic_group(2), [np.eye(n), u]),
         "matrix for element 1 is not unitary"),
        (lambda: validate_structure("AI", StructureData(n=n, c_conj=u)),
         "c_conj must be unitary"),
    ]
    for build, message in checks:
        if accepted:
            build()
        else:
            with pytest.raises(InputError, match=message):
                build()


@pytest.mark.parametrize("factor, clipped", [(0.5, True), (2.0, False)])
def test_singular_values_clip_below_the_relative_threshold(factor, clipped):
    # a singular value of half (twice) SINGULAR_CLIP times the largest
    small = factor * SINGULAR_CLIP
    s = singular_values(np.diag([1.0, small]))
    assert (s[0], s[1]) == (1.0, 0.0 if clipped else small)


@pytest.mark.parametrize("factor, refused", [(0.5, True), (2.0, False)])
def test_positive_definite_margin_is_relative_to_the_largest_eigenvalue(factor, refused):
    # a smallest eigenvalue of half (twice) PD_THRESHOLD times the largest
    a = np.diag([1.0, factor * PD_THRESHOLD])
    part = Partition.maximal(Flag.standard(2))
    if refused:
        with pytest.raises(DomainError, match="a is not positive definite"):
            ldl_nest(a, part)
    else:
        factors = ldl_nest(a, part)
        assert np.array_equal(factors.d, a) and not factors.r.any()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_predicates_reject_nan_residuals():
    # u* u overflows to inf - inf = nan; a nan residual or condition number
    # passes no bound
    u = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
    assert not is_unitary(u)
    with pytest.raises(InputError, match="not unitary"):
        Flag(u, [1, 2])
    assert is_singular(float("nan")) and is_singular(float("inf"))
    assert not is_singular(1e12)


@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
def test_hermitian_test_is_relative(k):
    # an asymmetry of half (twice) the tolerance, at every scale
    for factor, accepted in ((0.5, True), (2.0, False)):
        a = np.array([[1.0, factor * HERMITIAN_TOL], [0.0, 1.0]])
        assert is_hermitian(np.ldexp(a, k)) is accepted
    assert not is_hermitian(np.ldexp(np.array([[1.0, 0.0], [1.0, 1.0]]), k))
    assert is_hermitian(np.zeros((2, 2)))


def test_frobenius_norm_is_exact_under_power_of_two_scaling():
    a = np.array([[3.0, 1.0 + 1.0j], [0.5, -2.0j]])

    def scaled(k):
        return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)

    for k in (-1070, -600, -540, 0, 500, 600, 1020):
        assert frob(scaled(k)) == np.ldexp(frob(a), k)
    assert frob(np.diag([1e300, 1e300])) == np.sqrt(2.0) * 1e300
    assert frob(np.array([[5e-324]])) == 5e-324
    assert frob(np.zeros((3, 3))) == 0.0 and frob(np.zeros((0, 2))) == 0.0
    with np.errstate(over="raise"):     # as under the command line
        assert frob(scaled(1000)) == np.ldexp(frob(a), 1000)
    with warnings.catch_warnings():     # the norm itself is past the range: named, no warning
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^the Frobenius norm lies outside the double range$"):
            frob(np.full((2, 2), 1e308))


def test_frobenius_norm_of_zero_and_subnormal_matrices():
    for shape in ((256, 256), (3, 3), (0, 2)):
        assert frob(np.zeros(shape, complex)) == 0.0
    assert frob(np.array([[-0.0, 0.0j]])) == 0.0
    assert frob(np.array([[5e-324]])) == 5e-324


def test_frobenius_norm_at_the_edge_of_the_square_root_of_the_range():
    # norms near 1e-152, so the squares of parts e^-12 below the largest are
    # subnormal: still exact under 2^k scaling, and within 2 ulp of the
    # exact norm rounded once
    rng = np.random.default_rng(0)
    for _ in range(400):
        a = crandn(rng, 4, 4) * np.exp(rng.uniform(-12.0, 0.0, (4, 4)))
        a *= 1e-152 / np.linalg.norm(a)
        r = frob(a)
        for k in (-20, 300, 600):
            assert frob(_times_pow2(a, k)) == np.ldexp(r, k)
        exact = frobenius_norm_decimal(a)
        assert abs(r - exact) <= 2 * np.spacing(exact)


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return (x.shape == y.shape and x.dtype == y.dtype
            and np.array_equal(x.view(float), y.view(float))
            and np.array_equal(np.signbit(x.view(float)), np.signbit(y.view(float))))


def _times_pow2(a, k):
    """a times 2^k part by part, each signed zero kept: one rounded product,
    as 2^k is a double for k in [-1074, 1023], and above that two exact ones."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    if k > 1023:
        parts, k = parts * np.ldexp(1.0, 1023), k - 1023
    return (parts * np.ldexp(1.0, k)).view(complex)


def _signed_zero_matrices(rng, count, square=False):
    """Random complex matrices with 0.0 entries and -0.0 parts, scaled by 2^k
    across the double range, up to 5 x 5."""
    for _ in range(count):
        n = rng.integers(1, 6, 1 if square else 2)
        shape = (int(n[0]),) * 2 if square else tuple(int(s) for s in n)
        x = crandn(rng, *shape)
        x.real[rng.random(shape) < 0.2] = -0.0
        x.imag[rng.random(shape) < 0.2] = -0.0
        x[rng.random(shape) < 0.1] = 0.0
        with np.errstate(under="ignore", over="ignore"):
            x = _times_pow2(x, int(rng.integers(-1074, 1024)))
        if np.all(np.isfinite(x)):
            yield x


def test_power_of_two_prescale_scales_each_part_and_keeps_its_sign():
    # every bit of every part, signed zeros included: each part times 2^-e
    # on its own, e the exponent of the largest part; real, transposed and
    # strided input too
    rng = np.random.default_rng(84)
    for x in _signed_zero_matrices(rng, 1000):
        for a in (x, x.real, x.T, x[:, ::2]):
            (got, e), e0 = pow2_scaled(a), pow2_scaled_by_parts(a)[1]
            assert e == e0 and _same_bits(got, _times_pow2(a, -e))


def _prescaled_results(x, b):
    """(results that a zero's sign cannot move, results that LAPACK may round
    otherwise when it reads one, singular vectors) of x's prescaled routes."""
    w, s, vh = svd(x, vectors=True)
    try:
        qb, cf = qb_nest(x, Flag.standard(x.shape[0])), cartan_decompose(x, "A")
    except DomainError as exc:   # singular: both prescales must say so alike
        return [np.float64(frob(x)), str(exc)], [s, np.float64(cond2(x))], [w, vh]
    return ([np.float64(frob(x)), solve(x, b), qb.u, qb.b],
            [s, np.float64(cond2(x)), np.float64(qb.condition_number), cf.k, cf.x, cf.p],
            [w, vh])


def test_the_sum_formula_prescale_moves_only_what_reads_a_zeros_sign(monkeypatch):
    # the sum ldexp(re) + 1j * ldexp(im) of the earlier prescale gave a -0.0
    # part +0.0, save a real one beside a negative imaginary part.  Norms,
    # solves and qb_nest's factors keep every bit; LAPACK's SVD reads a zero's
    # sign in its Householder steps, so where the two prescales differ in
    # one, singular values, condition numbers and the polar split (not the
    # phases of singular vectors) agree to rounding, and elsewhere in every bit
    rng = np.random.default_rng(86)
    cases = [(x, _times_pow2(crandn(rng, x.shape[0], 2), pow2_scaled_by_parts(x)[1]))
             for x in _signed_zero_matrices(rng, 300, square=True)]
    want = [_prescaled_results(x, b) for x, b in cases]
    monkeypatch.setattr(utils, "pow2_scaled", pow2_scaled_by_parts)
    for (x, b), (exact, rounded, vectors) in zip(cases, want):
        got_exact, got_rounded, got_vectors = _prescaled_results(x, b)
        assert len(got_exact) == len(exact) and len(got_rounded) == len(rounded)
        assert all(g == r if isinstance(r, str) else _same_bits(g, r)
                   for g, r in zip(got_exact, exact))
        if _same_bits(pow2_scaled(x)[0], pow2_scaled_by_parts(x)[0]):
            assert all(map(_same_bits, got_rounded + got_vectors, rounded + vectors))
        else:
            assert all(_same_bits(g, r) or frob(g - r) <= 32 * np.finfo(float).eps * frob(r)
                       for g, r in zip(got_rounded, rounded))


def test_each_side_of_a_system_divided_by_its_own_power_of_two_keeps_every_bit():
    # solve(2^k d, 2^j b) is 2^(j - k) times the solution of d z = b in every
    # bit, the -0.0 parts of d and b kept, wherever that solution is normal:
    # each side is divided by its own power of 2, so neither is pushed past
    # the range; a subnormal d with exact parts solves alike
    rng = np.random.default_rng(85)
    d, b = crandn(rng, 3, 3), crandn(rng, 3, 2)
    d[0, 1], b[1, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    z = np.linalg.solve(d, b)
    exponents = np.frexp(z.view(float)[z.view(float) != 0.0])[1]
    solved = 0
    for k in (-1000, 0, 700):
        for j in (-1000, 0, 700):
            if exponents.min() + j - k >= -1021 and exponents.max() + j - k <= 1024:
                got = solve(_times_pow2(d, k), _times_pow2(b, j))
                assert _same_bits(got, _times_pow2(z, j - k))
                solved += 1
    assert solved == 7
    d, b = _times_pow2([[3.0, 1.0], [1.0, 2.0]], 0), _times_pow2([[1.0, 5.0], [2.0, -0.0]], 0)
    assert _same_bits(solve(_times_pow2(d, -1070), _times_pow2(b, -1070)), np.linalg.solve(d, b))


def test_condition_number_is_exact_under_power_of_two_scaling():
    # LAPACK rescales a matrix far from norm 1 by a factor that is not a power
    # of 2; cond2 hands it the matrix brought near 1 by one that is
    rng = np.random.default_rng(83)
    for _ in range(200):
        x = crandn(rng, 4, 4)
        a = x @ dagger(x) + np.eye(4)
        c = cond2(a)
        for k in (-600, -300, 300, 600):
            assert cond2(np.ldexp(1.0, k) * a) == c
    # no largest entry to scale by, and no smallest singular value to divide by
    assert cond2(np.zeros((3, 3))) == cond2(np.zeros((0, 0))) == np.inf


def _module_constants(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = [t for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def test_readme_names_every_utils_constant():
    names = _module_constants(PACKAGE / "utils.py")
    assert "COND_LIMIT" in names and "MAX_GROUP_ORDER" in names
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    missing = [name for name in names if not re.search(rf"`{name}\b", readme)]
    assert missing == [], f"utils constants missing from README.md: {missing}"


def _readme_table_constants(readme):
    """Backticked names in the first column of every table under "## Tolerances"."""
    section = readme.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_readme_tolerance_rows_name_only_utils_constants():
    names = _module_constants(PACKAGE / "utils.py")
    listed = _readme_table_constants((PACKAGE.parents[1] / "README.md").read_text())
    assert "COND_LIMIT" in listed and "MAX_GROUP_ORDER" in listed
    stale = [name for name in listed if name not in names]
    assert stale == [], f"README.md rows for constants not in utils: {stale}"


def test_readme_gives_each_constant_its_value():
    # the documented value is the value: a threshold moved in utils alone fails here
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
    assert [name for name, _ in rows] == _readme_table_constants(readme)
    for name, cell in rows:
        power = re.search(r"\(2\^(\d+) bytes\)", cell)
        assert getattr(utils, name) == (2 ** int(power.group(1)) if power else float(cell)), name


def _unread_constants(package):
    reads = {node.id if isinstance(node, ast.Name) else node.attr
             for path in package.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [name for name in _module_constants(package / "utils.py") if name not in reads]


def test_every_utils_constant_is_read_in_the_package(tmp_path):
    assert _unread_constants(PACKAGE) == []
    # a constant that only its own definition names is stale
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "utils.py", "a") as fh:
        fh.write("STALE_TOL = 1e-9\n")
    assert _unread_constants(tmp_path) == ["STALE_TOL"]
