"""The tolerance policy lives in one module, and its shared predicates
decide alike wherever they are used."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from opideal import (Flag, InputError, StructureData, UnitaryRep, cyclic_group,
                     validate_structure)
from opideal.utils import (HERMITIAN_TOL, UNITARY_TOL, cond2, crandn, dagger, frob,
                           is_hermitian, is_singular, is_unitary, pow2_divided,
                           pow2_scaled, solve)
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
        with pytest.raises(FloatingPointError):     # the norm itself is past the range
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
    """a times 2^k part by part, each signed zero kept."""
    return (np.ascontiguousarray(a).view(float) * np.ldexp(1.0, k)).view(complex)


def test_power_of_two_prescale_equals_the_part_by_part_sum():
    # every bit of every part, signed zeros included, on random matrices with
    # zero and -0.0 parts scaled by 2^k across the double range; real,
    # transposed and strided input too
    rng = np.random.default_rng(84)
    for _ in range(1000):
        shape = tuple(int(s) for s in rng.integers(1, 6, 2))
        x = crandn(rng, *shape)
        x.real[rng.random(shape) < 0.2] = -0.0
        x.imag[rng.random(shape) < 0.2] = -0.0
        x[rng.random(shape) < 0.1] = 0.0
        with np.errstate(under="ignore", over="ignore"):
            x = _times_pow2(x, int(rng.integers(-1074, 1024)))
        if not np.all(np.isfinite(x)):
            continue
        for a in (x, x.real, x.T, x[:, ::2]):
            (got, e), (want, e0) = pow2_scaled(a), pow2_scaled_by_parts(a)
            assert e == e0 and _same_bits(got, want)


def test_a_system_divided_by_its_power_of_two_keeps_every_bit():
    # d, b and the solution of d z = b, all times 2^(k - e) exactly, with
    # the -0.0 parts of d and b kept, and utils.solve's bits at every k; a
    # subnormal d is brought to [1/2, 1)
    rng = np.random.default_rng(85)
    d, b = crandn(rng, 3, 3), crandn(rng, 3, 2)
    d[0, 1], b[1, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    e = pow2_scaled(d)[1]
    for k in (-1000, 0, 700):
        ds, bs = pow2_divided(_times_pow2(d, k), _times_pow2(b, k))
        assert _same_bits(ds, _times_pow2(d, -e)) and _same_bits(bs, _times_pow2(b, -e))
        assert _same_bits(np.linalg.solve(ds, bs), np.linalg.solve(d, b))
        assert _same_bits(solve(_times_pow2(d, k), _times_pow2(b, k)), np.linalg.solve(d, b))
    assert pow2_divided(np.array([[1e-310]]))[0][0, 0] == np.ldexp(1e-310, 1029)


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
