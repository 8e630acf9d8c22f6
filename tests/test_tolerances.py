"""The tolerance policy lives in one module, and its shared predicates
decide alike wherever they are used."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from opideal import (Flag, InputError, StructureData, UnitaryRep, cyclic_group,
                     validate_structure)
from opideal.utils import UNITARY_TOL, is_singular, is_unitary

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
