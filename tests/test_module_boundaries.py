"""Each module of the package keeps its private names to itself: no module
imports or reads another module's ``_name``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opideal"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def foreign_private_reads(source, filename="<module>"):
    """(line, name) of every private name the source takes from a sibling module."""
    tree = ast.parse(source, filename=filename)
    modules = set()      # local names bound to package modules
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "opideal"
            if not package:
                continue
            from_package = node.module in (None, "opideal")
            for alias in node.names:
                if _is_private(alias.name):
                    hits.append((node.lineno, alias.name))
                elif from_package and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "opideal":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            owner = _dotted(node.value)
            if owner is not None and (owner in modules or owner.startswith("opideal.")):
                hits.append((node.lineno, f"{owner}.{node.attr}"))
    return sorted(hits)


def test_no_module_reads_another_modules_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    stray = [(path.name,) + hit for path in sources
             for hit in foreign_private_reads(path.read_text(), str(path))]
    assert stray == [], f"private names read across modules: {stray}"


def test_guard_sees_each_form_of_access():
    source = "\n".join([
        "import opideal.nest",
        "import opideal.utils as u",
        "from . import classical",
        "from opideal import symfunc as sf",
        "from .factor import _trailing_elimination",
        "classical._eigh_fun(x, f)",
        "sf._gauge_raw(phi, v)",
        "opideal.nest._truncate(p, x, 'diag')",
        "u._private",
        "classical.__all__, classical.cartan_decompose, self._slot",
    ])
    assert [name for _, name in foreign_private_reads(source)] == [
        "_trailing_elimination", "classical._eigh_fun", "sf._gauge_raw",
        "opideal.nest._truncate", "u._private"]


def test_cli_leaves_the_array_format_to_serialize():
    """Reports carry arrays; ``serialize`` alone decides their JSON form."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    assert not names & {"matrix_to_obj", "complex_to_pairs"}
