"""Each module of the package keeps its private names to itself: no module
imports or reads another module's ``_name``.  A process runs only the
modules it reads: ``import opideal`` runs none, a help or usage error
only cli and errors, with no numpy, and each subcommand the modules of
its own layer."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "opideal"
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


# The calls only utils makes: the power-of-2 prescale, and the dense SVD and
# solve run on it
_UTILS_CALLS = {"numpy.frexp", "numpy.ldexp", "math.frexp", "math.ldexp", "numpy.linalg.svd",
                "numpy.linalg.solve", "numpy.linalg.inv"}


def power_of_two_calls(source, filename="<module>"):
    """(line, name) of every call the source makes to numpy's or math's
    ``frexp`` or ``ldexp``, or to ``numpy.linalg``'s ``svd``, ``solve`` or
    ``inv``, by module attribute or by imported name."""
    tree = ast.parse(source, filename=filename)
    modules, functions = {}, set()   # local names bound to the modules, to the functions
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("numpy", "math", "numpy.linalg"):
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    modules[alias.asname or bound] = bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full == "numpy.linalg":
                    modules[alias.asname or alias.name] = full
                elif full in _UTILS_CALLS:
                    functions.add(alias.asname or alias.name)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            head, _, rest = name.partition(".")
            if name in functions or head in modules and f"{modules[head]}.{rest}" in _UTILS_CALLS:
                hits.append((node.lineno, name))
    return sorted(hits)


def test_only_utils_rescales_by_powers_of_two():
    """Every power-of-2 prescale is ``utils.pow2_scaled``, every dense SVD is
    ``utils.svd`` of it, and every dense solve or inverse is ``utils.solve``
    of the system divided by it: no other module calls ``frexp``, ``ldexp``
    or ``numpy.linalg``'s ``svd``, ``solve`` or ``inv``."""
    assert power_of_two_calls((PACKAGE / "utils.py").read_text())    # the guard can fire
    stray = [(path.name,) + hit for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "utils"
             for hit in power_of_two_calls(path.read_text(), str(path))]
    assert stray == [], f"frexp/ldexp/svd/solve/inv called outside utils: {stray}"


def test_readme_names_only_attributes_of_the_modules_it_names():
    """Every backticked ``<module>.<name>`` in README.md, for a module of the
    package (not a file name such as ``cli.py``), is an attribute of it."""
    readme = (ROOT / "README.md").read_text()
    named = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", readme)
             if module in MODULES and name != "py"}
    assert len(named) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"opideal.{module}"), name)]
    assert missing == [], f"README.md names what its module does not have: {missing}"


def test_power_of_two_guard_sees_each_form_of_call():
    source = "\n".join([
        "import math",
        "import numpy as np",
        "import numpy as xp",
        "import numpy.linalg",
        "import numpy.linalg as la",
        "from numpy import ldexp as scale",
        "from numpy import linalg",
        "from numpy.linalg import svd as dense_svd",
        "from numpy.linalg import inv",
        "from math import frexp",
        "from .utils import solve, svd",
        "np.frexp(x)",
        "xp.ldexp(x, e)",
        "math.frexp(t)",
        "scale(x, -e)",
        "frexp(t)",
        "np.linalg.svd(x)",
        "xp.linalg.svd(x, compute_uv=False)",
        "numpy.linalg.svd(x)",
        "la.svd(x)",
        "linalg.svd(x)",
        "dense_svd(x)",
        "np.linalg.solve(x)",
        "inv(x)",
        "la.solve(x)",
        "np.linalg.norm(x), math.exp(t), self.frexp(t), frexp, np.ldexp",
        "svd(x), la.eigh(x), np.linalg.svd, self.linalg.svd(x)",
        "solve(d, b), np.linalg.inv, la.lstsq(x, b), self.solve(x)",
    ])
    assert [name for _, name in power_of_two_calls(source)] == [
        "np.frexp", "xp.ldexp", "math.frexp", "scale", "frexp", "np.linalg.svd",
        "xp.linalg.svd", "numpy.linalg.svd", "la.svd", "linalg.svd", "dense_svd",
        "np.linalg.solve", "inv", "la.solve"]


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


def _run_at_import(tree):
    """The nodes of a module that run when it is imported: all but the
    bodies of its functions and lambdas."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _loads_numpy(module):
    """Whether importing the package module imports numpy, itself or
    through a ``from .<module> import`` of another."""
    for node in _run_at_import(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "numpy" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 0 and node.module.split(".")[0] == "numpy"
                or node.level == 1 and _loads_numpy(node.module)):
            return True
    return False


def import_graph(sources):
    """Each module's module-level relative imports of the other modules given,
    from their sources by module name."""
    graph = {}
    for name, source in sources.items():
        imported = set()
        for node in _run_at_import(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    imported.add(node.module.split(".")[0])
                else:
                    imported.update(alias.name for alias in node.names)
        graph[name] = imported & set(sources)
    return graph


def import_order(graph):
    """The modules, each after every module it imports, alphabetical within a
    layer; a ValueError naming the modules left when their imports cycle."""
    order = []
    while len(order) < len(graph):
        ready = sorted(m for m in graph if m not in order and graph[m] <= set(order))
        if not ready:
            raise ValueError(f"import cycle among {sorted(set(graph) - set(order))}")
        order += ready
    return order


def test_module_level_imports_are_acyclic():
    """A module's import-time code never waits on a module that waits on it:
    the package's one lock and plain per-module import locks rely on this.
    ``__init__`` imports none of the modules."""
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")
               if path.stem != "__init__"}
    graph = import_graph(sources)
    assert graph["factor"] == {"errors", "nest", "utils"}    # the guard reads imports
    order = import_order(graph)
    assert order[-1] == "cli" and set(order) == set(sources)


def test_import_guard_finds_a_cycle():
    graph = import_graph({"a": "from .b import x", "b": "from . import c",
                          "c": "import json\nfrom . import a, CONSTANT",
                          "d": "def f():\n    from . import d"})
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    with pytest.raises(ValueError, match=r"cycle among \['a', 'b', 'c'\]"):
        import_order(graph)


def test_cli_parses_argv_before_it_loads_numpy():
    """``--help`` and usage errors exit before numpy is imported: the
    command line's handlers import it where they run."""
    assert _loads_numpy("utils") and _loads_numpy("factor")   # the guard can fire
    assert not _loads_numpy("cli")


# Runs the code after it, then writes to stderr, as one JSON line, the
# package modules whose code ran (by the audit event of each module body's
# exec), whether numpy was imported, and the package modules in sys.modules.
_PROBE = r"""
import json, os, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and args[0].co_name == "<module>"
                 and ran.append(args[0].co_filename))
try:
    {code}
finally:
    package = os.path.dirname(sys.modules["opideal"].__file__)
    sys.stderr.write(json.dumps({{
        "ran": sorted(os.path.basename(f)[:-3] for f in ran
                      if os.path.dirname(f) == package and not f.endswith("__.py")),
        "numpy": "numpy" in sys.modules,
        "registered": sorted(m for m in sys.modules if m.startswith("opideal.")),
    }}) + "\n")
"""


def _probe(code, *args):
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(code=code), *args],
                          capture_output=True, text=True, timeout=120)
    return proc, json.loads(proc.stderr.splitlines()[-1])


def test_importing_the_package_runs_no_module_and_no_numpy():
    proc, seen = _probe("import opideal")
    assert proc.returncode == 0, proc.stderr
    assert seen["ran"] == [] and not seen["numpy"]


def test_every_module_is_registered_by_the_package_import():
    proc, seen = _probe("import opideal")
    assert proc.returncode == 0, proc.stderr
    assert seen["registered"] == sorted(
        f"opideal.{m}" for m in MODULES if m not in ("__init__", "__main__"))


# The seven layer modules: the package exports every public name of each.
_LAYERS = ("amenable", "classical", "errors", "factor", "harish", "nest", "symfunc")

# Reads every name the package exports, which runs every layer module, then
# writes, as one JSON line, each layer's public classes and functions, the
# names the package exports from it, and the package's other exported names.
_PUBLIC_NAMES = r"""
import json, sys, types
import opideal


def public(namespace, module):
    return sorted(n for n, v in namespace.items() if not n.startswith("_")
                  and isinstance(v, (type, types.FunctionType)) and v.__module__ == module)


package = {n: getattr(opideal, n) for n in opideal.__all__}
seen = {layer: {"defined": public(vars(sys.modules[f"opideal.{layer}"]), f"opideal.{layer}"),
                "exported": public(package, f"opideal.{layer}")} for layer in sys.argv[1:]}
seen["others"] = sorted(set(package).difference(*(s["exported"] for s in seen.values())))
print(json.dumps(seen))
"""


def test_the_package_exports_every_public_name_of_each_layer():
    proc = subprocess.run([sys.executable, "-c", _PUBLIC_NAMES, *_LAYERS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for layer in _LAYERS:
        assert seen[layer]["exported"] == seen[layer]["defined"], layer
    assert seen["others"] == sorted(["CLASSICAL_TYPES", *_LAYERS, "utils"])
    from opideal import check_group_order, split
    assert (split.__module__, check_group_order.__module__) == ("opideal.nest",
                                                                "opideal.amenable")


def test_the_package_holds_the_only_list_of_public_names():
    for path in PACKAGE.glob("*.py"):
        stored = {node.id for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        assert ("__all__" in stored) == (path.stem == "__init__"), path.name


def test_sources_parse_as_the_oldest_python_the_package_supports():
    """pyproject.toml declares requires-python >= 3.10: no module may use
    syntax that a later version added."""
    for path in PACKAGE.glob("*.py"):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_star_import_binds_every_exported_name():
    import opideal
    namespace = {}
    exec("from opideal import *", namespace)    # reads each name of __all__
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(opideal.__all__)
    assert all(getattr(opideal, name) is value for name, value in namespace.items())


_USAGE = "help or usage error"
_ENTRY = "from opideal.__main__ import run; sys.exit(run())"

# The modules each request runs: argv is parsed by cli and errors alone,
# and a command runs utils and its layer's modules besides.
_MODULES_RUN = {
    _USAGE: {"cli", "errors"},
    "svalues": {"cli", "errors", "utils", "serialize", "symfunc"},
    "norm": {"cli", "errors", "utils", "serialize", "symfunc"},
    "dualnorm": {"cli", "errors", "utils", "serialize", "symfunc"},
    "boyd": {"cli", "errors", "utils", "serialize", "symfunc"},
    "truncate": {"cli", "errors", "utils", "serialize", "nest"},
    "integral": {"cli", "errors", "utils", "serialize", "nest"},
    "experiment": {"cli", "errors", "utils", "nest", "symfunc"},
    "ldl-nest": {"cli", "errors", "utils", "serialize", "nest", "factor"},
    "qr-nest": {"cli", "errors", "utils", "serialize", "nest", "factor"},
    "iwasawa": {"cli", "errors", "utils", "serialize", "nest", "factor", "classical"},
    "cartan": {"cli", "errors", "utils", "serialize", "classical"},
    "hc": {"cli", "errors", "utils", "serialize", "harish"},
    "mean": {"cli", "errors", "utils", "serialize", "amenable"},
    "gns": {"cli", "errors", "utils", "serialize", "amenable"},
    "arens": {"cli", "errors", "utils", "serialize", "amenable"},
}
_COMMANDS = [command for command in _MODULES_RUN if command != _USAGE]


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_subcommand_runs_only_its_layers_modules(bench_requests, command):
    (argv,) = [argv for (workload, _), argv in bench_requests.items()
               if workload == "cli-small" and argv[0] == command]
    proc, seen = _probe(_ENTRY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert set(seen["ran"]) == _MODULES_RUN[command]


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([command, "--help"] for command in _COMMANDS),
    [],
    ["bogus"],
    ["svalues", "--matrix", "m.json", "--bogus"],
    ["cartan", "--type", "Z"],
    ["boyd", "--mmax", "x"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_exit_before_numpy_is_imported(argv):
    proc, seen = _probe(_ENTRY, *argv)
    assert proc.returncode == (0 if "--help" in argv else 2), proc.stderr
    assert not seen["numpy"]
    assert set(seen["ran"]) == _MODULES_RUN[_USAGE]


def test_traced_request_records_the_command_and_its_layer(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    proc = subprocess.run([sys.executable, "-m", "bench.tracer", str(spans_path), "0",
                           "--", "mean", "--group", "q8"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in spans_path.read_text().splitlines()]
    names = {line[0] for line in lines if isinstance(line, list)}
    assert {"cli.main", "amenable.invariant_means"} <= names


_FIRST_USE_FROM_THREADS = r"""
import sys, threading
import opideal

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
failures = []


def first_use():
    barrier.wait()
    try:
        opideal.amenable.cyclic_group(5)
    except Exception as exc:
        failures.append(repr(exc))


threads = [threading.Thread(target=first_use) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "a thread is still waiting"
assert failures == [], failures
"""


def test_first_use_from_four_threads_at_once_runs_the_module_once():
    proc = subprocess.run([sys.executable, "-c", _FIRST_USE_FROM_THREADS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
