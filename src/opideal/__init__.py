"""Finite-dimensional toolkit for symmetric gauge norms, nest-relative
triangular truncations and factorizations, classical matrix-group
decompositions, and finite-group invariant means.

Importing the package runs none of its modules.  Each one is registered
in ``sys.modules``, and as an attribute here, as a deferred module whose
code runs on the first read of a name it does not hold yet; the names
below resolve through ``__getattr__`` (PEP 562).  So a process runs only
the modules it reads: ``opideal mean`` never compiles the gauge-norm or
factorization code.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# The classical group types, defined here so that the command line can
# offer them as choices before it loads numpy; classical reads them too.
CLASSICAL_TYPES = ("A", "B", "C", "AI", "AII", "AIII", "BI", "BII", "CI", "CII")

# The public API, and its only list: every public class and function of
# each layer module, by that module.  serialize, utils and cli are reached
# as modules.
_EXPORTS = {
    "amenable": (
        "FiniteGroup", "Functional", "GroupFunction", "RegularRep", "UnitaryRep",
        "arens_product", "check_group_order", "cyclic_group", "delta_functional",
        "dihedral_group", "gns_regular", "integrate_rep", "invariance_residual",
        "invariant_means", "is_mean", "left_regular_rep", "quaternion_group",
        "regular_character", "sigma", "sigma_dual", "symmetric_group",
        "translate_left", "translate_right", "trivial_group", "triviality_test",
        "uniform_mean"),
    "classical": (
        "CartanFactors", "IwasawaFactors", "StructureData",
        "algebra_membership", "algebra_project", "cartan_decompose",
        "cartan_involution", "default_structure", "group_membership",
        "irreducibility_check", "iwasawa_algebra_split", "iwasawa_decompose",
        "random_group_element", "regular_eigenflag", "validate_structure"),
    "errors": ("DomainError", "InputError"),
    "factor": ("LdlFactors", "QbFactors", "ldl_nest", "nilpotency_check", "qb_nest"),
    "harish": (
        "BlockSplit", "HCFactors", "hc_action", "hc_cocycle", "hc_domain_test",
        "hc_factorize", "lower_unipotent", "upper_unipotent"),
    "nest": (
        "Flag", "Partition", "is_in_nest_algebra", "project",
        "refinement_identities_check", "split", "triangular_integral",
        "truncate_diag", "truncate_lower", "truncate_upper",
        "truncation_norm_experiment"),
    "symfunc": (
        "BoydEstimate", "DualNormResult", "NonincreasingSequence", "SymNormFunc",
        "adjoint_phi_eval", "boyd_estimate", "contract", "contraction_norm", "dilate",
        "dilation_norm", "dual_gauge", "phi_eval", "phi_norm", "singular_values"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

_MODULES = ("amenable", "classical", "cli", "errors", "factor", "harish", "nest",
            "serialize", "symfunc", "utils")

# What ``from opideal import *`` binds: the names above, and the modules that
# held them when the package imported them all eagerly.
__all__ = ["CLASSICAL_TYPES", *_SOURCE, *_EXPORTS, "utils"]

# One lock for every module: a module's code reads other modules' names, so
# per-module locks could deadlock two threads that start at opposite ends.
_lock = threading.RLock()


class _Running(types.ModuleType):
    """A submodule whose code is running: a read from another thread waits
    until the code has finished, so no thread sees a half-built module."""

    def __getattribute__(self, name):
        with _lock:     # once it is released, self may be a plain module
            return types.ModuleType.__getattribute__(self, name)


class _Deferred(_Running):
    """A registered submodule whose code has not run yet."""

    def __getattr__(self, name):
        with _lock:
            if type(self) is _Deferred:
                self.__class__ = _Running
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    self.__class__ = _Deferred     # the next read runs it again
                    raise
                self.__class__ = types.ModuleType
        return getattr(self, name)


def _deferred(name: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[spec.name] = module
    return module


globals().update({name: _deferred(name) for name in _MODULES})


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
