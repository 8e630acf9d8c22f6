"""JSON and CSV schemas shared by the command-line tools.

Matrix JSON: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
data flat in row-major order.  Flag JSON wraps a matrix plus the nested
dimensions; group JSON carries the Cayley table; sequences are CSV with
one nonnegative real per line.
"""

from __future__ import annotations

import json

import numpy as np

from .amenable import (FiniteGroup, Functional, check_group_order, cyclic_group,
                       dihedral_group, quaternion_group, symmetric_group,
                       trivial_group)
from .classical import StructureData, default_structure
from .errors import InputError
from .nest import Flag
from .symfunc import NonincreasingSequence
from .utils import MAX_GROUP_ORDER, as_matrix

__all__ = [
    "complex_to_pairs",
    "matrix_to_obj", "matrix_from_obj", "save_matrix", "load_matrix",
    "flag_to_obj", "flag_from_obj", "save_flag", "load_flag",
    "sequence_to_csv", "sequence_from_csv", "save_sequence", "load_sequence",
    "group_from_obj", "load_group", "resolve_group",
    "functional_from_obj", "load_functional",
    "structure_from_obj", "load_structure",
]


def _is_int(val) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(val, int) and not isinstance(val, bool)


def _require(obj: dict, field: str, kind=None):
    if field not in obj:
        raise InputError(f"missing field {field!r}")
    val = obj[field]
    if not (_is_int(val) if kind is int else kind is None or isinstance(val, kind)):
        raise InputError(f"field {field!r} has wrong type")
    return val


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise InputError(f"{path} is not valid JSON: {exc}") from None


def _complex_pairs(data: list, field: str) -> np.ndarray:
    """A list of [re, im] pairs as a flat complex array."""
    try:
        pairs = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError(f"field {field!r} must be a list of [re, im] pairs")
    # Each C-contiguous (re, im) row of float64 is one complex128.
    return pairs.view(complex).ravel()


def complex_to_pairs(values) -> list:
    """A complex array, flattened, as a list of [re, im] pairs; the
    counterpart of ``_complex_pairs``."""
    v = np.ravel(values)
    return np.stack([v.real, v.imag], axis=1).tolist()


def matrix_to_obj(m) -> dict:
    m = as_matrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": complex_to_pairs(m)}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError("matrix object must be a JSON object")
    rows = _require(obj, "rows", int)
    cols = _require(obj, "cols", int)
    data = _require(obj, "data", list)
    if rows < 1 or cols < 1:
        raise InputError("field 'rows'/'cols' must be positive")
    if len(data) != rows * cols:
        raise InputError(
            f"field 'data' has {len(data)} entries, expected rows*cols={rows * cols}")
    return as_matrix(_complex_pairs(data, "data").reshape(rows, cols))


def save_matrix(path, m) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(m), fh)


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(_load_json(path))


def flag_to_obj(flag: Flag) -> dict:
    return {"basis": matrix_to_obj(flag.basis), "dims": list(flag.dims)}


def flag_from_obj(obj) -> Flag:
    if not isinstance(obj, dict):
        raise InputError("flag object must be a JSON object")
    basis = matrix_from_obj(_require(obj, "basis", dict))
    dims = _require(obj, "dims", list)
    if not all(_is_int(d) for d in dims):
        raise InputError("field 'dims' must be a list of integers")
    return Flag(basis, dims)


def save_flag(path, flag: Flag) -> None:
    with open(path, "w") as fh:
        json.dump(flag_to_obj(flag), fh)


def load_flag(path) -> Flag:
    return flag_from_obj(_load_json(path))


def sequence_to_csv(seq) -> str:
    values = seq.values if isinstance(seq, NonincreasingSequence) else np.asarray(seq)
    return "".join(f"{float(v)!r}\n" for v in values)


def sequence_from_csv(text: str) -> NonincreasingSequence:
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise InputError(f"sequence line {lineno} is not a number: {line!r}") from None
    return NonincreasingSequence(values)


def save_sequence(path, seq) -> None:
    with open(path, "w") as fh:
        fh.write(sequence_to_csv(seq))


def load_sequence(path) -> NonincreasingSequence:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not a text file: {exc}") from None
    return sequence_from_csv(text)


def group_from_obj(obj) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise InputError("group object must be a JSON object")
    order = _require(obj, "order", int)
    check_group_order(order)
    table = _require(obj, "table", list)
    if len(table) != order:
        raise InputError(f"field 'table' has {len(table)} rows, expected {order}")
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError("field 'labels' must be a list")
    return FiniteGroup(table, labels=labels)


def load_group(path) -> FiniteGroup:
    return group_from_obj(_load_json(path))


_BUILTIN_GROUPS = {
    "trivial": trivial_group,
    "s3": lambda: symmetric_group(3),
    "s4": lambda: symmetric_group(4),
    "q8": quaternion_group,
}


def resolve_group(spec: str) -> FiniteGroup:
    """A builtin name (z<n>, d<n>, s3, s4, q8, trivial) or a JSON path."""
    name = spec.strip().lower()
    if name in _BUILTIN_GROUPS:
        return _BUILTIN_GROUPS[name]()
    if name[:1] in ("z", "d") and name[1:].isdecimal():
        digits = name[1:].lstrip("0") or "0"
        if len(digits) > len(str(MAX_GROUP_ORDER)):  # int() refuses > 4300 digits
            raise InputError(f"group order exceeds the limit {MAX_GROUP_ORDER}")
        return (cyclic_group if name[0] == "z" else dihedral_group)(int(digits))
    try:
        return load_group(spec)
    except OSError:
        raise InputError(f"unknown group {spec!r} (not a builtin, not a file)") from None


def functional_from_obj(obj, group: FiniteGroup) -> Functional:
    if not isinstance(obj, dict):
        raise InputError("functional object must be a JSON object")
    data = _require(obj, "weights", list)
    return Functional(group, _complex_pairs(data, "weights"))


def load_functional(path, group: FiniteGroup) -> Functional:
    return functional_from_obj(_load_json(path), group)


def structure_from_obj(obj) -> tuple[str, StructureData]:
    if not isinstance(obj, dict):
        raise InputError("structure object must be a JSON object")
    typ = _require(obj, "type", str)
    n = _require(obj, "n", int)
    split = obj.get("split")
    if split is not None:
        if not isinstance(split, list) or len(split) != 2 or not all(map(_is_int, split)):
            raise InputError("field 'split' must be a pair [p, q]")
        split = tuple(split)
    return typ, default_structure(typ, n, split=split)


def load_structure(path) -> tuple[str, StructureData]:
    return structure_from_obj(_load_json(path))
