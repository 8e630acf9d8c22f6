"""JSON and CSV schemas shared by the command-line tools.

Matrix JSON: ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with the
data flat in row-major order.  Flag JSON wraps a matrix plus the nested
dimensions; group JSON carries the Cayley table; sequences are CSV with
one nonnegative real per line.  Reports encode their arrays by ``array_to_obj``.
"""

from __future__ import annotations

import io
import json
import os
from itertools import chain

import numpy as np

from . import amenable, classical, nest, symfunc
from .errors import InputError
from .utils import MAX_GROUP_ORDER, MAX_INPUT_BYTES, as_matrix


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


def _open_input(path):
    """The input file at path as a text stream, decoded as ``open`` decodes
    it, if it has at most MAX_INPUT_BYTES: a file whose size on disk is past
    the cap is refused before any byte is read, and a pipe or FIFO, whose
    size is 0, once a read of MAX_INPUT_BYTES + 1 bytes gets them all."""
    size = os.stat(path).st_size
    if size > MAX_INPUT_BYTES:
        raise InputError(f"{path} is {size} bytes, over the input limit of {MAX_INPUT_BYTES}")
    chunks, left = [], MAX_INPUT_BYTES + 1
    with open(path, "rb") as fh:    # one read allocates its length: a file's size, or 64 KiB
        while left > 0 and (chunk := fh.read1(min(max(size + 1, 1 << 16), left))):
            chunks.append(chunk)
            left -= len(chunk)
    if left == 0:
        raise InputError(f"{path} is over the input limit of {MAX_INPUT_BYTES} bytes")
    return io.TextIOWrapper(io.BytesIO(b"".join(chunks)))


def _load_json(path):
    with _open_input(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
            raise InputError(f"{path} is not valid JSON: {exc}") from None


def _complex_pairs(data: list, field: str) -> np.ndarray:
    """A list of [re, im] pairs as a flat complex array."""
    if set(map(type, data)) <= {list, tuple} and set(map(len, data)) == {2}:
        try:   # each (re, im) pair of float64 is one complex128
            return np.fromiter(chain.from_iterable(data), float, 2 * len(data)).view(complex)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"field {field!r} must be a list of [re, im] pairs")


def complex_to_pairs(values) -> list:
    """A complex array, flattened, as a list of [re, im] pairs; the
    counterpart of ``_complex_pairs``."""
    v = np.ravel(values)
    return np.stack([v.real, v.imag], axis=1).tolist()


def matrix_to_obj(m) -> dict:
    m = as_matrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": complex_to_pairs(m)}


def array_to_obj(a):
    """The ``default`` of a report's ``json.dumps``: a 2-d array as a matrix object,
    a 1-d one as pairs.  Encoded as it is reached, one array's lists live at a time."""
    if isinstance(a, np.ndarray) and a.ndim in (1, 2):
        return matrix_to_obj(a) if a.ndim == 2 else complex_to_pairs(a)
    raise TypeError(f"{type(a).__name__} is not JSON serializable")


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
        fh.write(json.dumps(matrix_to_obj(m)))


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(_load_json(path))


def flag_from_obj(obj) -> nest.Flag:
    if not isinstance(obj, dict):
        raise InputError("flag object must be a JSON object")
    basis = matrix_from_obj(_require(obj, "basis", dict))
    dims = _require(obj, "dims", list)
    if not all(_is_int(d) for d in dims):
        raise InputError("field 'dims' must be a list of integers")
    return nest.Flag(basis, dims)


def save_flag(path, flag: nest.Flag) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"basis": matrix_to_obj(flag.basis), "dims": list(flag.dims)}))


def load_flag(path) -> nest.Flag:
    return flag_from_obj(_load_json(path))


def sequence_from_csv(text: str) -> symfunc.NonincreasingSequence:
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise InputError(f"sequence line {lineno} is not a number: {line!r}") from None
    return symfunc.NonincreasingSequence(values)


def load_sequence(path) -> symfunc.NonincreasingSequence:
    with _open_input(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not a text file: {exc}") from None
    return sequence_from_csv(text)


def group_from_obj(obj) -> amenable.FiniteGroup:
    if not isinstance(obj, dict):
        raise InputError("group object must be a JSON object")
    order = _require(obj, "order", int)
    amenable.check_group_order(order)
    table = _require(obj, "table", list)
    if len(table) != order:
        raise InputError(f"field 'table' has {len(table)} rows, expected {order}")
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError("field 'labels' must be a list")
    return amenable.FiniteGroup(table, labels=labels)


def load_group(path) -> amenable.FiniteGroup:
    return group_from_obj(_load_json(path))


_BUILTIN_GROUPS = {    # lambdas, so amenable runs only when a group is asked for
    "trivial": lambda: amenable.trivial_group(),
    "s3": lambda: amenable.symmetric_group(3),
    "s4": lambda: amenable.symmetric_group(4),
    "q8": lambda: amenable.quaternion_group(),
}


def resolve_group(spec: str) -> amenable.FiniteGroup:
    """A builtin name (z<n>, d<n>, s3, s4, q8, trivial) or a JSON path."""
    name = spec.strip().lower()
    if name in _BUILTIN_GROUPS:
        return _BUILTIN_GROUPS[name]()
    if name[:1] in ("z", "d") and name[1:].isdecimal():
        digits = name[1:].lstrip("0") or "0"
        if len(digits) > len(str(MAX_GROUP_ORDER)):  # int() refuses > 4300 digits
            raise InputError(f"group order exceeds the limit {MAX_GROUP_ORDER}")
        make = amenable.cyclic_group if name[0] == "z" else amenable.dihedral_group
        return make(int(digits))
    try:
        return load_group(spec)
    except OSError:
        raise InputError(f"unknown group {spec!r} (not a builtin, not a file)") from None


def functional_from_obj(obj, group: amenable.FiniteGroup) -> amenable.Functional:
    if not isinstance(obj, dict):
        raise InputError("functional object must be a JSON object")
    data = _require(obj, "weights", list)
    return amenable.Functional(group, _complex_pairs(data, "weights"))


def load_functional(path, group: amenable.FiniteGroup) -> amenable.Functional:
    return functional_from_obj(_load_json(path), group)


def structure_from_obj(obj) -> tuple[str, classical.StructureData]:
    if not isinstance(obj, dict):
        raise InputError("structure object must be a JSON object")
    typ = _require(obj, "type", str)
    n = _require(obj, "n", int)
    split = obj.get("split")
    if split is not None:
        if not isinstance(split, list) or len(split) != 2 or not all(map(_is_int, split)):
            raise InputError("field 'split' must be a pair [p, q]")
        split = tuple(split)
    return typ, classical.default_structure(typ, n, split=split)


def load_structure(path) -> tuple[str, classical.StructureData]:
    return structure_from_obj(_load_json(path))
