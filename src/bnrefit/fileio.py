"""Canonical JSON formats for networks, constraint sets, and run reports.

Serialization is byte-stable: keys appear in a fixed insertion order,
floats are written with 17 significant digits (enough to round-trip a
double exactly), arrays are flat lists in C order (last scope variable
varying fastest, matching the table axis convention in ``core``), and the
encoding is UTF-8 with a trailing newline.  Serializing a parsed document
reproduces it byte for byte.

Parsing is strict: documents must carry ``format_version`` 1, unknown keys
are rejected, and every schema violation raises ``FormatError`` (a
``ValidationError``) with the location spelled out; ``core``'s semantic
errors (row sums, acyclicity) propagate unchanged.  A table is read with
one scan of its list's types, then one ``np.array`` call; the scan goes
first, as numpy reads ``true`` as 1.0 and ``"0.5"`` as 0.5.  A network's
CPT values are checked in one batch, yet the first fault in document
order wins: names and cardinalities, then each variable's schema, entry
count and CPT values in turn, then acyclicity.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii as _quoted
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    Constraint,
    Cpt,
    NetworkSpec,
    ValidationError,
    VariableDecl,
    _check_cpts,
    _cpt,
    _power_of_two,
)
from .dense import RunReport

FORMAT_VERSION = 1


class FormatError(ValidationError):
    """A document is not valid JSON or does not follow the schema."""


def _canon(value, indent: int) -> str:
    if isinstance(value, str):
        return _quoted(value)
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join([
            f"{pad}  {_quoted(str(k))}: {_canon(v, indent + 1)}"
            for k, v in value.items()
        ])
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds <= {str}:
            return "[" + ", ".join(map(_quoted, value)) + "]"
        if kinds == {float}:
            # CPTs and distributions.  A non-finite float formats as "inf"
            # or "nan"; the "n" sends the list to the per-value branch.
            flat = ", ".join(["%.17g"] * len(value)) % tuple(value)
            if "n" not in flat:
                return "[" + flat + "]"
        if all(v is None or isinstance(v, (bool, int, float, str))
               for v in value):
            return "[" + ", ".join(_canon(v, 0) for v in value) + "]"
        rows = ",\n".join(f"{pad}  {_canon(v, indent + 1)}" for v in value)
        return "[\n" + rows + "\n" + pad + "]"
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # Python's json module reads a non-finite float back; the schema
        # allows one only where a divergence can genuinely be infinite.
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else json.dumps(v)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dump(doc: dict) -> bytes:
    return (_canon(doc, 0) + "\n").encode("utf-8")


def _load(data: bytes | str):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"document is not UTF-8: {e}") from None
    try:
        return json.loads(data)
    except ValueError as e:
        # JSONDecodeError, or an integer literal past Python's digit limit.
        raise FormatError(f"document is not valid JSON: {e}") from None
    except RecursionError:
        raise FormatError("document nests too deeply to parse") from None


def _expect(cond: bool, message: str, *args) -> None:
    """Raise ``FormatError(message % args)`` unless ``cond``; the message
    is formatted only on failure."""
    if not cond:
        raise FormatError(message % args)


_EXPECTED = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _typed(value, kind: type, *where: str):
    """``value``, which must have exactly the JSON type ``kind``."""
    if type(value) is not kind:
        raise FormatError(f"{': '.join(where)}: expected {_EXPECTED[kind]}")
    return value


def _strings(obj: dict, key: str, where: str) -> tuple[str, ...]:
    _expect(key in obj, "%s: missing %s", where, key)
    raw = _typed(obj[key], list, where, key)
    if not set(map(type, raw)) <= {str}:
        k = next(k for k, s in enumerate(raw) if type(s) is not str)
        _typed(raw[k], str, where, f"{key}[{k}]")
    return tuple(raw)


def _count(n: int) -> str:
    """``n`` in digits up to 2^64, and past it as a power of two, so a
    cardinality of hundreds of digits does not fill a message."""
    return str(n) if n <= 2 ** 64 else _power_of_two(n)


def _table(obj: dict, key: str, where: str, shape: tuple[int, ...],
           scope: tuple[str, ...] = ()) -> np.ndarray:
    """``obj[key]``, a flat list of numbers, as a float array of ``shape``;
    a wrong entry count is reported against ``scope``, or else ``shape``."""
    _expect(key in obj, "%s: missing %s", where, key)
    raw = _typed(obj[key], list, where, key)
    values = None
    if set(map(type, raw)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            values = np.array(raw, dtype=float)
    if values is None:  # walk the entries to name the first faulty one
        for k, v in enumerate(raw):
            _expect(type(v) in (int, float), "%s: %s[%s]: expected a number",
                    where, key, k)
            try:
                float(v)
            except OverflowError:
                raise FormatError(f"{where}: {key}[{k}]: number out of range") from None
    if len(raw) != math.prod(shape):
        of = f"scope {scope}" if scope else f"shape ({', '.join(map(_count, shape))})"
        raise FormatError(f"{where}: {key} has {len(raw)} entries, expected "
                          f"{_count(math.prod(shape))} for {of}")
    with contextlib.suppress(ValueError):  # no such array: left flat
        values.resize(shape, refcheck=False)  # in place: a view keeps 2 arrays
    return values


def _no_extras(obj: dict, allowed: set[str], where: str) -> None:
    if not obj.keys() <= allowed:
        raise FormatError(f"{where}: unknown keys {sorted(set(obj) - allowed)}")


def _entries(data: bytes | str, where: str, key: str) -> list:
    """The ``key`` array of the document in ``data``, its header checked."""
    doc = _typed(_load(data), dict, where)
    _expect("format_version" in doc, "%s: missing format_version", where)
    version = _typed(doc["format_version"], int, where, "format_version")
    _expect(version == FORMAT_VERSION, "%s: format_version %s is not "
            "supported (this build reads version %s)", where, version,
            FORMAT_VERSION)
    _no_extras(doc, {"format_version", key}, where)
    _expect(key in doc, "%s: missing %s", where, key)
    return _typed(doc[key], list, where, key)


def parse_network(data: bytes | str) -> NetworkSpec:
    """Read a network document; every invariant is enforced on the way in."""
    entries = _entries(data, "network document", "variables")
    _expect(len(entries) > 0, "network document: variables is empty")

    cardinalities: dict[str, int] = {}
    for i, entry in enumerate(entries):
        where = f"variables[{i}]"
        obj = _typed(entry, dict, where)
        name = _typed(obj.get("name"), str, where, "name")
        _expect(name not in cardinalities, "%s: duplicate variable %r", where, name)
        cardinalities[name] = _typed(obj.get("cardinality"), int, where, "cardinality")

    decls: list[VariableDecl] = []
    parents: dict[str, tuple[str, ...]] = {}
    families: list[tuple[str, tuple[str, ...], np.ndarray]] = []
    try:
        for obj in entries:
            name = obj["name"]
            where = f"variable {name!r}"
            _no_extras(obj, {"name", "cardinality", "states", "parents", "cpt"},
                       where)
            states = _strings(obj, "states", where) if "states" in obj else None
            decls.append(VariableDecl(name, cardinalities[name], states))

            ps = _strings(obj, "parents", where)
            for p in ps:
                _expect(p in cardinalities, "%s: parent %r is not declared", where, p)
            parents[name] = ps

            shape = tuple(cardinalities[p] for p in ps) + (cardinalities[name],)
            table = _table(obj, "cpt", where, shape)
            if len(set(ps)) < len(ps) or name in ps:
                Cpt(name, ps, table)  # raises its parent-order error
            if table.shape == shape:  # else a later parent's cardinality fails
                families.append((name, ps, table))
    except ValidationError:
        _check_cpts(families)  # a fault of an earlier CPT comes first
        raise
    _check_cpts(families)
    return NetworkSpec(tuple(decls), parents,
                       {family[0]: _cpt(*family) for family in families})


def serialize_network(net: NetworkSpec) -> bytes:
    """Canonical bytes for a network document."""
    entries = []
    for decl in net.variables:
        entry: dict = {"name": decl.name, "cardinality": decl.cardinality}
        if decl.states is not None:
            entry["states"] = list(decl.states)
        entry["parents"] = list(net.parents[decl.name])
        entry["cpt"] = net.cpts[decl.name].table.ravel().tolist()
        entries.append(entry)
    return _dump({"format_version": FORMAT_VERSION, "variables": entries})


def parse_constraints(data: bytes | str, net: NetworkSpec) -> list[Constraint]:
    """Read a constraint document against ``net``'s declarations."""
    entries = _entries(data, "constraint document", "constraints")
    out: list[Constraint] = []
    for i, entry in enumerate(entries):
        where = f"constraints[{i}]"
        obj = _typed(entry, dict, where)
        _no_extras(obj, {"scope", "dist"}, where)
        scope = _strings(obj, "scope", where)
        _expect(len(scope) > 0, "%s: scope is empty", where)
        _expect(len(set(scope)) == len(scope), "%s: scope repeats a variable", where)
        for v in scope:
            _expect(v in net.rank, "%s: unknown variable %r", where, v)
        shape = tuple(net.cards[v] for v in scope)
        out.append(Constraint.over(net, scope, _table(obj, "dist", where,
                                                      shape, scope)))
    return out


def serialize_constraints(constraints: Sequence[Constraint]) -> bytes:
    """Canonical bytes for a constraint document."""
    entries = [{"scope": list(r.scope), "dist": r.dist.probs.ravel().tolist()}
               for r in constraints]
    return _dump({"format_version": FORMAT_VERSION, "constraints": entries})


def report_to_bytes(report: RunReport) -> bytes:
    """Canonical bytes for a run report document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": report.algorithm,
        "termination": report.termination.value,
        "cycles": report.cycles,
        "wall_time_seconds": float(report.wall_time),
        "log_base": "e",
        "final_divergence": report.final_divergence,
        "structural_residual": report.structural_residual,
        "per_constraint_residuals": [float(v) for v in report.per_constraint_residuals],
    }
    return _dump(doc)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory rename.

    Readers never observe a half-written file; on failure the target is
    left untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
