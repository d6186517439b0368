"""Canonical JSON formats for networks, constraint sets, and run reports.

Serialization is byte-stable: keys appear in a fixed insertion order,
floats are written with 17 significant digits (enough to round-trip a
double exactly), arrays are flat lists in C order (last scope variable
varying fastest, matching the table axis convention in ``core``), and the
encoding is UTF-8 with a trailing newline.  Serializing a parsed document
reproduces it byte for byte.

Parsing is strict: documents must carry ``format_version`` 1, unknown keys
are rejected, and every schema violation raises ``FormatError`` with the
location spelled out.  Semantic validation (row normalization, acyclicity,
cardinality agreement) is delegated to the core constructors, whose errors
propagate unchanged; ``FormatError`` subclasses ``ValidationError`` so one
except clause covers both.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    Constraint,
    Cpt,
    JointTable,
    NetworkSpec,
    ValidationError,
    VariableDecl,
    _power_of_two,
)
from .dense import RunReport

FORMAT_VERSION = 1


class FormatError(ValidationError):
    """A document is not valid JSON or does not follow the schema."""


def _scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _canon(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_canon(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        if set(map(type, value)) == {float}:
            # Flat float lists (CPTs, distributions): a finite float is
            # written as the scalar branch writes it.  A non-finite one
            # formats as "inf" or "nan", whose "n" sends the list on to the
            # scalar branch, which writes it as JSON does.
            flat = ", ".join([format(v, ".17g") for v in value])
            if "n" not in flat:
                return "[" + flat + "]"
        if all(_scalar(v) for v in value):
            return "[" + ", ".join(_canon(v, 0) for v in value) + "]"
        rows = ",\n".join(f"{pad}  {_canon(v, indent + 1)}" for v in value)
        return "[\n" + rows + "\n" + pad + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            # Python's json module reads these back; the schema allows them
            # only where a divergence can genuinely be infinite.
            return json.dumps(v)
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
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


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _object(value, where: str) -> dict:
    _expect(isinstance(value, dict), f"{where}: expected an object")
    return value


def _array(value, where: str) -> list:
    _expect(isinstance(value, list), f"{where}: expected an array")
    return value


def _string(value, where: str) -> str:
    _expect(isinstance(value, str), f"{where}: expected a string")
    return value


def _integer(value, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"{where}: expected an integer")
    return value


def _number(value, where: str) -> float:
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where}: expected a number",
    )
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where}: number out of range") from None


def _count(n: int) -> str:
    """``n`` in digits up to 2^64, and past it as a power of two, so a
    cardinality of hundreds of digits does not fill a message."""
    return str(n) if n <= 2 ** 64 else _power_of_two(n)


def _table(obj: dict, key: str, where: str, shape: tuple[int, ...],
           of: str) -> np.ndarray:
    """``obj[key]``, a flat list of numbers, as an array of ``shape``;
    ``of`` ends the message of a wrong entry count."""
    _expect(key in obj, f"{where}: missing {key}")
    raw = _array(obj[key], f"{where}: {key}")
    values = [_number(v, f"{where}: {key}[{k}]") for k, v in enumerate(raw)]
    expected = math.prod(shape)
    _expect(
        len(values) == expected,
        f"{where}: {key} has {len(values)} entries, expected "
        f"{_count(expected)} {of}",
    )
    return np.asarray(values).reshape(shape)


def _no_extras(obj: dict, allowed: set[str], where: str) -> None:
    extras = sorted(set(obj) - allowed)
    _expect(not extras, f"{where}: unknown keys {extras}")


def _check_version(doc: dict, where: str) -> None:
    _expect("format_version" in doc, f"{where}: missing format_version")
    version = _integer(doc["format_version"], f"{where}: format_version")
    _expect(
        version == FORMAT_VERSION,
        f"{where}: format_version {version} is not supported (this build "
        f"reads version {FORMAT_VERSION})",
    )


def parse_network(data: bytes | str) -> NetworkSpec:
    """Read a network document; every invariant is enforced on the way in."""
    doc = _object(_load(data), "network document")
    _check_version(doc, "network document")
    _no_extras(doc, {"format_version", "variables"}, "network document")
    _expect("variables" in doc, "network document: missing variables")
    entries = _array(doc["variables"], "network document: variables")
    _expect(len(entries) > 0, "network document: variables is empty")

    cardinalities: dict[str, int] = {}
    seen: list[str] = []
    for i, entry in enumerate(entries):
        where = f"variables[{i}]"
        obj = _object(entry, where)
        name = _string(obj.get("name"), f"{where}: name")
        _expect(name not in cardinalities, f"{where}: duplicate variable {name!r}")
        cardinalities[name] = _integer(obj.get("cardinality"),
                                       f"{where}: cardinality")
        seen.append(name)

    decls: list[VariableDecl] = []
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, Cpt] = {}
    for i, entry in enumerate(entries):
        obj = entry
        name = obj["name"]
        where = f"variable {name!r}"
        _no_extras(obj, {"name", "cardinality", "states", "parents", "cpt"}, where)
        states = None
        if "states" in obj:
            raw = _array(obj["states"], f"{where}: states")
            states = tuple(_string(s, f"{where}: states[{k}]")
                           for k, s in enumerate(raw))
        decls.append(VariableDecl(name, cardinalities[name], states))

        _expect("parents" in obj, f"{where}: missing parents")
        raw_parents = _array(obj["parents"], f"{where}: parents")
        ps = tuple(_string(p, f"{where}: parents[{k}]")
                   for k, p in enumerate(raw_parents))
        for p in ps:
            _expect(p in cardinalities, f"{where}: parent {p!r} is not declared")
        parents[name] = ps

        shape = tuple(cardinalities[p] for p in ps) + (cardinalities[name],)
        cpts[name] = Cpt(name, ps, _table(
            obj, "cpt", where, shape,
            f"for shape ({', '.join(map(_count, shape))})"))

    return NetworkSpec(tuple(decls), parents, cpts)


def serialize_network(net: NetworkSpec) -> bytes:
    """Canonical bytes for a network document."""
    entries = []
    for decl in net.variables:
        entry: dict = {"name": decl.name, "cardinality": decl.cardinality}
        if decl.states is not None:
            entry["states"] = list(decl.states)
        entry["parents"] = list(net.parents[decl.name])
        entry["cpt"] = [float(v) for v in net.cpts[decl.name].table.ravel(order="C")]
        entries.append(entry)
    return _dump({"format_version": FORMAT_VERSION, "variables": entries})


def parse_constraints(data: bytes | str, net: NetworkSpec) -> list[Constraint]:
    """Read a constraint document against ``net``'s declarations."""
    doc = _object(_load(data), "constraint document")
    _check_version(doc, "constraint document")
    _no_extras(doc, {"format_version", "constraints"}, "constraint document")
    _expect("constraints" in doc, "constraint document: missing constraints")
    entries = _array(doc["constraints"], "constraint document: constraints")

    out: list[Constraint] = []
    for i, entry in enumerate(entries):
        where = f"constraints[{i}]"
        obj = _object(entry, where)
        _no_extras(obj, {"scope", "dist"}, where)
        _expect("scope" in obj, f"{where}: missing scope")
        raw_scope = _array(obj["scope"], f"{where}: scope")
        scope = tuple(_string(v, f"{where}: scope[{k}]")
                      for k, v in enumerate(raw_scope))
        _expect(len(scope) > 0, f"{where}: scope is empty")
        _expect(len(set(scope)) == len(scope),
                f"{where}: scope repeats a variable")
        for v in scope:
            _expect(v in net.names, f"{where}: unknown variable {v!r}")
        shape = tuple(net.cardinality(v) for v in scope)
        decls = tuple(net.decl(v) for v in scope)
        out.append(Constraint(scope, JointTable(decls, _table(
            obj, "dist", where, shape, f"for scope {scope}"))))
    return out


def serialize_constraints(constraints: Sequence[Constraint]) -> bytes:
    """Canonical bytes for a constraint document."""
    entries = [
        {
            "scope": list(r.scope),
            "dist": [float(v) for v in r.dist.probs.ravel(order="C")],
        }
        for r in constraints
    ]
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
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
