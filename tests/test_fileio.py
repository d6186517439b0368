"""File formats: parsing, canonical serialization, atomic writes, fuzzing."""

import hashlib
import json
import math
import os
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nets
from bnrefit import (
    BnError,
    CycleError,
    FormatError,
    NormalizationError,
    StopPolicy,
    ValidationError,
    joint_from_network,
    parse_constraints,
    parse_network,
    report_to_bytes,
    run_e_ipfp,
    serialize_constraints,
    serialize_network,
)
from bnrefit import cli
from bnrefit.fileio import _canon, write_atomic
from bnrefit.generate import generate_instance, random_network

MINIMAL = b"""{
  "format_version": 1,
  "variables": [
    {"name": "A", "cardinality": 2, "parents": [], "cpt": [0.6, 0.4]}
  ]
}
"""


def doc_of(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def network_doc(**overrides) -> bytes:
    doc = {
        "format_version": 1,
        "variables": [
            {"name": "A", "cardinality": 2, "parents": [], "cpt": [0.5, 0.5]},
            {"name": "B", "cardinality": 2, "parents": ["A"],
             "cpt": [0.8, 0.2, 0.2, 0.8]},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc).encode()


# parse_network


def test_parse_minimal_network():
    net = parse_network(MINIMAL)
    assert net.names == ("A",)
    assert np.allclose(net.cpts["A"].table, [0.6, 0.4])


def test_parse_round_number_chain(chain_net):
    net = parse_network(serialize_network(chain_net))
    q = joint_from_network(net)
    assert np.array_equal(q.probs, joint_from_network(chain_net).probs)


def test_parse_rejects_cycle():
    doc = network_doc(variables=[
        {"name": "A", "cardinality": 2, "parents": ["B"],
         "cpt": [0.5, 0.5, 0.5, 0.5]},
        {"name": "B", "cardinality": 2, "parents": ["A"],
         "cpt": [0.5, 0.5, 0.5, 0.5]},
    ])
    with pytest.raises(CycleError):
        parse_network(doc)


def test_parse_rejects_unknown_parent():
    doc = network_doc(variables=[
        {"name": "A", "cardinality": 2, "parents": ["Z"],
         "cpt": [0.5, 0.5, 0.5, 0.5]},
    ])
    with pytest.raises(ValidationError):
        parse_network(doc)


def test_parse_names_bad_row():
    doc = network_doc(variables=[
        {"name": "A", "cardinality": 2, "parents": [], "cpt": [0.5, 0.5]},
        {"name": "B", "cardinality": 2, "parents": ["A"],
         "cpt": [0.7, 0.2, 0.2, 0.8]},
    ])
    with pytest.raises(NormalizationError) as err:
        parse_network(doc)
    assert "B" in str(err.value)
    assert "row 0" in str(err.value)


def test_parse_rejects_wrong_cpt_length():
    short = network_doc(variables=[
        {"name": "A", "cardinality": 2, "parents": [], "cpt": [0.5, 0.5, 0.0]},
    ])
    # A 2^32 x 2^32 table has 2^64 cells, a count that wraps to 0 in int64.
    wrapping = network_doc(variables=[
        {"name": "A", "cardinality": 2 ** 32, "parents": ["B"], "cpt": []},
        {"name": "B", "cardinality": 2 ** 32, "parents": [], "cpt": []},
    ])
    for doc in (short, wrapping):
        with pytest.raises(FormatError):
            parse_network(doc)


def test_wrong_cpt_length_prints_huge_counts_as_powers_of_two():
    # A 400-digit cardinality, about 2^1329: the message names the count
    # and the shape as powers of two, not as 400-digit integers.  Counts
    # up to 2^64 keep their digits.
    huge = network_doc(variables=[
        {"name": "A", "cardinality": 10 ** 400 - 1, "parents": [],
         "cpt": [0.5, 0.5]},
    ])
    with pytest.raises(FormatError) as err:
        parse_network(huge)
    message = str(err.value)
    assert "expected 2^1329 for shape (2^1329)" in message
    assert not re.search(r"[0-9]{20}", message)
    wide = network_doc(variables=[
        {"name": "A", "cardinality": 2 ** 32, "parents": ["B"], "cpt": []},
        {"name": "B", "cardinality": 2 ** 32, "parents": [], "cpt": []},
    ])
    with pytest.raises(FormatError,
                       match=f"expected {2 ** 64} for shape "
                             f"\\({2 ** 32}, {2 ** 32}\\)"):
        parse_network(wide)


def test_parse_rejects_unknown_keys():
    doc = json.loads(MINIMAL.decode())
    doc["comment"] = "hello"
    with pytest.raises(FormatError):
        parse_network(json.dumps(doc).encode())


def test_parse_rejects_wrong_version():
    doc = json.loads(MINIMAL.decode())
    doc["format_version"] = 2
    with pytest.raises(FormatError):
        parse_network(json.dumps(doc).encode())


def test_parse_rejects_bad_json(chain_net):
    with pytest.raises(FormatError):
        parse_network(b"{not json")
    # json.loads recurses once per level; past the interpreter's limit it
    # raises RecursionError, which must surface as a FormatError.
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(FormatError, match="nests too deeply"):
        parse_network(deep)
    with pytest.raises(FormatError, match="nests too deeply"):
        parse_constraints(deep, chain_net)


def test_parse_rejects_non_utf8():
    with pytest.raises(FormatError):
        parse_network(b"\xff\xfe{}")


# parse_constraints


def test_parse_constraint_state_order(chain_net):
    # dist is state 0 first, so P(B=1)=0.61 is the second entry.
    data = json.dumps({
        "format_version": 1,
        "constraints": [{"scope": ["B"], "dist": [0.39, 0.61]}],
    }).encode()
    (r,) = parse_constraints(data, chain_net)
    assert r.scope == ("B",)
    assert r.dist.probs[1] == 0.61


def test_parse_constraint_pair(diamond_net):
    data = json.dumps({
        "format_version": 1,
        "constraints": [{"scope": ["A", "D"],
                         "dist": [0.4686, 0.1314, 0.2132, 0.1868]}],
    }).encode()
    (r,) = parse_constraints(data, diamond_net)
    assert r.scope == ("A", "D")
    assert r.dist.probs.shape == (2, 2)
    assert r.dist.probs[1, 0] == 0.2132


def test_parse_constraint_rejects_bad_total(chain_net):
    data = json.dumps({
        "format_version": 1,
        "constraints": [{"scope": ["B"], "dist": [0.39, 0.59]}],
    }).encode()
    with pytest.raises(NormalizationError):
        parse_constraints(data, chain_net)


def test_parse_constraint_rejects_unknown_variable(chain_net):
    data = json.dumps({
        "format_version": 1,
        "constraints": [{"scope": ["Z"], "dist": [0.5, 0.5]}],
    }).encode()
    with pytest.raises(BnError):
        parse_constraints(data, chain_net)


def test_parse_constraint_rejects_wrong_length(chain_net):
    data = json.dumps({
        "format_version": 1,
        "constraints": [{"scope": ["B"], "dist": [1.0]}],
    }).encode()
    with pytest.raises((FormatError, ValidationError)):
        parse_constraints(data, chain_net)
    # A full scope of 64 binary variables has 2^64 cells, which wraps to 0
    # in int64 and so would match the empty list.
    wide = nets.wide()
    data = json.dumps({
        "format_version": 1,
        "constraints": [{"scope": list(wide.names), "dist": []}],
    }).encode()
    with pytest.raises(FormatError):
        parse_constraints(data, wide)


# canonical serialization


def test_serialize_is_deterministic(diamond_net):
    assert serialize_network(diamond_net) == serialize_network(diamond_net)


EDGE_FLOATS = [-0.0, 5e-324, 2.225073858507201e-308, 1e-300, 0.1,
               float("inf"), float("-inf"), float("nan")]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), min_size=1))
@example(EDGE_FLOATS[:5])
@example([0.1, float("inf")])
@example([float("nan")])
def test_float_list_writer_matches_generic_path(values):
    # A flat list of floats takes the writer's fast path unless an entry
    # is not finite; either way it writes the bytes the per-scalar path
    # writes, and a non-finite entry keeps its JSON spelling.
    got = _canon(values, 0)
    assert got == "[" + ", ".join(_canon(v, 0) for v in values) + "]"
    if not all(np.isfinite(values)):
        assert "Infinity" in got or "NaN" in got


def test_writer_spells_an_empty_object_as_json_does():
    # An empty object is written on one line, also when nested, and reads
    # back as what was written.
    assert _canon({}, 0) == "{}"
    got = _canon({"a": {}, "b": [1, {}]}, 0)
    assert got == '{\n  "a": {},\n  "b": [\n    1,\n    {}\n  ]\n}'
    assert json.loads(got) == {"a": {}, "b": [1, {}]}


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, {"a": [b"x"]}])
def test_writer_refuses_a_value_it_cannot_serialize(value):
    # A value with no JSON spelling, however deep, raises TypeError naming
    # its type instead of writing something that does not read back.
    name = "bytes" if isinstance(value, dict) else type(value).__name__
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        _canon(value, 0)


def test_parse_serialize_parse_is_identity(diamond_net):
    blob = serialize_network(diamond_net)
    again = serialize_network(parse_network(blob))
    assert again == blob
    net = parse_network(again)
    for name in diamond_net.names:
        assert np.array_equal(net.cpts[name].table,
                              diamond_net.cpts[name].table)


def test_constraints_round_trip(diamond_net, diamond_r3):
    blob = serialize_constraints([diamond_r3])
    (back,) = parse_constraints(blob, diamond_net)
    assert back.scope == diamond_r3.scope
    assert np.array_equal(back.dist.probs, diamond_r3.dist.probs)
    assert serialize_constraints([back]) == blob


def test_solver_output_survives_round_trip(diamond_net, diamond_r3):
    out, _ = run_e_ipfp(diamond_net, [diamond_r3])
    back = parse_network(serialize_network(out))
    assert np.array_equal(joint_from_network(back).probs,
                          joint_from_network(out).probs)


@pytest.mark.parametrize("seed", [0, 1, 5, 9])
def test_random_network_round_trip(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 5 + seed % 4, 2 + seed % 2, 3)
    blob = serialize_network(net)
    back = parse_network(blob)
    assert back.names == net.names
    assert back.parents == net.parents
    for name in net.names:
        assert np.array_equal(back.cpts[name].table, net.cpts[name].table)
    assert serialize_network(back) == blob


# reports


def test_report_to_bytes_contents(diamond_net, diamond_r3):
    _, report = run_e_ipfp(diamond_net, [diamond_r3])
    doc = doc_of(report_to_bytes(report))
    assert doc["format_version"] == 1
    assert doc["algorithm"] == "e-ipfp"
    assert doc["termination"] == "converged"
    assert doc["cycles"] == report.cycles
    assert doc["log_base"] == "e"
    assert doc["final_divergence"] == pytest.approx(report.final_divergence)
    assert len(doc["per_constraint_residuals"]) == 1


def test_report_to_bytes_nulls_suppressed_fields(diamond_net, diamond_r3):
    from bnrefit import run_d_ipfp

    _, report = run_d_ipfp(diamond_net, [diamond_r3])
    doc = doc_of(report_to_bytes(report))
    assert doc["final_divergence"] == report.final_divergence
    assert doc["structural_residual"] is None


# write_atomic


def test_write_atomic_creates_file(tmp_path):
    path = tmp_path / "net.json"
    write_atomic(path, b"payload\n")
    assert path.read_bytes() == b"payload\n"
    assert os.listdir(tmp_path) == ["net.json"]


def test_write_atomic_replaces_existing(tmp_path):
    path = tmp_path / "net.json"
    path.write_bytes(b"old")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"


def test_write_atomic_failure_leaves_target_alone(tmp_path, monkeypatch):
    path = tmp_path / "net.json"
    path.write_bytes(b"untouched")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"untouched"
    assert os.listdir(tmp_path) == ["net.json"]


# bulk reading against a per-value reference reader


def reference_table(raw: list, shape: tuple[int, ...]) -> np.ndarray:
    """The per-value reader: each entry type-checked and converted on its
    own, then the list made an array of ``shape``."""
    values = []
    for v in raw:
        assert isinstance(v, (int, float)) and not isinstance(v, bool)
        values.append(float(v))
    return np.asarray(values).reshape(shape)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype == np.float64 and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@st.composite
def table_entries(draw, rows: int, card: int) -> list:
    """``rows`` distributions over ``card`` states, flat, as JSON values:
    floats, some exact integers 0 and 1, and some negative zeros."""
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["dirichlet", "one-hot", "signed zero"]))
        if kind == "one-hot":
            hot = draw(st.integers(0, card - 1))
            out += [int(s == hot) for s in range(card)]
            continue
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=card,
                                max_size=card))
        row = [w / sum(weights) for w in weights]
        if kind == "signed zero":
            row[draw(st.integers(0, card - 1))] = -0.0
            row = [w / sum(row) if w else w for w in row]
        out += row
    return out


@st.composite
def network_documents(draw) -> dict:
    """A network of 1 to 6 variables with 2 to 4 states each, declared in
    a random order, children first as often as not."""
    n = draw(st.integers(1, 6))
    topo = [f"V{i}" for i in range(n)]
    cards = {v: draw(st.integers(2, 4)) for v in topo}
    parents = {v: tuple(p for p in topo[:i] if draw(st.booleans()))[:3]
               for i, v in enumerate(topo)}
    order = draw(st.sampled_from(["children first", "shuffled"]))
    declared = (topo[::-1] if order == "children first"
                else draw(st.permutations(topo)))
    variables = []
    for v in declared:
        rows = math.prod(cards[p] for p in parents[v])
        variables.append({"name": v, "cardinality": cards[v],
                          "parents": list(parents[v]),
                          "cpt": draw(table_entries(rows, cards[v]))})
    return {"format_version": 1, "variables": variables}


@settings(max_examples=150, deadline=None)
@given(network_documents(), st.data())
def test_bulk_reader_matches_the_per_value_reader(doc, data):
    net = parse_network(json.dumps(doc))
    for entry in doc["variables"]:
        table = net.cpts[entry["name"]].table
        assert same_bits(table, reference_table(entry["cpt"], table.shape))
        assert not table.flags.writeable
    # A constraint set over the same network.
    constraints = []
    for _ in range(data.draw(st.integers(0, 4))):
        scope = data.draw(st.lists(st.sampled_from(net.names), min_size=1,
                                   max_size=3, unique=True))
        cells = math.prod(net.cards[v] for v in scope)
        constraints.append({"scope": scope,
                            "dist": data.draw(table_entries(1, cells))})
    parsed = parse_constraints(json.dumps({"format_version": 1,
                                           "constraints": constraints}), net)
    for entry, r in zip(constraints, parsed):
        assert r.scope == tuple(entry["scope"])
        assert same_bits(r.dist.probs,
                         reference_table(entry["dist"], r.dist.probs.shape))
        assert not r.dist.probs.flags.writeable


# sha256 prefixes of the serialized network and constraints: a change to
# the generator's output moves every benchmark and CI instance.
LARGE_INSTANCE_HASHES = {
    (0, 120, 24): ("7d74369ecd49d601", "5ecae704f9a1df74"),
    (1, 1000, 200): ("4bcc5efbb18d9854", "0e34bd301fb6a36d"),
}


@pytest.mark.parametrize("seed, nodes, num_constraints",
                         sorted(LARGE_INSTANCE_HASHES))
def test_large_instances_survive_parse_then_serialize(seed, nodes,
                                                      num_constraints):
    # The benchmark's subnet-large instance and the CI's 1000-variable one.
    net, constraints = generate_instance(seed, nodes, num_constraints)
    blob = serialize_network(net)
    assert (hashlib.sha256(blob).hexdigest()[:16],
            hashlib.sha256(serialize_constraints(constraints)).hexdigest()[:16]
            ) == LARGE_INSTANCE_HASHES[seed, nodes, num_constraints]
    back = parse_network(blob)
    assert serialize_network(back) == blob
    cons_blob = serialize_constraints(constraints)
    assert serialize_constraints(parse_constraints(cons_blob, back)) \
        == cons_blob
    for name in net.names:
        assert same_bits(back.cpts[name].table, net.cpts[name].table)


# pinned messages: a faulty document reads exactly as it always has


def two_variables(cpt: str) -> str:
    """A -> B, both binary, with B's CPT entries given as JSON text."""
    return ('{"format_version": 1, "variables": ['
            '{"name": "A", "cardinality": 2, "parents": [], "cpt": [0.5, 0.5]}, '
            '{"name": "B", "cardinality": 2, "parents": ["A"], "cpt": ['
            + cpt + ']}]}')


def pair_constraint(dist: str) -> str:
    """One constraint over (A, B), its entries given as JSON text."""
    return ('{"format_version": 1, "constraints": [{"scope": ["A", "B"], '
            '"dist": [' + dist + ']}]}')


def chain4(**changes) -> bytes:
    """A -> B -> C -> D, binary, with ``changes[name]`` merged into the
    entry of ``name``."""
    variables = [
        {"name": "A", "cardinality": 2, "parents": [], "cpt": [0.5, 0.5]},
        {"name": "B", "cardinality": 2, "parents": ["A"],
         "cpt": [0.8, 0.2, 0.2, 0.8]},
        {"name": "C", "cardinality": 2, "parents": ["B"],
         "cpt": [0.6, 0.4, 0.3, 0.7]},
        {"name": "D", "cardinality": 2, "parents": ["C"],
         "cpt": [0.9, 0.1, 0.5, 0.5]},
    ]
    for name, change in changes.items():
        variables["ABCD".index(name)].update(change)
    return json.dumps({"format_version": 1, "variables": variables}).encode()


def raised(parse, *args) -> tuple[type, str]:
    with pytest.raises(BnError) as err:
        parse(*args)
    return type(err.value), str(err.value)


NOT_A_NUMBER = "expected a number"
OUT_OF_RANGE = (ValidationError, "CPT for 'B': entries must lie in [0, 1]")
NEGATIVE_OR_NAN = (ValidationError,
                   "joint table over ('A', 'B'): negative or NaN entry")
INFINITE_TOTAL = (NormalizationError, "joint table over ('A', 'B'): sums to "
                  "inf, more than 1e-09 away from 1")

# (fault, JSON text put in place of the third entry of B's CPT
# [0.8, 0.2, _, 0.8] and of the distribution [0.25, 0.25, _, 0.25], the
# CPT's error, the distribution's error)
ENTRY_FAULTS = [
    ("bool", "true",
     (FormatError, f"variable 'B': cpt[2]: {NOT_A_NUMBER}"),
     (FormatError, f"constraints[0]: dist[2]: {NOT_A_NUMBER}")),
    ("string", '"0.5"',
     (FormatError, f"variable 'B': cpt[2]: {NOT_A_NUMBER}"),
     (FormatError, f"constraints[0]: dist[2]: {NOT_A_NUMBER}")),
    ("null", "null",
     (FormatError, f"variable 'B': cpt[2]: {NOT_A_NUMBER}"),
     (FormatError, f"constraints[0]: dist[2]: {NOT_A_NUMBER}")),
    ("nested list", "[0.5]",
     (FormatError, f"variable 'B': cpt[2]: {NOT_A_NUMBER}"),
     (FormatError, f"constraints[0]: dist[2]: {NOT_A_NUMBER}")),
    ("400-digit integer", "9" * 400,
     (FormatError, "variable 'B': cpt[2]: number out of range"),
     (FormatError, "constraints[0]: dist[2]: number out of range")),
    ("NaN", "NaN", OUT_OF_RANGE, NEGATIVE_OR_NAN),
    ("Infinity", "Infinity", OUT_OF_RANGE, INFINITE_TOTAL),
    ("1e400", "1e400", OUT_OF_RANGE, INFINITE_TOTAL),
    ("negative", "-0.5", OUT_OF_RANGE, NEGATIVE_OR_NAN),
    ("above 1", "1.5", OUT_OF_RANGE,
     (NormalizationError, "joint table over ('A', 'B'): sums to 2.25, more "
      "than 1e-09 away from 1")),
    ("bad row sum", "0.3",
     (NormalizationError, "CPT for 'B': row 1 (A=1) sums to "
      "1.1000000000000001, more than 1e-09 away from 1"),
     (NormalizationError, "joint table over ('A', 'B'): sums to 1.05, more "
      "than 1e-09 away from 1")),
    ("wrong entry count", "0.1, 0.1",
     (FormatError, "variable 'B': cpt has 5 entries, expected 4 for shape "
      "(2, 2)"),
     (FormatError, "constraints[0]: dist has 5 entries, expected 4 for "
      "scope ('A', 'B')")),
]


@pytest.mark.parametrize("literal, cpt_error, dist_error",
                         [case[1:] for case in ENTRY_FAULTS],
                         ids=[case[0] for case in ENTRY_FAULTS])
def test_faulty_entry_messages_are_pinned(tmp_path, capsys, literal,
                                          cpt_error, dist_error):
    good = two_variables("0.8, 0.2, 0.2, 0.8")
    net = parse_network(good)
    bad_net = two_variables(f"0.8, 0.2, {literal}, 0.8")
    bad_cons = pair_constraint(f"0.25, 0.25, {literal}, 0.25")
    assert raised(parse_network, bad_net) == cpt_error
    assert raised(parse_constraints, bad_cons, net) == dist_error
    # The CLI prints the same text and exits 3 (invalid input).
    for net_text, cons_text, (_, message) in (
            (bad_net, pair_constraint("0.25, 0.25, 0.25, 0.25"), cpt_error),
            (good, bad_cons, dist_error)):
        (tmp_path / "net.json").write_text(net_text)
        (tmp_path / "cons.json").write_text(cons_text)
        capsys.readouterr()
        assert cli.main(["check", "--network", str(tmp_path / "net.json"),
                         "--constraints", str(tmp_path / "cons.json")]) \
            == cli.EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("entries, index, message", [
    ("9" * 400 + ", true, 0.5, 0.5", 0, "number out of range"),
    ("true, " + "9" * 400 + ", 0.5, 0.5", 0, NOT_A_NUMBER),
    ('0.5, "x", ' + "9" * 400 + ", 0.5", 1, NOT_A_NUMBER),
    ("0.5, 0.5, " + "9" * 400 + ', "x"', 2, "number out of range"),
    ("true", 0, NOT_A_NUMBER),
])
def test_first_faulty_entry_is_named(entries, index, message):
    # Entries are checked in order, and before the entry count.
    assert raised(parse_network, two_variables(entries)) == (
        FormatError, f"variable 'B': cpt[{index}]: {message}")
    net = parse_network(two_variables("0.8, 0.2, 0.2, 0.8"))
    assert raised(parse_constraints, pair_constraint(entries), net) == (
        FormatError, f"constraints[0]: dist[{index}]: {message}")


def test_entry_count_is_checked_before_ranges():
    assert raised(parse_network, two_variables("1.5, 0.5, 0.5")) == (
        FormatError, "variable 'B': cpt has 3 entries, expected 4 for shape "
        "(2, 2)")


BAD_ROW_B = (NormalizationError, "CPT for 'B': row 0 (A=0) sums to "
             "1.1000000000000001, more than 1e-09 away from 1")
BAD_ROW_A = (NormalizationError, "CPT for 'A': row 0 (no parents) sums to "
             "1.1000000000000001, more than 1e-09 away from 1")
RANGE_B = (ValidationError, "CPT for 'B': entries must lie in [0, 1]")
ROW_SUM_1_1 = [0.8, 0.3, 0.2, 0.8]


@pytest.mark.parametrize("changes, error", [
    # A CPT fault wins over a schema fault of any later variable ...
    ({"A": {"cpt": [0.5, 0.6]}, "D": {"parents": ["Z"]}}, BAD_ROW_A),
    ({"B": {"cpt": ROW_SUM_1_1}, "C": {"cpt": [0.6, "0.4", 0.3, 0.7]}},
     BAD_ROW_B),
    ({"B": {"cpt": ROW_SUM_1_1}, "D": {"cpt": [True, 0.1, 0.5, 0.5]}},
     BAD_ROW_B),
    ({"B": {"cpt": ROW_SUM_1_1}, "C": {"colour": "red"}}, BAD_ROW_B),
    ({"B": {"cpt": ROW_SUM_1_1}, "D": {"cardinality": 1, "cpt": [1.0, 1.0]}},
     BAD_ROW_B),
    ({"B": {"cpt": ROW_SUM_1_1},
      "C": {"parents": ["B", "B"], "cpt": [0.5] * 8}}, BAD_ROW_B),
    ({"B": {"cpt": ROW_SUM_1_1}, "C": {"parents": ["C"]}}, BAD_ROW_B),
    ({"A": {"cpt": [0.5, 0.6]}, "B": {"cpt": [0.8, 0.2, 0.2]}}, BAD_ROW_A),
    # ... over the network's cycle check ...
    ({"B": {"cpt": [0.8, 0.2, -0.2, 1.2]}, "C": {"parents": ["D"]}},
     RANGE_B),
    # ... and over a CPT fault of a later variable, whichever its kind.
    ({"B": {"cpt": ROW_SUM_1_1}, "C": {"cpt": [0.6, 1.4, 0.3, 0.7]}},
     BAD_ROW_B),
    ({"B": {"cpt": [0.8, 0.2, 1.5, -0.5]}, "C": {"cpt": [0.6, 0.5, 0.3, 0.7]}},
     RANGE_B),
    # Within one CPT: its parents first, then its ranges, then its rows.
    ({"B": {"cpt": [0.5, 0.4, -0.1, 1.1]}}, RANGE_B),
    ({"B": {"parents": ["A", "A"], "cpt": [1.5] * 8}},
     (ValidationError, "CPT for 'B': duplicate parent")),
    # Every name and cardinality is read before any CPT, so a declaration
    # fault of a later variable wins, and so does an earlier entry count.
    ({"A": {"cpt": [0.5, 0.6]}, "D": {"name": 4}},
     (FormatError, "variables[3]: name: expected a string")),
    ({"A": {"cpt": [0.5, 0.5, 0.0]}, "B": {"cpt": ROW_SUM_1_1}},
     (FormatError, "variable 'A': cpt has 3 entries, expected 2 for shape "
      "(2)")),
])
def test_first_fault_of_a_network_document_wins(changes, error):
    assert raised(parse_network, chain4(**changes)) == error


@pytest.mark.parametrize("cards, entries, error", [
    ((-1, 0), 0, (ValidationError, "variable 'B': cardinality must be an "
                  "integer >= 2, got -1")),
    ((-2, -2), 8, (ValidationError, "variable 'B': cardinality must be an "
                   "integer >= 2, got -2")),
    ((2 ** 64, 0), 0, (FormatError, "variable 'B': cpt has 0 entries, "
                       f"expected {2 ** 64} for shape ({2 ** 64})")),
])
def test_a_later_parent_with_no_valid_shape_fails_in_its_turn(
        tmp_path, capsys, cards, entries, error):
    # A's CPT shape takes B's and C's cardinalities before their own
    # entries are read.  Its entry count matches, but numpy can make no
    # array of shape (-1, 0, 2), (-2, -2, 2) or (2^64, 0, 2), so the error
    # raised is B's, the next fault in document order, not a numpy error.
    doc = json.dumps({"format_version": 1, "variables": [
        {"name": "A", "cardinality": 2, "parents": ["B", "C"],
         "cpt": [0.5] * entries},
        {"name": "B", "cardinality": cards[0], "parents": [], "cpt": []},
        {"name": "C", "cardinality": cards[1], "parents": [], "cpt": []}]})
    assert raised(parse_network, doc) == error
    (tmp_path / "net.json").write_text(doc)
    (tmp_path / "cons.json").write_text(pair_constraint("0.25"))
    capsys.readouterr()
    assert cli.main(["check", "--network", str(tmp_path / "net.json"),
                     "--constraints", str(tmp_path / "cons.json")]) \
        == cli.EXIT_INVALID_INPUT
    assert capsys.readouterr().err == f"error: {error[1]}\n"


@pytest.mark.parametrize("entries, top, error", [
    ([{"scope": ["A"], "dist": [0.5, 0.6]}, {"scope": ["Z"], "dist": [0.5, 0.5]}],
     {}, (NormalizationError, "joint table over ('A',): sums to "
          "1.1000000000000001, more than 1e-09 away from 1")),
    ([{"scope": ["A", "C"], "dist": [0.5, -0.1, 0.3, 0.3]},
      {"scope": ["B"], "dist": [1.0]}],
     {}, (ValidationError, "joint table over ('A', 'C'): negative or NaN "
          "entry")),
    ([{"scope": ["A"], "dist": [float("nan"), 0.5]},
      {"scope": ["B", "B"], "dist": [0.25] * 4}],
     {}, (ValidationError, "joint table over ('A',): negative or NaN entry")),
    ([{"scope": ["B"], "dist": [0.5, 0.5]},
      {"scope": ["C"], "dist": ["0.5", 0.5]},
      {"scope": ["D"], "dist": [0.5, 0.6]}],
     {}, (FormatError, "constraints[1]: dist[0]: expected a number")),
    ([{"scope": ["B"], "dist": [0.5, 0.5]},
      {"scope": ["C"], "dist": [0.5, 0.6]}, {"dist": [0.5, 0.5]}],
     {}, (NormalizationError, "joint table over ('C',): sums to "
          "1.1000000000000001, more than 1e-09 away from 1")),
    ([{"scope": ["A"], "dist": [0.5, 0.6]}], {"colour": "red"},
     (FormatError, "constraint document: unknown keys ['colour']")),
])
def test_first_fault_of_a_constraint_document_wins(entries, top, error):
    data = json.dumps({"format_version": 1, "constraints": entries,
                       **top}).encode()
    assert raised(parse_constraints, data, parse_network(chain4())) == error


@pytest.mark.parametrize("changes, message", [
    ({"C": {"name": "50%"}, "D": {"name": "50%"}},
     "variables[3]: duplicate variable '50%'"),
    ({"D": {"name": "%s", "parents": ["%d"]}},
     "variable '%s': parent '%d' is not declared"),
    ({"D": {"name": "%(x)s", "cpt": None}}, "variable '%(x)s': cpt: expected an array"),
])
def test_messages_carry_names_with_percent_signs_verbatim(changes, message):
    # The check messages are formatted only on failure, from templates;
    # a name is always an argument, never part of the template.
    assert raised(parse_network, chain4(**changes)) == (FormatError, message)
    data = json.dumps({"format_version": 1, "constraints": [
        {"scope": ["A", "%s"], "dist": [0.25] * 4}]})
    assert raised(parse_constraints, data, parse_network(chain4())) == (
        FormatError, "constraints[0]: unknown variable '%s'")


def test_state_labels_survive_parse_then_serialize(tmp_path):
    # Labels with a quote and a letter outside ASCII, in canonical bytes.
    blob = serialize_network(parse_network(chain4(
        A={"states": ['say "lo"', "hi"]}, C={"states": ["caf\u00e9", "tea"]})))
    net = parse_network(blob)
    assert net.variables[0].states == ('say "lo"', "hi")
    assert net.variables[2].states == ("caf\u00e9", "tea")
    assert net.variables[1].states is None
    assert serialize_network(net) == blob
    # ``run`` writes its network with the input's declarations, labels
    # included, in the same canonical form.
    (tmp_path / "net.json").write_bytes(blob)
    (tmp_path / "cons.json").write_bytes(serialize_constraints([
        nets.constraint_over(net, ("A", "C"), [[0.3, 0.2], [0.1, 0.4]])]))
    assert cli.main(["run", "--network", str(tmp_path / "net.json"),
                     "--constraints", str(tmp_path / "cons.json"),
                     "--algorithm", "d-ipfp",
                     "--out", str(tmp_path / "out.json")]) == 0
    written = (tmp_path / "out.json").read_bytes()
    out = parse_network(written)
    assert [v.states for v in out.variables] == [v.states
                                                 for v in net.variables]
    assert serialize_network(out) == written
    assert written != blob


def constraints_on_chain4(data: bytes):
    return parse_constraints(data, parse_network(chain4()))


@pytest.mark.parametrize("parse, data, message", [
    (parse_network, chain4(A={"parents": [1]}),
     "variable 'A': parents[0]: expected a string"),
    (parse_network, chain4(A={"states": ["lo", 2]}),
     "variable 'A': states[1]: expected a string"),
    (constraints_on_chain4, json.dumps({"format_version": 1, "constraints": [
        {"scope": [None], "dist": [0.5, 0.5]}]}).encode(),
     "constraints[0]: scope[0]: expected a string"),
], ids=["parents", "states", "scope"])
def test_non_string_list_entry_is_named(parse, data, message):
    # A list of names is type-checked in one pass; only on a failure is the
    # offending entry looked for, and the message names its index.
    assert raised(parse, data) == (FormatError, message)


# fuzzing: mangled documents must fail loudly, never crash oddly


def test_fuzzed_network_documents_never_crash(diamond_net):
    blob = serialize_network(diamond_net)
    rnd = random.Random(20240818)
    accepted = 0
    for _ in range(200):
        raw = bytearray(blob)
        for _ in range(rnd.randint(1, 4)):
            kind = rnd.randrange(3)
            pos = rnd.randrange(len(raw))
            if kind == 0 and len(raw) > 10:
                del raw[pos]
            elif kind == 1:
                raw[pos] = rnd.randrange(256)
            else:
                raw = raw[:pos]
        try:
            parse_network(bytes(raw))
            accepted += 1
        except BnError:
            pass
    # A few mutations can leave a still-valid document (for example a digit
    # flip inside a CPT float); anything else must raise inside the family.
    assert accepted < 40


def test_fuzzed_structural_mutations_fail_cleanly(diamond_net):
    doc = doc_of(serialize_network(diamond_net))
    rnd = random.Random(7)
    for _ in range(100):
        bad = json.loads(json.dumps(doc))
        choice = rnd.randrange(5)
        if choice == 0:
            bad["variables"][rnd.randrange(4)]["cpt"].pop()
        elif choice == 1:
            v = bad["variables"][rnd.randrange(4)]
            if v["cpt"]:
                v["cpt"][rnd.randrange(len(v["cpt"]))] *= -1.0
        elif choice == 2:
            bad["variables"][rnd.randrange(4)]["parents"].append("ZZ")
        elif choice == 3:
            bad["variables"][rnd.randrange(4)].pop("cardinality")
        else:
            bad["variables"].append(bad["variables"][0])
        raised = True
        try:
            parse_network(json.dumps(bad).encode())
            raised = False
        except BnError:
            pass
        if choice == 1 and not raised:
            # flipping the sign of an exact zero changes nothing
            continue
        assert raised, f"mutation {choice} was accepted"
