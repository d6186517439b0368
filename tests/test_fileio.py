"""File formats: parsing, canonical serialization, atomic writes, fuzzing."""

import json
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
from bnrefit.fileio import _canon, write_atomic
from bnrefit.generate import random_network

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
