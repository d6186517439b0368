"""Command line behavior: exit codes, messages, file handling."""

import contextlib
import io
import json
import logging
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nets
from bnrefit import (
    TAU_NORM,
    Cpt,
    NetworkSpec,
    VariableDecl,
    generate_instance,
    i_divergence,
    joint_from_network,
    parse_network,
    run_d_ipfp,
    run_e_ipfp,
    serialize_constraints,
    serialize_network,
)
from bnrefit import cli, decomposed
from bnrefit.elimination import _ancestral


def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    path.write_bytes(serialize_network(net))
    return str(path)


def write_cons(tmp_path, constraints, name="cons.json"):
    path = tmp_path / name
    path.write_bytes(serialize_constraints(constraints))
    return str(path)


def long_chain(n):
    decls = tuple(VariableDecl(f"X{i:02d}", 2) for i in range(n))
    parents = {decls[i].name: (decls[i - 1].name,) for i in range(1, n)}
    cpts = {decls[0].name: Cpt(decls[0].name, (), np.array([0.6, 0.4]))}
    for i in range(1, n):
        cpts[decls[i].name] = Cpt(decls[i].name, (decls[i - 1].name,),
                                  np.array([[0.7, 0.3], [0.2, 0.8]]))
    return NetworkSpec(decls, parents, cpts)


# the happy path, end to end


@pytest.mark.parametrize("algorithm", ["e-ipfp", "d-ipfp"])
def test_gen_run_check_pipeline(tmp_path, capsys, algorithm):
    net_path = str(tmp_path / "gen_net.json")
    cons_path = str(tmp_path / "gen_cons.json")
    assert cli.main(["gen", "--seed", "3", "--nodes", "8",
                     "--num-constraints", "3",
                     "--network", net_path, "--constraints", cons_path]) == 0
    out_path = str(tmp_path / "fitted.json")
    report_path = str(tmp_path / "report.json")
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", algorithm, "--out", out_path,
                     "--report", report_path])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    assert cli.main(["check", "--network", out_path,
                     "--constraints", cons_path]) == 0
    out = capsys.readouterr().out
    assert "result: all 3 constraints met" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["algorithm"] == algorithm
    assert report["termination"] == "converged"


def test_run_ipfp_extraction_drifts_off_nonlocal_constraint(
        tmp_path, capsys, diamond_net, diamond_r3):
    # Plain IPFP satisfies the constraint in its dense joint, but the written
    # artifact is that joint re-expressed over the DAG, and re-expression
    # moves it.  check exposes the drift instead of hiding it.
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [diamond_r3])
    out_path = str(tmp_path / "out.json")
    assert cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "ipfp", "--out", out_path]) == 0
    capsys.readouterr()
    assert cli.main(["check", "--network", out_path,
                     "--constraints", cons_path]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_check_reports_violations(tmp_path, capsys, chain_net):
    net_path = write_net(tmp_path, chain_net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(chain_net, ("B",), [0.3, 0.7]),
    ])
    assert cli.main(["check", "--network", net_path,
                     "--constraints", cons_path]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert "1 of 1 constraints violated" in out


def test_check_with_no_constraints_exits_0(tmp_path, capsys, monkeypatch):
    # No variable is constrained, so there is no joint to read a
    # structural residual off, and none is built.
    def refuse(net):
        raise AssertionError("built a joint")

    monkeypatch.setattr(cli, "joint_from_network", refuse)
    net_path = write_net(tmp_path, nets.many_state_net())
    assert cli.main(["check", "--network", net_path, "--constraints",
                     write_cons(tmp_path, [])]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "structural residual: skipped (no constraint names a variable)" \
        in out
    assert "result: all 0 constraints met" in out


@pytest.mark.parametrize("seed", range(20))
def test_check_reads_the_structural_residual_off_the_ancestral_joint(
        tmp_path, capsys, monkeypatch, seed):
    # The criterion-1 instances, fitted by e-ipfp and d-ipfp: the joint
    # check builds holds exactly the constrained variables and their
    # ancestors, and factors over their families within TAU_NORM.
    net, constraints = generate_instance(seed, 10 + seed % 6, 4 + seed % 3)
    want = _ancestral(net.parents, [v for r in constraints for v in r.scope],
                      net.rank)
    built = []

    def spy(sub):
        built.append(sub.names)
        return joint_from_network(sub)

    monkeypatch.setattr(cli, "joint_from_network", spy)
    cons_path = write_cons(tmp_path, constraints)
    for solve in (run_e_ipfp, run_d_ipfp):
        out_path = write_net(tmp_path, solve(net, constraints)[0], "out.json")
        capsys.readouterr()
        assert cli.main(["check", "--network", out_path,
                         "--constraints", cons_path]) == cli.EXIT_OK
        gap = float(re.search(r"^structural residual: (\S+)$",
                              capsys.readouterr().out, re.M).group(1))
        assert gap <= TAU_NORM
    assert built == [tuple(n for n in net.names if n in want)] * 2


def test_run_empty_constraints_writes_canonical_input(tmp_path, chain_net):
    net_path = write_net(tmp_path, chain_net)
    cons_path = write_cons(tmp_path, [])
    out_path = tmp_path / "out.json"
    report_path = tmp_path / "report.json"
    assert cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--out", str(out_path),
                     "--report", str(report_path)]) == 0
    assert out_path.read_bytes() == serialize_network(chain_net)
    assert json.loads(report_path.read_text())["cycles"] == 0


def test_run_output_satisfies_constraints(tmp_path, diamond_net, diamond_r3):
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [diamond_r3])
    out_path = str(tmp_path / "out.json")
    assert cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "d-ipfp", "--out", out_path]) == 0
    assert cli.main(["check", "--network", out_path,
                     "--constraints", cons_path]) == 0


def test_run_root_scope_e_and_d_agree(tmp_path, diamond_net):
    # A constraint on a root variable folds into that variable's own CPT, so
    # the structural and the decomposed algorithm land on the same network.
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(diamond_net, ("A",), [0.45, 0.55]),
    ])
    eps = 1e-9
    out_e = tmp_path / "e.json"
    out_d = tmp_path / "d.json"
    for algorithm, out in (("e-ipfp", out_e), ("d-ipfp", out_d)):
        assert cli.main(["run", "--network", net_path,
                         "--constraints", cons_path,
                         "--algorithm", algorithm,
                         "--epsilon", str(eps), "--out", str(out)]) == 0
    qe = joint_from_network(parse_network(out_e.read_bytes()))
    qd = joint_from_network(parse_network(out_d.read_bytes()))
    assert np.max(np.abs(qe.probs - qd.probs)) <= 10 * eps


# exit codes


def test_exit_oscillating(tmp_path, chain_net):
    net_path = write_net(tmp_path, chain_net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(chain_net, ("B",), [0.8, 0.2]),
        nets.constraint_over(chain_net, ("B",), [0.1, 0.9]),
    ])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "e-ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_OSCILLATING


def test_exit_max_cycles(tmp_path, diamond_net, diamond_r3):
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [diamond_r3])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "e-ipfp", "--max-cycles", "1",
                     "--epsilon", "1e-15",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_MAX_CYCLES


def test_exit_dominance(tmp_path):
    net = NetworkSpec((VariableDecl("A", 2),), {},
                      {"A": Cpt("A", (), np.array([1.0, 0.0]))})
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(net, ("A",), [0.5, 0.5]),
    ])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_DOMINANCE


def test_exit_dominance_nonlocal_d_ipfp(tmp_path, capsys):
    net = nets.diamond_without_a1()
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [nets.diamond_r3(net)])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "d-ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_DOMINANCE
    assert "(A=1, D=0)" in capsys.readouterr().err


def test_exit_subnet_budget(tmp_path, monkeypatch, diamond_net, diamond_r3):
    monkeypatch.setattr(decomposed, "SUBNET_BUDGET", 3)
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [diamond_r3])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "d-ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_SUBNET_BUDGET


def many_state_subnet_net(card=16):
    """Eight ``card``-state variables with ``A <- R1,R2,R3``, ``B <- A`` and
    ``D <- B,Q1,Q2``: the pair (A, D) spans a subnet of all eight."""
    parents = {"A": ("R1", "R2", "R3"), "B": ("A",), "D": ("B", "Q1", "Q2")}
    names = ("R1", "R2", "R3", "A", "B", "Q1", "Q2", "D")
    cpts = {}
    for name in names:
        shape = (card,) * (len(parents.get(name, ())) + 1)
        cpts[name] = Cpt(name, parents.get(name, ()), np.full(shape, 1 / card))
    return NetworkSpec(tuple(VariableDecl(n, card) for n in names), parents,
                       cpts)


def test_exit_subnet_budget_counts_cells(tmp_path, capsys):
    # Eight variables are under a budget of 20, but 16^8 = 2^32 cells are
    # not: the run must refuse the subnet before allocating it.
    net = many_state_subnet_net()
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(net, ("A", "D"), np.full((16, 16), 1 / 256)),
    ])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "d-ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_SUBNET_BUDGET
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "2^32 cells" in err


def test_exit_dense_ceiling_run(tmp_path):
    net = long_chain(26)
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(net, ("X00",), [0.5, 0.5]),
    ])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_DENSE_CEILING


def with_tables(net, names, table):
    """``net`` with the CPTs of ``names`` replaced by ``table(name)``."""
    return NetworkSpec(net.variables, net.parents, dict(net.cpts, **{
        n: Cpt(n, net.parents[n], table(n)) for n in names}))


def test_exit_dense_ceiling_divergence(tmp_path):
    # The twin differs in the chain's last CPT, whose ancestors are every
    # variable, so divergence must compare the full 2^26-cell joints.
    net = long_chain(26)
    twin = with_tables(net, net.names[-1:],
                       lambda n: np.array([[0.6, 0.4], [0.1, 0.9]]))
    assert cli.main(["divergence", write_net(tmp_path, twin, "twin.json"),
                     write_net(tmp_path, net)]) == cli.EXIT_DENSE_CEILING


def test_d_ipfp_clears_the_ceiling(tmp_path, capsys):
    # The decomposed algorithm never touches the dense joint, so the same
    # network that trips ipfp runs fine and still reports its divergence.
    net = long_chain(26)
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(net, ("X00",), [0.5, 0.5]),
    ])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "d-ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert 0.0 < float(out.split("divergence ")[1].split(";")[0]) < np.inf


@pytest.mark.parametrize("command, expected", [
    ("check", cli.EXIT_OK),
    ("divergence", cli.EXIT_DENSE_CEILING),
    ("ipfp", cli.EXIT_DENSE_CEILING),
    ("e-ipfp", cli.EXIT_DENSE_CEILING),
    ("d-ipfp", cli.EXIT_OK),
], ids=["check", "divergence", "ipfp", "e-ipfp", "d-ipfp"])
def test_dense_ceiling_counts_cells(tmp_path, capsys, command, expected):
    # Twelve 64-state variables are few, but their joint has 64^12 cells:
    # every dense gate must refuse it by cell count, before allocating.
    # The count prints as a power of two, never as a long integer.  Each
    # variable carries a constraint, so the joint of the constrained
    # variables and their ancestors, which e-ipfp and check build, is the
    # full joint too.
    net = nets.many_state_net()
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(net, (name,), net.cpts[name].table)
        for name in net.names
    ])
    report_path = tmp_path / "report.json"
    if command == "check":
        argv = ["check", "--network", net_path, "--constraints", cons_path]
    elif command == "divergence":
        # The twin differs in every CPT, so the joints compared are the
        # full ones.
        twin = with_tables(net, net.names, lambda n: net.cpts[n].table[::-1])
        argv = ["divergence", write_net(tmp_path, twin, "twin.json"),
                net_path]
    else:
        argv = ["run", "--network", net_path, "--constraints", cons_path,
                "--algorithm", command, "--out", str(tmp_path / "out.json"),
                "--report", str(report_path)]
    assert cli.main(argv) == expected
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert not re.search(r"\d{20}", captured.out + captured.err)
    if command == "check":
        assert "structural residual: skipped (the dense joint of 2^72 cells" \
            in captured.out
        assert ("check reads it off the joint of the constrained variables "
                "and their ancestors, 12 of the 12 variables)") in captured.out
    elif command == "divergence":
        assert ("divergence compares the joints of the variables whose "
                "families differ and their ancestors, 12 of the 12 "
                "variables: the dense joint of 2^72 cells") in captured.err
    elif command == "e-ipfp":
        assert ("the joint of the constrained variables and their ancestors, "
                "12 of the 12 variables: the dense joint of 2^72 cells") \
            in captured.err
    elif command == "d-ipfp":
        report = json.loads(report_path.read_text())
        assert report["final_divergence"] == 0.0
        assert report["structural_residual"] is None
    else:
        assert "ceiling" in captured.err
        assert "dense joint of 2^72 cells" in captured.err


def test_exit_invalid_input(tmp_path, capsys, chain_net):
    bad = tmp_path / "bad.json"
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(chain_net, ("B",), [0.3, 0.7]),
    ])
    # The second document nests deeper than the JSON parser can recurse.
    for data in (b"{broken", b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(data)
        assert cli.main(["run", "--network", str(bad),
                         "--constraints", cons_path,
                         "--out", str(tmp_path / "o.json")]) \
            == cli.EXIT_INVALID_INPUT
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("digits", [400, 5000])
@pytest.mark.parametrize("document", ["network", "constraints"])
def test_exit_invalid_input_on_huge_integer_literal(tmp_path, capsys,
                                                    document, digits):
    # A 400-digit integer overflows a float, and a 5,000-digit one is past
    # the digit limit of Python's int parser; neither is a probability.
    net_path = str(tmp_path / "net.json")
    cons_path = str(tmp_path / "cons.json")
    assert cli.main(["gen", "--seed", "0", "--nodes", "4",
                     "--network", net_path, "--constraints", cons_path]) == 0
    path, key = ((net_path, "cpt") if document == "network"
                 else (cons_path, "dist"))
    with open(path) as f:
        text = f.read()
    text = re.sub(rf'("{key}": \[)[^,\]]+', rf"\g<1>{'9' * digits}", text,
                  count=1)
    with open(path, "w") as f:
        f.write(text)
    capsys.readouterr()
    code = cli.main(["check", "--network", net_path,
                     "--constraints", cons_path])
    assert code == cli.EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if digits == 400:
        assert f"{key}[0]: number out of range" in err


def test_memory_error_exits_8(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_divergence", exhausted)
    assert cli.main(["divergence", "p.json", "q.json"]) \
        == cli.EXIT_DENSE_CEILING
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: allocation failed: out of memory\n"


@pytest.mark.parametrize("document", ["network", "constraints"])
def test_exit_invalid_input_on_wrapping_cell_count(tmp_path, capsys, document):
    # Both documents declare a table of 2^64 cells with an empty value list;
    # the cell count wraps to 0 in int64, so it must be counted exactly.
    wide = nets.wide()
    net_path = write_net(tmp_path, wide)
    cons_path = tmp_path / "cons.json"
    cons_path.write_text(json.dumps({
        "format_version": 1,
        "constraints": [{"scope": list(wide.names), "dist": []}],
    }))
    if document == "network":
        (tmp_path / "net.json").write_text(json.dumps({
            "format_version": 1,
            "variables": [
                {"name": "A", "cardinality": 2 ** 32, "parents": ["B"], "cpt": []},
                {"name": "B", "cardinality": 2 ** 32, "parents": [], "cpt": []},
            ],
        }))
    code = cli.main(["check", "--network", net_path,
                     "--constraints", str(cons_path)])
    assert code == cli.EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{2 ** 64} for" in err


@pytest.mark.parametrize("command, document", [
    ("run", "network"), ("check", "network"), ("divergence", "network"),
    ("run", "constraints"), ("check", "constraints"),
])
def test_exit_invalid_input_on_nan(tmp_path, capsys, chain_net, command,
                                   document):
    # json.loads reads the bare token NaN, and NaN fails every < and >
    # test, so a range check written with them lets it through.
    net_doc = json.loads(serialize_network(chain_net))
    cons_doc = json.loads(serialize_constraints([
        nets.constraint_over(chain_net, ("B",), [0.3, 0.7]),
    ]))
    if document == "network":
        net_doc["variables"][0]["cpt"] = [float("nan")] * 2
        named = "'A'"
    else:
        cons_doc["constraints"][0]["dist"] = [float("nan")] * 2
        named = "'B'"
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net_doc))
    cons_path = tmp_path / "cons.json"
    cons_path.write_text(json.dumps(cons_doc))
    good_path = write_net(tmp_path, chain_net, "good.json")
    argv = {
        "run": ["run", "--algorithm", "d-ipfp", "--network", str(net_path),
                "--constraints", str(cons_path),
                "--out", str(tmp_path / "o.json")],
        "check": ["check", "--network", str(net_path),
                  "--constraints", str(cons_path)],
        "divergence": ["divergence", str(net_path), good_path],
    }[command]
    assert cli.main(argv) == cli.EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert named in captured.err
    assert not (tmp_path / "o.json").exists()


def test_exit_missing_file(tmp_path, chain_net):
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(chain_net, ("B",), [0.3, 0.7]),
    ])
    assert cli.main(["run", "--network", str(tmp_path / "absent.json"),
                     "--constraints", cons_path,
                     "--out", str(tmp_path / "o.json")]) \
        == cli.EXIT_INVALID_INPUT


def test_exit_unknown_constraint_variable(tmp_path, chain_net):
    net_path = write_net(tmp_path, chain_net)
    cons = tmp_path / "cons.json"
    cons.write_text(json.dumps({
        "format_version": 1,
        "constraints": [{"scope": ["Z"], "dist": [0.5, 0.5]}],
    }))
    assert cli.main(["check", "--network", net_path,
                     "--constraints", str(cons)]) == cli.EXIT_INVALID_INPUT


@pytest.mark.parametrize("argv, fragment", [
    (["run"], "the following arguments are required: --network"),
    (["gen", "--seed", "-1", "--network", "n.json", "--constraints",
      "c.json"], "argument --seed: must be >= 0, got -1"),
    (["check", "--network", "n.json", "--constraints", "c.json",
      "--epsilon", "1e999"],
     "argument --epsilon: must be positive and finite, got 1e999"),
    (["run", "--network", "n.json", "--constraints", "c.json",
      "--out", "o.json", "--algorithm", "e-ipfp", "--epsilon", "inf"],
     "argument --epsilon: must be positive and finite, got inf"),
    (["run", "--network", "n.json", "--constraints", "c.json",
      "--out", "o.json", "--schedule", "document-order"],
     "unrecognized arguments: --schedule"),
    (["run", "--network", "n.json", "--constraints", "c.json",
      "--out", "o.json", "--max-cycles", "0"],
     "argument --max-cycles: must be >= 1, got 0"),
    (["gen", "--seed", "0", "--nodes", "0", "--network", "n.json",
      "--constraints", "c.json"], "argument --nodes: must be >= 1, got 0"),
], ids=["run-without-options", "gen-negative-seed", "check-infinite-epsilon",
        "run-infinite-epsilon", "run-schedule-removed", "run-zero-max-cycles",
        "gen-zero-nodes"])
def test_usage_error_exits_2(capsys, argv, fragment):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert fragment in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("name, level", [
    ("debug", logging.DEBUG), ("INFO", logging.INFO),
    ("verbose", logging.WARNING), ("basic_format", logging.WARNING)])
def test_log_level_from_the_environment(monkeypatch, name, level):
    # BNREFIT_LOG names a logging level in any case; a name that is no
    # level, such as a logging attribute that is not a number, falls back
    # to warnings instead of failing.
    seen = []
    monkeypatch.setenv("BNREFIT_LOG", name)
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.append(kw))
    cli._configure_logging()
    assert [kw["level"] for kw in seen] == [level]


def test_out_into_missing_directory(tmp_path, chain_net):
    net_path = write_net(tmp_path, chain_net)
    cons_path = write_cons(tmp_path, [])
    target = tmp_path / "nosuchdir" / "out.json"
    assert cli.main(["run", "--network", net_path,
                     "--constraints", cons_path,
                     "--out", str(target)]) == cli.EXIT_INVALID_INPUT
    assert not target.exists()


# divergence subcommand


def test_divergence_of_identical_networks(tmp_path, capsys, chain_net):
    net_path = write_net(tmp_path, chain_net)
    assert cli.main(["divergence", net_path, net_path]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_divergence_matches_report(tmp_path, capsys, diamond_net, diamond_r3):
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [diamond_r3])
    out_path = str(tmp_path / "out.json")
    report_path = tmp_path / "report.json"
    assert cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "e-ipfp", "--out", out_path,
                     "--report", str(report_path)]) == 0
    capsys.readouterr()
    assert cli.main(["divergence", out_path, net_path]) == 0
    printed = float(capsys.readouterr().out.strip())
    reported = json.loads(report_path.read_text())["final_divergence"]
    assert abs(printed - reported) <= 1e-12


@pytest.mark.parametrize("make", [lambda: long_chain(26), nets.many_state_net],
                         ids=["chain", "many-state"])
def test_divergence_of_identical_networks_over_the_ceiling(tmp_path, capsys,
                                                           make):
    # No family differs, so no variable enters the compared joints: the
    # answer is 0 with no joint built, however large the full one.
    net_path = write_net(tmp_path, make())
    tracemalloc.start()
    try:
        code = cli.main(["divergence", net_path, net_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == "0\n"
    assert peak < 2 ** 20


@st.composite
def dag_pairs(draw) -> tuple[NetworkSpec, NetworkSpec]:
    """Two networks over the same declarations with different DAGs.

    2 to 12 variables of 2 to 4 states, at most 2^14 joint cells.  Each
    variable of the second network keeps the first's family with odds of
    one half, where that family fits its own topological order.  In half
    the draws about a fifth of the CPT entries are zero, so infinite
    divergences occur; the other half are finite.  Odd seeds declare the
    variables children first in the first network's order.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    cards = [int(c) for c in rng.integers(2, 5, n)]
    while math.prod(cards) > 2 ** 14:
        cards[int(np.argmax(cards))] -= 1
    names = [f"V{i}" for i in range(n)]
    zeros = 0.2 if seed & 2 else 0.0

    def table(child, parents):
        shape = tuple(cards[p] for p in parents) + (cards[child],)
        t = rng.random(shape) * (rng.random(shape) >= zeros)
        rows = t.reshape(-1, shape[-1])
        dead = rows.sum(axis=1) == 0.0
        rows[dead, rng.integers(0, shape[-1], int(dead.sum()))] = 1.0
        return t / t.sum(axis=-1, keepdims=True)

    def network(order, families):
        decls = [VariableDecl(names[i], cards[i]) for i in order]
        if seed % 2:
            decls.reverse()
        return NetworkSpec(tuple(decls), {
            names[i]: tuple(names[p] for p in ps)
            for i, (ps, _) in families.items()}, {
            names[i]: Cpt(names[i], tuple(names[p] for p in ps), t)
            for i, (ps, t) in families.items()})

    def families(order, keep=None):
        out = {}
        for k, i in enumerate(order):
            if keep is not None and rng.random() < 0.5 and set(
                    keep[i][0]) <= set(order[:k]):
                out[i] = keep[i]
                continue
            earlier = order[:k]
            ps = tuple(int(p) for p in rng.permutation(earlier)[
                :int(rng.integers(0, min(3, k) + 1))])
            out[i] = (ps, table(i, ps))
        return out

    order_p = [int(i) for i in rng.permutation(n)]
    order_q = [int(i) for i in rng.permutation(n)]
    fam_p = families(order_p)
    first = network(order_p, fam_p)
    second = network(order_p, families(order_q, fam_p))
    return first, second


@settings(max_examples=80, deadline=None)
@given(dag_pairs())
def test_divergence_matches_the_full_joints(pair):
    # Outside the differing families and their ancestors every family is
    # shared, so it cancels from log P/Q: the value on the smaller joints
    # is the full joints' divergence, infinite exactly where that is.
    first, second = pair
    want = i_divergence(joint_from_network(first), joint_from_network(second))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp, name)) for name in ("p.json", "q.json")]
        for path, net in zip(paths, pair):
            Path(path).write_bytes(serialize_network(net))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["divergence", *paths]) == cli.EXIT_OK
    got = float(out.getvalue())
    if math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_divergence_requires_matching_declarations(tmp_path, chain_net,
                                                   diamond_net):
    first = write_net(tmp_path, chain_net, "first.json")
    second = write_net(tmp_path, diamond_net, "second.json")
    assert cli.main(["divergence", first, second]) == cli.EXIT_INVALID_INPUT


# gen subcommand


def test_gen_is_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        net = str(tmp_path / f"net_{tag}.json")
        cons = str(tmp_path / f"cons_{tag}.json")
        assert cli.main(["gen", "--seed", "7", "--nodes", "9",
                         "--num-constraints", "4",
                         "--network", net, "--constraints", cons]) == 0
        paths.append((net, cons))
    (net_a, cons_a), (net_b, cons_b) = paths
    assert open(net_a, "rb").read() == open(net_b, "rb").read()
    assert open(cons_a, "rb").read() == open(cons_b, "rb").read()


def test_gen_prints_summary(tmp_path, capsys):
    net = str(tmp_path / "n.json")
    cons = str(tmp_path / "c.json")
    assert cli.main(["gen", "--seed", "1", "--nodes", "8",
                     "--num-constraints", "3",
                     "--network", net, "--constraints", cons]) == 0
    out = capsys.readouterr().out
    assert "8 variables" in out
    assert "3 constraints" in out


# random inputs


DOCUMENTED_EXITS = {int(code) for code in
                    re.findall(r"^  (\d)  ", cli.__doc__, re.MULTILINE)}


@st.composite
def rows_with_zeros(draw, rows: int, card: int) -> list:
    """``rows`` distributions over ``card`` states, flat; one row in four
    has some of its cells zero, but never all."""
    out = []
    for _ in range(rows):
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=card,
                                max_size=card))
        if draw(st.integers(0, 3)) == 0:
            for i in draw(st.lists(st.integers(0, card - 1), max_size=card - 1,
                                   unique=True)):
                weights[i] = 0.0
        out += [w / sum(weights) for w in weights]
    return out


@st.composite
def cli_inputs(draw) -> tuple[dict, dict]:
    """A network document of 1 to 5 variables with 2 to 6 states each,
    declared parents first or children first, and a constraint document
    of 1 to 3 constraints over it."""
    n = draw(st.integers(1, 5))
    topo = [f"V{i}" for i in range(n)]
    cards = {v: draw(st.integers(2, 6)) for v in topo}
    parents = {v: tuple(p for p in topo[:i] if draw(st.booleans()))[:3]
               for i, v in enumerate(topo)}
    declared = topo[::-1] if draw(st.booleans()) else topo
    variables = []
    for v in declared:
        rows = math.prod(cards[p] for p in parents[v])
        variables.append({"name": v, "cardinality": cards[v],
                          "parents": list(parents[v]),
                          "cpt": draw(rows_with_zeros(rows, cards[v]))})
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        scope = draw(st.lists(st.sampled_from(topo), min_size=1,
                              max_size=min(n, 3), unique=True))
        cells = math.prod(cards[v] for v in scope)
        constraints.append({"scope": scope,
                            "dist": draw(rows_with_zeros(1, cells))})
    return ({"format_version": 1, "variables": variables},
            {"format_version": 1, "constraints": constraints})


def invoke(argv: list[str]) -> int:
    """``cli.main(argv)``'s exit code, which must be documented, with no
    traceback on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in DOCUMENTED_EXITS, (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=40, deadline=None)
@given(cli_inputs(), st.sampled_from([1, 3, 40]))
def test_random_inputs_end_in_documented_exit_codes(docs, max_cycles):
    # Zero cells in the CPTs and targets reach the dominance checks, a
    # budget of 1 or 3 cycles the max-cycles exit, and one of 40 room for
    # the oscillation test; any code the docstring does not list, or an
    # exception out of cli.main, fails.
    network, constraints = docs
    with tempfile.TemporaryDirectory() as tmp:
        net_path, cons_path = Path(tmp, "net.json"), Path(tmp, "cons.json")
        net_path.write_text(json.dumps(network))
        cons_path.write_text(json.dumps(constraints))
        for algorithm in ("ipfp", "e-ipfp", "d-ipfp"):
            out_path = Path(tmp, f"{algorithm}.json")
            invoke(["run", "--network", str(net_path),
                    "--constraints", str(cons_path),
                    "--algorithm", algorithm,
                    "--max-cycles", str(max_cycles), "--out", str(out_path)])
            fitted = out_path if out_path.exists() else net_path
            invoke(["check", "--network", str(fitted),
                    "--constraints", str(cons_path)])
            invoke(["divergence", str(fitted), str(net_path)])


# documentation and packaging


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    assert "Exit codes" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bnrefit.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout


def test_e_ipfp_refuses_a_barren_max_product_over_the_ceiling(tmp_path,
                                                               capsys):
    # One constraint on the root of a generated 1000-variable network: the
    # loop's joint is that root's alone, but M's max-product cannot drop a
    # barren CPT, so it eliminates all 999 other variables of a graph far
    # wider than the ceiling.  e-ipfp must refuse from the plan's sizes,
    # before contracting anything; a refused table has at least 2^25 cells
    # (256 MiB), so the peak shows that none was allocated.
    net, _ = generate_instance(0, n_nodes=1000, num_constraints=1)
    root = net.names[0]
    assert not net.parents[root]
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [nets.constraint_over(
        net, (root,), net.cpts[root].table[::-1])])
    tracemalloc.start()
    try:
        code = cli.main(["run", "--network", net_path, "--constraints",
                         cons_path, "--algorithm", "e-ipfp",
                         "--out", str(tmp_path / "out.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_DENSE_CEILING
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "ancestors, 1 of the 1000 variables: its step weight M" in err
    assert re.search(r"a table of 2\^\d+ cells, over the ceiling", err)
    assert peak < 2 ** 23
