"""Command line behavior: exit codes, messages, file handling."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

import nets
from bnrefit import (
    Cpt,
    NetworkSpec,
    VariableDecl,
    joint_from_network,
    parse_network,
    run_d_ipfp,
    serialize_constraints,
    serialize_network,
)
from bnrefit import cli


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
    monkeypatch.setattr(cli, "run_d_ipfp",
                        functools.partial(run_d_ipfp, subnet_budget=3))
    net_path = write_net(tmp_path, diamond_net)
    cons_path = write_cons(tmp_path, [diamond_r3])
    code = cli.main(["run", "--network", net_path, "--constraints", cons_path,
                     "--algorithm", "d-ipfp",
                     "--out", str(tmp_path / "out.json")])
    assert code == cli.EXIT_SUBNET_BUDGET


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


def test_exit_dense_ceiling_divergence(tmp_path):
    net_path = write_net(tmp_path, long_chain(26))
    assert cli.main(["divergence", net_path, net_path]) \
        == cli.EXIT_DENSE_CEILING


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


def many_state_net(n=12, card=64):
    """Independent ``card``-state variables: few variables, card**n cells."""
    decls = tuple(VariableDecl(f"V{i:02d}", card) for i in range(n))
    row = np.arange(1.0, card + 1.0)
    row = row / row.sum()
    return NetworkSpec(decls, {}, {d.name: Cpt(d.name, (), row)
                                   for d in decls})


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
    net = many_state_net()
    net_path = write_net(tmp_path, net)
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(net, ("V00",), net.cpts["V00"].table),
    ])
    report_path = tmp_path / "report.json"
    if command == "check":
        argv = ["check", "--network", net_path, "--constraints", cons_path]
    elif command == "divergence":
        argv = ["divergence", net_path, net_path]
    else:
        argv = ["run", "--network", net_path, "--constraints", cons_path,
                "--algorithm", command, "--out", str(tmp_path / "out.json"),
                "--report", str(report_path)]
    assert cli.main(argv) == expected
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command == "check":
        assert "structural residual: skipped" in captured.out
    elif command == "d-ipfp":
        report = json.loads(report_path.read_text())
        assert report["final_divergence"] == 0.0
        assert report["structural_residual"] is None
    else:
        assert "ceiling" in captured.err


def test_exit_invalid_input(tmp_path, chain_net):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{broken")
    cons_path = write_cons(tmp_path, [
        nets.constraint_over(chain_net, ("B",), [0.3, 0.7]),
    ])
    assert cli.main(["run", "--network", str(bad), "--constraints", cons_path,
                     "--out", str(tmp_path / "o.json")]) \
        == cli.EXIT_INVALID_INPUT


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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])
    assert err.value.code == 2


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
