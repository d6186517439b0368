"""Dense solvers: single fitting steps, full runs, and termination logic."""

import numpy as np
import pytest

import nets
from bnrefit import (
    Constraint,
    DominanceError,
    JointTable,
    NetworkSpec,
    RunReport,
    Schedule,
    StopPolicy,
    Termination,
    ValidationError,
    VariableDecl,
    constraint_residual,
    extract_cpt,
    i_divergence,
    ipfp_step,
    is_structurally_consistent,
    joint_from_network,
    marginalize,
    run_e_ipfp,
    run_ipfp,
    structural_projection,
)
from bnrefit.core import extract_cpts
from bnrefit.generate import generate_instance, random_network


def uniform_pair():
    decls = (VariableDecl("Y1", 2), VariableDecl("Y2", 2))
    return JointTable(decls, np.full((2, 2), 0.25))


# StopPolicy / Schedule invariants


def test_stop_policy_validation():
    with pytest.raises(ValidationError):
        StopPolicy(epsilon=0.0)
    with pytest.raises(ValidationError):
        StopPolicy(max_cycles=0)
    with pytest.raises(ValidationError):
        StopPolicy(oscillation_window=1)


def test_schedule_must_be_permutation():
    with pytest.raises(ValidationError):
        Schedule((0, 0, 1))
    with pytest.raises(ValidationError):
        Schedule((1, 2))
    assert Schedule.document_order(3).order == (0, 1, 2)


def test_schedule_ancestors_first_sorts_by_deepest_member(diamond_net):
    rs = [
        nets.constraint_over(diamond_net, ("D",), [0.5, 0.5]),
        nets.constraint_over(diamond_net, ("A",), [0.5, 0.5]),
        nets.constraint_over(diamond_net, ("B",), [0.5, 0.5]),
    ]
    sched = Schedule.ancestors_first(diamond_net, rs)
    assert sched.order == (1, 2, 0)


def test_schedule_length_checked_against_constraints(chain_net):
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    with pytest.raises(ValidationError):
        run_ipfp(chain_net, [r], schedule=Schedule((0, 1)))


# ipfp_step


def test_step_already_satisfied_is_identity(chain_net):
    q = joint_from_network(chain_net)
    r = Constraint.over(chain_net, ("B",), marginalize(q, ("B",)).probs)
    assert np.array_equal(ipfp_step(q, r).probs, q.probs)


def test_step_uniform_pair_values():
    q = uniform_pair()
    r = Constraint(("Y1",), JointTable((VariableDecl("Y1", 2),),
                                       np.array([0.3, 0.7])))
    out = ipfp_step(q, r)
    assert np.allclose(out.probs[1], 0.35, atol=1e-15)
    assert np.allclose(out.probs[0], 0.15, atol=1e-15)


def test_step_zero_branch_keeps_zero_rows():
    decls = (VariableDecl("Y1", 2), VariableDecl("Y2", 2))
    q = JointTable(decls, np.array([[0.5, 0.5], [0.0, 0.0]]))
    r = Constraint(("Y1",), JointTable((decls[0],), np.array([1.0, 0.0])))
    out = ipfp_step(q, r)
    assert np.array_equal(out.probs[1], np.array([0.0, 0.0]))
    assert np.allclose(marginalize(out, ("Y1",)).probs, [1.0, 0.0], atol=1e-15)


def test_step_dominance_error_names_cell():
    decls = (VariableDecl("Y1", 2), VariableDecl("Y2", 2))
    q = JointTable(decls, np.array([[0.5, 0.5], [0.0, 0.0]]))
    r = Constraint(("Y1",), JointTable((decls[0],), np.array([0.4, 0.6])))
    with pytest.raises(DominanceError) as err:
        ipfp_step(q, r)
    assert str(err.value) == (
        "constraint over ('Y1',) requires mass 0.59999999999999998 at "
        "(Y1=1) where the current distribution has none")


def test_step_fits_own_constraint_exactly(diamond_net, diamond_r3):
    q = joint_from_network(diamond_net)
    out = ipfp_step(q, diamond_r3)
    assert constraint_residual(out, diamond_r3) <= 1e-12


def test_step_preserves_normalization(diamond_net, diamond_r3):
    out = ipfp_step(joint_from_network(diamond_net), diamond_r3)
    assert abs(float(out.probs.sum()) - 1.0) <= 1e-12


def test_step_is_idempotent(diamond_net, diamond_r3):
    q = joint_from_network(diamond_net)
    once = ipfp_step(q, diamond_r3)
    twice = ipfp_step(once, diamond_r3)
    assert np.max(np.abs(twice.probs - once.probs)) <= 1e-12


# structural_projection


def test_projection_fixes_nothing_on_consistent_table(diamond_net):
    q = joint_from_network(diamond_net)
    assert np.max(np.abs(structural_projection(q, diamond_net).probs
                         - q.probs)) <= 1e-12


def test_projection_changes_ipfp_output(diamond_net, diamond_r3):
    q = ipfp_step(joint_from_network(diamond_net), diamond_r3)
    projected = structural_projection(q, diamond_net)
    assert np.max(np.abs(projected.probs - q.probs)) > 1e-3


@pytest.mark.parametrize("case", ["children-first", "diamond", "random"])
def test_structural_projection_matches_per_family_extraction(case):
    # The projection and ``extract_cpts`` read each family off a
    # declaration-order prefix of the joint; the reference extracts every
    # family from the full joint.
    # The table is random, so the projection moves it.  The cells where the
    # last declared variable is 0 are empty; on the children-first network
    # that variable is a root, so some parent rows have zero mass and fall
    # back to uniform.
    net = {"children-first": nets.children_first,
           "diamond": nets.make_diamond,
           "random": lambda: random_network(np.random.default_rng(3), 5, 3),
           }[case]()
    rng = np.random.default_rng(11)
    scope = joint_from_network(net).scope
    raw = rng.random(tuple(v.cardinality for v in scope))
    raw[..., 0] = 0.0
    q = JointTable(scope, raw / raw.sum())
    cpts = {name: extract_cpt(q, name, net.parents[name]) for name in net.names}
    want = joint_from_network(NetworkSpec(net.variables, net.parents, cpts))
    got = structural_projection(q, net)
    assert np.max(np.abs(got.probs - want.probs)) <= 1e-12
    assert np.max(np.abs(got.probs - q.probs)) > 1e-3
    read = extract_cpts(q, net)
    assert tuple(read) == net.names
    for name in net.names:
        assert np.max(np.abs(read[name].table - cpts[name].table)) <= 1e-12


def test_projection_restores_v_structure_independence():
    net = nets.v_structure()
    rng = np.random.default_rng(7)
    raw = rng.random((2, 2, 2))
    q = JointTable(joint_from_network(net).scope, raw / raw.sum())
    projected = structural_projection(q, net)
    ab = marginalize(projected, ("A", "B")).probs
    outer = np.outer(ab.sum(axis=1), ab.sum(axis=0))
    assert np.max(np.abs(ab - outer)) <= 1e-12


# tables built inside the package


def test_computed_tables_are_read_only(diamond_net, diamond_r3):
    q = joint_from_network(diamond_net)
    before = q.probs.copy()
    stepped = ipfp_step(q, diamond_r3)
    assert np.array_equal(q.probs, before)
    fitted, _ = run_ipfp(diamond_net, [diamond_r3])
    for table in (q, stepped, structural_projection(stepped, diamond_net),
                  marginalize(stepped, ("D", "A")),
                  marginalize(stepped, diamond_net.names), fitted):
        assert not table.probs.flags.writeable


# run_ipfp


def test_run_ipfp_empty_constraints(chain_net):
    q, report = run_ipfp(chain_net, [])
    assert np.array_equal(q.probs, joint_from_network(chain_net).probs)
    assert report.cycles == 0
    assert report.termination is Termination.CONVERGED
    assert report.final_divergence == 0.0


def test_run_ipfp_chain_converges_to_target_marginal(chain_net):
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    q, report = run_ipfp(chain_net, [r])
    assert report.termination is Termination.CONVERGED
    assert np.allclose(marginalize(q, ("B",)).probs, [0.3, 0.7], atol=1e-12)


def test_run_ipfp_chain_divergence_minimal_on_grid(chain_net):
    # Feasible tables with marginal B=(0.3, 0.7) have two free entries;
    # sweep both on a fine grid and check nothing beats the solver.
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    q, report = run_ipfp(chain_net, [r])
    q0 = joint_from_network(chain_net)
    best = np.inf
    for a in np.linspace(1e-6, 0.3 - 1e-6, 120):
        for b in np.linspace(1e-6, 0.7 - 1e-6, 120):
            cand = JointTable(q0.scope,
                              np.array([[a, b], [0.3 - a, 0.7 - b]]))
            best = min(best, i_divergence(cand, q0))
    assert report.final_divergence <= best + 1e-9


def test_run_ipfp_contradictory_constraints_oscillate(chain_net):
    rs = [
        nets.constraint_over(chain_net, ("B",), [0.8, 0.2]),
        nets.constraint_over(chain_net, ("B",), [0.1, 0.9]),
    ]
    q, report = run_ipfp(chain_net, rs)
    assert report.termination is Termination.OSCILLATING
    assert report.cycles <= StopPolicy().max_cycles


def test_run_e_ipfp_hits_cycle_budget(diamond_net, diamond_r3):
    # One cycle cannot satisfy a non-local constraint and also settle, so a
    # budget of 1 must be reported as such, never as convergence.
    out, report = run_e_ipfp(diamond_net, [diamond_r3],
                             StopPolicy(max_cycles=1, epsilon=1e-15),
                             Schedule((0,)))
    assert report.termination is Termination.MAX_CYCLES
    assert report.cycles == 1


def test_run_ipfp_desk_values(diamond_net, diamond_r3):
    q, report = run_ipfp(diamond_net, [diamond_r3])
    assert report.termination is Termination.CONVERGED
    assert max(report.per_constraint_residuals) <= 1e-12
    assert report.final_divergence == pytest.approx(
        nets.DIAMOND_IPFP_DIVERGENCE, abs=1e-12)
    assert report.structural_residual == pytest.approx(
        nets.DIAMOND_IPFP_STRUCTURAL_GAP, abs=1e-12)
    assert not is_structurally_consistent(q, diamond_net, 1e-9)


# run_e_ipfp


def test_run_e_ipfp_fixed_point_when_satisfied(diamond_net):
    q = joint_from_network(diamond_net)
    rs = [Constraint.over(diamond_net, ("B",), marginalize(q, ("B",)).probs)]
    out, report = run_e_ipfp(diamond_net, rs)
    assert report.termination is Termination.CONVERGED
    assert report.cycles == 1
    for name in diamond_net.names:
        assert np.max(np.abs(out.cpts[name].table
                             - diamond_net.cpts[name].table)) <= 1e-9


def test_run_e_ipfp_desk_instance(diamond_net, diamond_r3):
    out, report = run_e_ipfp(diamond_net, [diamond_r3])
    assert report.termination is Termination.CONVERGED
    assert max(report.per_constraint_residuals) <= 1e-9
    q = joint_from_network(out)
    assert is_structurally_consistent(q, diamond_net, 1e-9)
    assert report.final_divergence == pytest.approx(
        nets.DIAMOND_E_DIVERGENCE, abs=1e-12)


def test_run_e_ipfp_divergence_at_least_ipfp(diamond_net, diamond_r3):
    stop = StopPolicy(epsilon=1e-10)
    _, plain = run_ipfp(diamond_net, [diamond_r3], stop)
    _, structured = run_e_ipfp(diamond_net, [diamond_r3], stop)
    assert structured.final_divergence >= plain.final_divergence


def test_run_e_ipfp_output_network_invariants(diamond_net, diamond_r3):
    out, report = run_e_ipfp(diamond_net, [diamond_r3])
    assert out.variables is diamond_net.variables
    assert out.parents == diamond_net.parents
    for name in out.names:
        rows = out.cpts[name].table.reshape(-1, out.cpts[name].table.shape[-1])
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


def test_run_e_ipfp_structural_residual_in_gate(diamond_net, diamond_r3):
    # The result is a network on the input's DAG, so its joint factors by
    # construction and the report carries no structural residual.
    out, report = run_e_ipfp(diamond_net, [diamond_r3])
    assert report.structural_residual is None
    assert is_structurally_consistent(joint_from_network(out), diamond_net,
                                      StopPolicy().epsilon)


def test_monotone_residual_at_fit_time(diamond_net, diamond_r3):
    other = nets.constraint_over(diamond_net, ("B",), [0.45, 0.55])
    q = joint_from_network(diamond_net)
    for _ in range(3):
        for r in (diamond_r3, other):
            q = ipfp_step(q, r)
            assert constraint_residual(q, r) <= 1e-12
    _, report = run_e_ipfp(diamond_net, [diamond_r3, other])
    assert report.termination is Termination.CONVERGED
    assert all(res <= StopPolicy().epsilon
               for res in report.per_constraint_residuals)


def test_slow_consistent_run_is_not_flagged_oscillating(diamond_net, diamond_r3):
    _, report = run_e_ipfp(diamond_net, [diamond_r3], StopPolicy(epsilon=1e-12))
    assert report.termination is Termination.CONVERGED


def test_report_invariants(diamond_net, diamond_r3):
    _, report = run_e_ipfp(diamond_net, [diamond_r3])
    assert isinstance(report, RunReport)
    assert report.log_base == "e"
    assert report.cycles <= StopPolicy().max_cycles
    assert all(res >= 0.0 for res in report.per_constraint_residuals)
    assert report.wall_time >= 0.0


def test_run_validates_constraints_up_front(chain_net):
    bad = Constraint(("Z",), JointTable((VariableDecl("Z", 2),),
                                        np.array([0.5, 0.5])))
    with pytest.raises(Exception):
        run_ipfp(chain_net, [bad])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_e_ipfp_random_instances_converge(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 6, 2, 2)
    q = joint_from_network(net)
    name = net.names[seed % 6]
    target = marginalize(q, (name,)).probs * np.array([0.9, 1.1])
    r = Constraint.over(net, (name,), target / target.sum())
    out, report = run_e_ipfp(net, [r])
    assert report.termination is Termination.CONVERGED
    assert is_structurally_consistent(joint_from_network(out), net, 1e-9)


def test_dense_fit_trajectories_are_pinned():
    # The benchmark's dense-fit instance.  Both solvers are deterministic,
    # so a change to the dense loop that moves the trajectory at all shows
    # up as a different cycle count or divergence.
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    _, e_rep = run_e_ipfp(net, constraints)
    _, i_rep = run_ipfp(net, constraints)
    assert e_rep.termination is Termination.CONVERGED
    assert i_rep.termination is Termination.CONVERGED
    assert (e_rep.cycles, i_rep.cycles) == (68, 9)
    assert e_rep.final_divergence == pytest.approx(0.011291853300081181,
                                                   abs=1e-12)
    assert i_rep.final_divergence == pytest.approx(0.011095154935745748,
                                                   abs=1e-12)
