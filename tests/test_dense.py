"""Dense solvers: single fitting steps, full runs, and termination logic."""

import dataclasses
import functools
import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest

import nets
from bnrefit import (
    BnError,
    Constraint,
    Cpt,
    DenseCeilingError,
    DominanceError,
    JointTable,
    NetworkSpec,
    RunReport,
    ScopeError,
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
    run_d_ipfp,
    run_e_ipfp,
    run_ipfp,
    serialize_network,
    structural_projection,
)
from bnrefit import core, dense
from bnrefit.core import (_block_shape, _blocked, _computed, _ratio,
                          extract_cpts)
from bnrefit.elimination import _ancestral
from bnrefit.generate import generate_instance, random_network


def uniform_pair():
    decls = (VariableDecl("Y1", 2), VariableDecl("Y2", 2))
    return JointTable(decls, np.full((2, 2), 0.25))


# StopPolicy and the solver signatures


def test_stop_policy_validation():
    with pytest.raises(ValidationError):
        StopPolicy(epsilon=0.0)
    with pytest.raises(ValidationError):
        StopPolicy(max_cycles=0)
    with pytest.raises(ValidationError):
        StopPolicy(epsilon=float("inf"))
    with pytest.raises(ValidationError):
        StopPolicy(epsilon=float("nan"))
    with pytest.raises(ValidationError):
        StopPolicy(max_cycles=2.5)
    assert StopPolicy(max_cycles=np.int64(3)).max_cycles == 3


def test_stop_policy_holds_only_epsilon_and_max_cycles():
    # The plateau window is the module constant OSCILLATION_WINDOW.
    assert [f.name for f in dataclasses.fields(StopPolicy)] == [
        "epsilon", "max_cycles"]


# _iterate, the outer loop of all three solvers, on synthetic series.


def _drive(deltas, worst, max_cycles=10_000, maps=1):
    """Run ``dense._iterate`` on the step series ``deltas(cycle)`` and the
    worst residual ``worst``; returns its result, the ``left`` each cycle
    saw and the cycles after which ``measure`` was called."""
    lefts, measured = [], []

    def cycle(left):
        lefts.append(left)
        return deltas(len(lefts)), maps

    def measure():
        measured.append(len(lefts))
        return (worst, 0.0)

    result = dense._iterate(StopPolicy(max_cycles=max_cycles), ["r"], cycle,
                            measure, "cycle %d: step %.3e, worst %.3e")
    return result, lefts, measured


def test_iterate_measures_only_when_a_test_reads_the_residuals():
    # Halving steps never sit within epsilon or within 0.9 of the window's
    # oldest, so only the final read measures.
    result, _, measured = _drive(lambda c: 0.5 ** c, 1e-3, max_cycles=25)
    assert result == (25, (1e-3, 0.0), Termination.MAX_CYCLES)
    assert measured == [25]
    # A step within epsilon is measured for the stop test.
    _, _, measured = _drive(lambda c: 1e-10 if c == 3 else 1.0 / c, 1e-3,
                            max_cycles=5)
    assert measured == [3, 5]
    result, _, measured = _drive(lambda c: 1e-10 if c == 3 else 1.0 / c,
                                 1e-10, max_cycles=5)
    assert result == (3, (1e-10, 0.0), Termination.CONVERGED)
    assert measured == [3]


def test_iterate_flat_series_fires_at_cycle_39(caplog):
    # 19 cycles fill the step window, then 20 flat cycles fill the
    # residual window.
    with caplog.at_level("WARNING", logger="bnrefit"):
        result, _, measured = _drive(lambda c: 1e-3, 1e-2)
    assert result == (39, (1e-2, 0.0), Termination.OSCILLATING)
    assert measured == list(range(20, 40))
    assert "cycle 39: step 1.000e-03, worst 1.000e-02" in caplog.text


def test_iterate_non_flat_cycle_clears_the_residual_window():
    # Cycle 30's step falls below 0.9 times the oldest in the window, so
    # the 10 flat cycles before it no longer count.
    result, _, _ = _drive(lambda c: 1e-6 if c == 30 else 1e-3, 1e-2)
    assert result == (50, (1e-2, 0.0), Termination.OSCILLATING)


def test_iterate_charges_the_cycles_a_cycle_returns():
    result, lefts, _ = _drive(lambda c: 1.0 / c, 1e-3, max_cycles=9, maps=3)
    assert lefts == [9, 6, 3]
    assert result == (9, (1e-3, 0.0), Termination.MAX_CYCLES)


def test_iterate_without_constraints_runs_no_cycle():
    def fail(*args):
        raise AssertionError("called")

    assert dense._iterate(StopPolicy(), [], fail, fail, "") == (
        0, (), Termination.CONVERGED)


def test_solvers_take_the_same_arguments():
    names = {fn.__name__: list(inspect.signature(fn).parameters)
             for fn in (run_ipfp, run_e_ipfp, run_d_ipfp)}
    assert names == dict.fromkeys(
        names, ["net", "constraints", "stop"])


@pytest.mark.parametrize("solve", [run_ipfp, run_e_ipfp, run_d_ipfp])
def test_constraints_visited_in_list_order(chain_net, solve):
    # One cycle over two contradictory constraints on B: the later visit
    # wins, whichever of the two it is.  The dense steps meet it exactly;
    # d-ipfp's row rescaling of B's CPT only moves B's marginal toward it,
    # since B has a parent.
    low = nets.constraint_over(chain_net, ("B",), [0.8, 0.2])
    high = nets.constraint_over(chain_net, ("B",), [0.1, 0.9])
    for first, last in ((low, high), (high, low)):
        _, report = solve(chain_net, [first, last], StopPolicy(max_cycles=1))
        to_first, to_last = report.per_constraint_residuals
        assert to_last < 0.2 < 0.5 < to_first
        if solve is not run_d_ipfp:
            assert to_last <= 1e-12


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


def test_step_on_blocked_and_transposed_tables():
    # A 2^10-cell joint runs the step on a head and a contiguous block of
    # core._BLOCK cells: a constraint over the last declared variable lies
    # inside the block.  A transposed marginal is not C-contiguous.  Both
    # steps equal the explicit q * ratio broadcast.
    rng = np.random.default_rng(5)
    q = joint_from_network(random_network(rng, 10, 2, 3))
    last = q.names[-1]
    target = np.array([0.3, 0.7])
    r = Constraint((last,), JointTable(q.scope[-1:], target))
    want = q.probs * (target / q.probs.sum(axis=tuple(range(9))))
    assert np.max(np.abs(ipfp_step(q, r).probs - want)) <= 1e-15

    t = marginalize(q, q.names[::-1])
    assert not t.probs.flags.c_contiguous
    scope = (t.names[1], t.names[-1])
    raw = rng.random((2, 2))
    r = Constraint(scope, JointTable((t.scope[1], t.scope[-1]),
                                     raw / raw.sum()))
    ratio = r.dist.probs / t.probs.sum(axis=tuple(range(2, 9)) + (0,))
    want = t.probs * ratio.reshape((1, 2) + (1,) * 7 + (2,))
    got = ipfp_step(t, r)
    assert got.scope == t.scope
    assert np.max(np.abs(got.probs - want)) <= 1e-15


def blocked_step(q, r):
    """A proportional step that runs every table, however small, through
    ``marginalize`` and a ``_blocked`` factor over its ``_block_shape``
    view."""
    ratio = _ratio(r.dist.probs, marginalize(q, r.scope).probs, r.scope)
    shape = q.probs.shape
    factor = _blocked(ratio, [q.axis(n) for n in r.scope], shape)
    return (q.probs.reshape(_block_shape(shape)) * factor).reshape(shape)


# Table shapes of 2^4 to 2^12 cells, some with 3-state variables, and the
# axes a ratio spans, none of them next to each other, not all in order.
RESCALE_CASES = {
    "16-cells": ((2, 2, 2, 2), (2, 0)),
    "36-cells": ((3, 2, 3, 2), (1, 3)),
    "144-cells": ((2, 3, 2, 2, 3, 2), (4, 1)),
    "256-cells": ((2,) * 8, (0, 7)),
    "432-cells": ((3, 2, 2, 3, 2, 2, 3), (0, 3, 6)),
    "1024-cells": ((2,) * 10, (8, 2, 5)),
    "2187-cells": ((3,) * 7, (6, 0, 3)),
    "4096-cells": ((2,) * 12, (1, 10)),
}


@pytest.mark.parametrize("core_block", [4, 256])
@pytest.mark.parametrize("case", RESCALE_CASES)
def test_rescaled_paths_agree_to_the_bit(monkeypatch, case, core_block):
    # _rescaled broadcasts the ratio onto a table of at most dense._BLOCK
    # cells and multiplies a larger one by a _blocked factor over its
    # block view.  Each path, forced on every table, with blocks of 4 and
    # of 256 cells, gives the bits of the plain broadcast product.
    shape, axes = RESCALE_CASES[case]
    rng = np.random.default_rng(len(shape))
    probs = rng.random(shape)
    probs /= probs.sum()
    scope = tuple(VariableDecl(f"V{i}", n) for i, n in enumerate(shape))
    q = _computed(scope, probs)
    ratio = rng.uniform(0.0, 2.0, [shape[a] for a in axes])
    ratio.flat[0] = 0.0
    names = [scope[a].name for a in axes]
    want = (probs * core._placed(ratio, axes, len(shape))).tobytes()
    monkeypatch.setattr(core, "_BLOCK", core_block)
    got = {}
    for path, block in (("broadcast", probs.size), ("blocked", 0)):
        monkeypatch.setattr(dense, "_BLOCK", block)
        got[path] = dense._rescaled(q, ratio, names).probs.tobytes()
    assert got == {"broadcast": want, "blocked": want}


@pytest.mark.parametrize("table", ["union-marginal", "joint"])
def test_step_and_residual_are_bit_identical_to_the_blocked_step(table):
    # The dense-fit instance: its union marginal has 128 cells, one block,
    # and its 2^16-cell joint runs on a head and a block.  Six chained
    # steps and every residual after each match to the bit.
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    q = joint_from_network(net)
    if table == "union-marginal":
        q = marginalize(q, dense._union(net, constraints))
        assert q.probs.size <= core._BLOCK
    else:
        assert len(_block_shape(q.probs.shape)) > 1
    for r in constraints:
        want = blocked_step(q, r)
        q = ipfp_step(q, r)
        assert np.array_equal(q.probs, want)
        for s in constraints:
            assert constraint_residual(q, s) == float(np.max(np.abs(
                marginalize(q, s.scope).probs - s.dist.probs)))


def test_step_and_residual_name_a_variable_the_table_lacks(diamond_net):
    q = marginalize(joint_from_network(diamond_net), ("A", "B"))
    r = nets.constraint_over(diamond_net, ("D",), [0.5, 0.5])
    for measure in (ipfp_step, constraint_residual):
        with pytest.raises(ScopeError, match=r"\['D'\] are not in scope"):
            measure(q, r)


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


# the plain map


def reference_plain_map(q, constraints, net, structural):
    """One plain cycle on the joint itself: an ``ipfp_step`` per
    constraint in list order, the projection, then renormalization."""
    for r in constraints:
        q = ipfp_step(q, r)
    if structural:
        q = structural_projection(q, net)
    total = float(q.probs.sum())
    if total != 1.0:
        q = _computed(q.scope, q.probs / total)
    return q


def reweighted_constraints(net, scopes, seed):
    """Constraints over ``scopes``, each the marginal of one reweighting of
    ``net``'s joint by positive noise: jointly satisfiable, and zero
    wherever the joint's own marginal is."""
    q = joint_from_network(net)
    w = q.probs * np.random.default_rng(seed).uniform(0.5, 1.5, q.probs.shape)
    p = JointTable(q.scope, w / w.sum())
    return [Constraint.over(net, scope, marginalize(p, scope).probs)
            for scope in scopes]


def children_first_with_zero():
    """``nets.children_first`` with CPTs redrawn and P(V3=0 | V2=1) = 0,
    so the joint's marginal over (V5, V3, V2, V1) has empty cells."""
    net = nets.children_first()
    rng = np.random.default_rng(4)
    cpts = {}
    for name, cpt in net.cpts.items():
        table = rng.dirichlet(np.full(cpt.table.shape[-1], 1.0),
                              size=cpt.table.size // cpt.table.shape[-1])
        cpts[name] = Cpt(name, net.parents[name],
                         table.reshape(cpt.table.shape))
    table = cpts["V3"].table.copy()  # axes (V2, V3)
    table[1] = (0.0, 1.0)
    cpts["V3"] = Cpt("V3", ("V2",), table)
    net = NetworkSpec(net.variables, net.parents, cpts)
    return net, reweighted_constraints(
        net, [("V3", "V2"), ("V5",), ("V1", "V2")], seed=5)


MAP_CASES = {
    "dense-fit": lambda: generate_instance(0, n_nodes=16, num_constraints=6),
    "cardinality-3": lambda: generate_instance(0, 9, 4, cardinality=3),
    "cardinality-4": lambda: generate_instance(0, 7, 4, cardinality=4),
    "children-first-zero": children_first_with_zero,
}


def plain_maps(net, constraints, structural, count):
    """``(maps, joint)`` after each of the first ``count`` cycles from
    ``net``'s joint.  e-ipfp's are ``_plain_map`` calls, every other one
    handed the union marginal, as its loop hands it, and the rest summing
    it themselves.  ipfp's joint after ``k`` maps is the one ``run_ipfp``
    returns at a budget of ``k`` cycles, which a run that converges
    sooner does not use up."""
    if not structural:
        for budget in range(1, count + 1):
            q, report = run_ipfp(net, constraints,
                                 StopPolicy(max_cycles=budget))
            yield report.cycles, q
        return
    union = dense._union(net, constraints)
    q = joint_from_network(net)
    for i in range(count):
        current = marginalize(q, union) if i % 2 else None
        q = dense._plain_map(q, constraints, net, current)
        yield i + 1, q


def reference_maps(net, constraints, structural, count):
    """The joint after 0 to ``count`` reference maps from ``net``'s."""
    joints = [joint_from_network(net)]
    for _ in range(count):
        joints.append(reference_plain_map(joints[-1], constraints, net,
                                          structural))
    return joints


@pytest.mark.parametrize("structural", [False, True])
@pytest.mark.parametrize("case", sorted(MAP_CASES))
def test_plain_map_matches_steps_on_the_joint(case, structural):
    # e-ipfp's map runs its steps on the union marginal and rescales the
    # joint once a map; ipfp's loop moves only the union marginal and
    # rescales the starting joint once a run.  The reference steps the
    # joint itself.  Only the summation order differs, so the joints after
    # each of ten maps agree cell by cell within 1e-13 relative.
    net, constraints = MAP_CASES[case]()
    union = dense._union(net, constraints)
    q = joint_from_network(net)
    assert len(union) < len(q.scope)
    if case == "children-first-zero":
        assert np.any(marginalize(q, union).probs == 0.0)
    want = reference_maps(net, constraints, structural, 10)
    for maps, got in plain_maps(net, constraints, structural, 10):
        assert got.scope == want[maps].scope
        assert np.array_equal(got.probs == 0.0, want[maps].probs == 0.0)
        assert np.all(np.abs(got.probs - want[maps].probs)
                      <= 1e-13 * want[maps].probs), (case, maps)


@pytest.mark.parametrize("structural", [False, True])
def test_plain_map_over_every_variable_is_the_reference(
        diamond_net, structural):
    # The union marginal is the joint itself, so the steps run on it and
    # nothing is rescaled: the arithmetic is the reference's.
    constraints = reweighted_constraints(
        diamond_net, [("A", "D"), ("B", "C"), ("D",)], seed=2)
    want = reference_maps(diamond_net, constraints, structural, 10)
    for maps, got in plain_maps(diamond_net, constraints, structural, 10):
        assert np.array_equal(got.probs, want[maps].probs)


def test_plain_map_unreachable_target_raises_like_the_reference():
    # P(A=1) = 0, so after the step on B the target over (A, D), which
    # needs mass at A=1, cannot be reached; C is outside the union.  Both
    # e-ipfp's map and ipfp's loop raise at that step.
    net = nets.diamond_without_a1()
    constraints = [nets.constraint_over(net, ("B",), [0.3, 0.7]),
                   nets.diamond_r3(net)]
    assert dense._union(net, constraints) == ("A", "B", "D")
    q = joint_from_network(net)
    with pytest.raises(DominanceError) as want:
        reference_plain_map(q, constraints, net, False)
    assert "constraint over ('A', 'D')" in str(want.value)
    with pytest.raises(DominanceError) as got:
        dense._plain_map(q, constraints, net, None)
    assert str(got.value) == str(want.value)
    with pytest.raises(DominanceError) as got:
        run_ipfp(net, constraints)
    assert str(got.value) == str(want.value)


def test_plain_map_sums_the_joint_once(monkeypatch):
    # On the dense-fit instance the six steps run on a 128-cell union
    # marginal, so the only full-table marginal is the one that makes it.
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    q = joint_from_network(net)
    full = []

    def spy(table, target):
        full.append(table.probs.size == q.probs.size)
        return marginalize(table, target)

    monkeypatch.setattr(dense, "marginalize", spy)
    dense._plain_map(q, constraints, net, None)
    assert sum(full) == 1


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


def test_run_ipfp_builds_and_rescales_the_joint_once(monkeypatch):
    # On the dense-fit instance ipfp's nine cycles move only the 128-cell
    # union marginal: the 2^16-cell joint is built once and rescaled once,
    # at the end, by the fitted marginal over the one it started from.
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    build, rescale = dense.joint_from_network, dense._rescaled
    built, full = [], []

    def joint(n):
        built.append(build(n))
        return built[-1]

    def rescaled(q, ratio, names):
        if q.probs.size == 2 ** 16:
            full.append(q)
        return rescale(q, ratio, names)

    monkeypatch.setattr(dense, "joint_from_network", joint)
    monkeypatch.setattr(dense, "_rescaled", rescaled)
    _, report = run_ipfp(net, constraints)
    assert report.cycles == 9
    assert len(built) == 1
    assert len(full) == 1 and full[0] is built[0]


def criterion_1_instance(seed):
    return generate_instance(seed, n_nodes=10 + seed % 6,
                             num_constraints=4 + seed % 3)


def diamond_without_a1_fit():
    """``nets.diamond_without_a1`` with targets that keep A=1 empty, so
    the union marginal over (A, B, D) has cells without mass."""
    net = nets.diamond_without_a1()
    return net, [nets.constraint_over(net, ("A", "B"), [[0.3, 0.7], [0, 0]]),
                 nets.constraint_over(net, ("D",), [0.6, 0.4])]


IPFP_REPORT_CASES = {
    **{f"criterion-1-seed-{seed}": functools.partial(criterion_1_instance,
                                                     seed)
       for seed in range(20)},
    "dense-fit": lambda: generate_instance(0, n_nodes=16, num_constraints=6),
    "diamond-without-a1": diamond_without_a1_fit,
}


@pytest.mark.parametrize("case", list(IPFP_REPORT_CASES))
def test_run_ipfp_report_describes_the_joint_it_returns(case):
    # The loop reads its residuals and divergence off the union marginal;
    # read off the returned joint they agree within rounding.  The CPTs
    # the joint carries, the ones `run` writes, are extract_cpts' own.
    net, constraints = IPFP_REPORT_CASES[case]()
    q, report = run_ipfp(net, constraints)
    assert report.termination is Termination.CONVERGED
    assert report.final_divergence == pytest.approx(
        i_divergence(q, joint_from_network(net)), rel=1e-12, abs=0.0)
    for got, r in zip(report.per_constraint_residuals, constraints,
                      strict=True):
        assert abs(got - constraint_residual(q, r)) <= 1e-15
    read = extract_cpts(q, net)
    assert list(q.cpts) == list(read)
    for name, cpt in read.items():
        assert np.array_equal(q.cpts[name].table, cpt.table), name


def test_run_e_ipfp_hits_cycle_budget(diamond_net, diamond_r3):
    # One cycle cannot satisfy a non-local constraint and also settle, so a
    # budget of 1 must be reported as such, never as convergence.
    out, report = run_e_ipfp(diamond_net, [diamond_r3],
                             StopPolicy(max_cycles=1, epsilon=1e-15))
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
    assert not is_structurally_consistent(q, diamond_net)


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
    assert is_structurally_consistent(q, diamond_net)
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
    assert is_structurally_consistent(joint_from_network(out), diamond_net)


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
    assert is_structurally_consistent(joint_from_network(out), net)


def test_dense_fit_trajectories_are_pinned():
    # The benchmark's dense-fit instance.  Both solvers are deterministic,
    # so a change to the dense loop that moves the trajectory at all shows
    # up as a different cycle count or divergence.
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    _, e_rep = run_e_ipfp(net, constraints)
    _, i_rep = run_ipfp(net, constraints)
    assert e_rep.termination is Termination.CONVERGED
    assert i_rep.termination is Termination.CONVERGED
    assert (e_rep.cycles, i_rep.cycles) == (15, 9)
    assert e_rep.final_divergence == pytest.approx(0.011291853273630184,
                                                   abs=1e-12)
    assert i_rep.final_divergence == pytest.approx(0.011095154935745748,
                                                   abs=1e-12)


def children_first_without_v3_0():
    """``children_first_with_zero`` with P(V3=0 | V2) = 0 for every V2, so
    the rows of V4's CPT at V3=0 have no parent mass."""
    net, _ = children_first_with_zero()
    table = np.zeros(net.cpts["V3"].table.shape)
    table[:, 1] = 1.0
    net = NetworkSpec(net.variables, net.parents,
                      dict(net.cpts, V3=Cpt("V3", ("V2",), table)))
    return net, reweighted_constraints(
        net, [("V3", "V2"), ("V5",), ("V1", "V2")], seed=5)


CARRIED_CASES = {
    "dense-fit": lambda: generate_instance(0, n_nodes=16, num_constraints=6),
    **{f"criterion-1-seed-{seed}": functools.partial(
        generate_instance, seed, 10 + seed % 6, 4 + seed % 3)
       for seed in range(20)},
    "children-first-zero": children_first_with_zero,
    "children-first-empty-rows": children_first_without_v3_0,
}


@pytest.mark.parametrize("case", list(CARRIED_CASES))
def test_run_e_ipfp_outputs_the_cpts_it_carried(case):
    # The output CPTs are the tables the loop carried, not ones read off
    # its last joint; reading them back off the output's joint gives the
    # same tables, rows without parent mass included: such a row is
    # uniform in both.  With P(V3=0) = 0 on the children-first network,
    # the rows of V4's CPT at V3=0 have no mass.
    net, constraints = CARRIED_CASES[case]()
    out, report = run_e_ipfp(net, constraints)
    assert report.cycles > 0
    q = joint_from_network(out)
    read = extract_cpts(q, net)
    empty = 0
    for name in net.names:
        got = out.cpts[name].table
        assert np.max(np.abs(got - read[name].table)) <= 1e-12, name
        mass = marginalize(q, net.parents[name] + (name,)).probs.sum(axis=-1)
        rows = got[mass == 0.0]
        empty += len(rows)
        assert np.array_equal(rows, np.full(rows.shape, 1 / got.shape[-1]))
    assert (empty > 0) == (case == "children-first-empty-rows")


def test_run_e_ipfp_reads_each_projected_joint_once(monkeypatch):
    # One prefix walk per structural projection, whether or not the map
    # is part of an extrapolation, and none for the output network.
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    calls = {"walks": 0, "projections": 0, "extrapolations": 0,
             "extractions": 0}

    def counted(key, fn):
        def spy(*args):
            calls[key] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(dense, "_conditionals",
                        counted("walks", dense._conditionals))
    monkeypatch.setattr(dense, "structural_projection",
                        counted("projections", dense.structural_projection))
    monkeypatch.setattr(dense, "_squarem",
                        counted("extrapolations", dense._squarem))
    monkeypatch.setattr(core, "extract_cpts",
                        counted("extractions", core.extract_cpts))
    monkeypatch.setattr(core, "extract_cpt",
                        counted("extractions", core.extract_cpt))
    _, report = run_e_ipfp(net, constraints)
    assert report.cycles == calls["projections"] == 15
    assert calls["walks"] == calls["projections"]
    assert calls["extrapolations"] > 0
    assert calls["extractions"] == 0


def test_run_e_ipfp_budget_bounds_extrapolated_maps():
    # The criterion-6 instance ends on its cycle budget while plain maps
    # still crawl; on the dense-fit instance the gate opens after map 6, so
    # budgets from 7 up cover an extrapolation that does not fit, one that
    # fits exactly, and one followed by a plain map.
    net, constraints = generate_instance(0)
    _, report = run_e_ipfp(net, constraints, StopPolicy(max_cycles=5))
    assert report.termination is Termination.MAX_CYCLES
    assert report.cycles == 5
    net, constraints = generate_instance(0, n_nodes=16, num_constraints=6)
    for budget in (7, 8, 9, 10):
        _, report = run_e_ipfp(net, constraints,
                               StopPolicy(max_cycles=budget))
        assert report.termination is Termination.MAX_CYCLES
        assert report.cycles == budget


def test_run_e_ipfp_falls_back_when_candidate_map_fails(
        monkeypatch, diamond_net, diamond_r3):
    # A candidate that takes all mass off A=1, where the constraint over
    # (A, D) needs some, makes its stabilizing map raise DominanceError;
    # each extrapolation then ends on its second plain map, so the run
    # still converges, near the plain map's own limit.
    calls = []

    def failing(theta, t1, t2, row):
        calls.append(1)
        candidate = t2.copy()
        candidate[:2] = (1.0, 0.0)  # A's table comes first
        return candidate, False

    monkeypatch.setattr(dense, "_squarem", failing)
    _, report = run_e_ipfp(diamond_net, [diamond_r3])
    assert calls
    assert report.termination is Termination.CONVERGED
    assert max(report.per_constraint_residuals) <= 1e-9
    assert report.final_divergence == pytest.approx(
        nets.DIAMOND_E_DIVERGENCE, abs=1e-8)


# e-ipfp on the ancestral sub-joint


def kept_and_barren(net, named):
    """An(U), the variables in ``named`` and their ancestors, in
    declaration order, and the other variables."""
    kept = _ancestral(net.parents, set(named), net.rank)
    return (tuple(n for n in net.names if n in kept),
            [n for n in net.names if n not in kept])


def barren_product(net, barren):
    """The product of ``barren``'s CPTs as a dense table over every
    variable of ``net``, axes in declaration order."""
    axes = list(range(len(net.names)))
    operands = [np.ones(tuple(net.cards[n] for n in net.names)), axes]
    for b in barren:
        operands += [net.cpts[b].table,
                     [net.rank[v] for v in net.parents[b] + (b,)]]
    return np.einsum(*operands, axes)


def mixed_network(seed):
    """Up to 12 variables of 2 to 4 states (at most 2^16 cells in all),
    about a fifth of the CPT entries zero, declared children first on odd
    seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    cards = [int(c) for c in rng.integers(2, 5, n)]
    while np.prod(cards) > 2 ** 16:
        cards[cards.index(max(cards))] -= 1
    names = [f"V{i}" for i in range(n)]
    parents, cpts = {}, {}
    for i, name in enumerate(names):
        k = int(rng.integers(0, min(i, 3) + 1))
        parents[name] = tuple(names[j] for j in sorted(
            rng.choice(i, size=k, replace=False))) if k else ()
        shape = tuple(cards[names.index(p)] for p in parents[name]) + (
            cards[i],)
        table = rng.random(shape) * (rng.random(shape) > 0.2)
        table[..., -1] += 0.05
        cpts[name] = Cpt(name, parents[name],
                         table / table.sum(axis=-1, keepdims=True))
    decls = tuple(VariableDecl(v, c) for v, c in zip(names, cards))
    return NetworkSpec(decls[::-1] if seed % 2 else decls, parents, cpts)


@pytest.mark.parametrize("seed", range(30))
def test_barren_weight_is_the_dense_max_of_the_barren_product(seed):
    # For each single constrained variable in turn, M on the sub-joint's
    # axes is the max over the barren variables of their CPTs' product.
    net = mixed_network(seed)
    checked = 0
    for name in net.names:
        kept, barren = kept_and_barren(net, (name,))
        if not barren:
            continue
        want = barren_product(net, barren).max(
            axis=tuple(net.rank[b] for b in barren))
        got = dense._barren_weight(net, kept)
        assert got.ndim == len(kept)
        np.testing.assert_allclose(np.broadcast_to(got, want.shape), want,
                                   rtol=1e-14, atol=0.0)
        checked += 1
    assert checked


@pytest.mark.parametrize("case", sorted(MAP_CASES))
def test_union_weight_is_the_dense_max_of_the_ratio(case):
    # ipfp's M(u) is the largest q0(x) / m0(u) over the cells x that
    # extend u, and 0 where m0(u) is: the divide is monotone, so taking
    # the max over q0 first gives the same bits.
    net, constraints = MAP_CASES[case]()
    q0 = joint_from_network(net)
    m0 = marginalize(q0, dense._union(net, constraints))
    axes = [net.names.index(n) for n in m0.names]
    placed = m0.probs.reshape([size if i in axes else 1
                               for i, size in enumerate(q0.probs.shape)])
    ratio = np.divide(q0.probs, placed, out=np.zeros(q0.probs.shape),
                      where=placed > 0.0)
    other = tuple(i for i in range(q0.probs.ndim) if i not in axes)
    assert np.array_equal(dense._union_weight(q0, m0),
                          ratio.max(axis=other))


def every_cpt_children_first(seed):
    net, constraints = nets.every_cpt_instance(seed)
    return NetworkSpec(net.variables[::-1], net.parents, net.cpts), constraints


WEIGHTED_STEP_CASES = {
    "dense-fit": lambda: generate_instance(0, n_nodes=16, num_constraints=6),
    "criterion-1-seed-13": lambda: generate_instance(13, 11, 5),
    "every-cpt-seed-1-children-first": lambda: every_cpt_children_first(1),
}


@pytest.mark.parametrize("case", list(WEIGHTED_STEP_CASES))
def test_weighted_step_is_the_full_joint_step(monkeypatch, case):
    # Every map's step on the sub-joint, weighted by M, is the max-abs
    # change of the full joint, whose cells are the sub-joint's times the
    # barren CPTs' product.  The change is formed on the sub-joint and
    # multiplied out over all n variables: differencing two multiplied-out
    # joints instead loses up to 4.9e-6 relative to cancellation on the
    # dense-fit instance, whose last step is 1.7e-15.
    net, constraints = WEIGHTED_STEP_CASES[case]()
    kept, barren = kept_and_barren(
        net, [v for r in constraints for v in r.scope])
    assert barren
    w = barren_product(net, barren)
    shape = [net.cards[n] if n in kept else 1 for n in net.names]
    step, seen = dense._step, []

    def spy(q, previous, weight=None):
        got = step(q, previous, weight)
        seen.append((q.probs - previous.probs, got))
        return got

    monkeypatch.setattr(dense, "_step", spy)
    out, _ = run_e_ipfp(net, constraints)
    assert len(seen) > 1
    for diff, got in seen:
        want = float(np.max(np.abs(diff.reshape(shape) * w)))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    # A family outside An(U) comes back as the input's own Cpt object:
    # the loop never saw it.
    for name in barren:
        assert out.cpts[name] is net.cpts[name]


# sha256 of the serialized e-ipfp output, as written before the loop's
# sub-network was built by ``core._sub_network``: moving it there must not
# change a bit.
E_IPFP_OUTPUT_SHA256 = {
    "dense-fit":
        "342f1c44c2612fd14524aa51ec543ba95ccd9aa680dba8166d2efced0fd75d33",
    "criterion-1-seed-13":
        "26fe5fa02dc7533086c4cda13e19ebf5089f2401a49538777a1cae638e52b2b7",
    "every-cpt-seed-1-children-first":
        "eea7ba7b99547af8442c09442720806a9483a4bf281790ae7b2df20d43fb36f6",
}


@pytest.mark.parametrize("case", list(WEIGHTED_STEP_CASES))
def test_run_e_ipfp_output_is_pinned(case):
    out, _ = run_e_ipfp(*WEIGHTED_STEP_CASES[case]())
    assert hashlib.sha256(serialize_network(out)).hexdigest() \
        == E_IPFP_OUTPUT_SHA256[case]


def test_run_e_ipfp_empty_constraints_builds_no_joint(monkeypatch):
    # Nothing to fit: the input comes back with 0 cycles, even where its
    # joint is over the ceiling, and no joint is built.
    def refuse(net):
        raise AssertionError("built a joint")

    monkeypatch.setattr(dense, "joint_from_network", refuse)
    net = nets.many_state_net()
    out, report = run_e_ipfp(net, [])
    assert out is net
    assert report.cycles == 0
    assert report.termination is Termination.CONVERGED
    assert report.final_divergence == 0.0
    assert report.per_constraint_residuals == ()


def every_variable_constrained(net):
    """One single-variable constraint per variable, so An(U) is every
    variable."""
    return [nets.constraint_over(net, (name,), net.cpts[name].table)
            for name in net.names]


@pytest.mark.parametrize("solve", [
    joint_from_network,
    lambda net: run_ipfp(net, [nets.constraint_over(
        net, ("V00",), net.cpts["V00"].table)]),
    lambda net: run_e_ipfp(net, every_variable_constrained(net)),
], ids=["joint_from_network", "ipfp", "e-ipfp"])
def test_dense_ceiling_refuses_before_allocating(solve):
    # Twelve 64-state variables span 2^72 cells.  Every dense path starts
    # at joint_from_network, which must refuse by cell count before it
    # allocates anything like a table.  e-ipfp builds the joint of the
    # constrained variables and their ancestors only, so its constraints
    # name every variable here.
    net = nets.many_state_net()
    assert issubclass(DenseCeilingError, BnError)
    tracemalloc.start()
    try:
        with pytest.raises(DenseCeilingError, match=r"2\^72 cells"):
            solve(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_run_e_ipfp_answers_above_the_ceiling():
    # Constraining the root V00 alone, the loop runs on its 64-cell
    # ancestral joint; the other eleven families are barren, so the 2^72
    # cells of the full joint are never allocated.
    net = nets.many_state_net()
    target = net.cpts["V00"].table[::-1]
    tracemalloc.start()
    try:
        out, report = run_e_ipfp(net, [nets.constraint_over(
            net, ("V00",), target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert report.termination is Termination.CONVERGED
    assert np.max(np.abs(out.cpts["V00"].table - target)) <= 1e-9
    assert all(out.cpts[n] is net.cpts[n] for n in net.names[1:])
    # By the chain rule only V00's family contributes to the divergence.
    p = net.cpts["V00"].table
    assert report.final_divergence == pytest.approx(
        float(np.sum(target * np.log(target / p))), rel=1e-12)
