"""Decomposed solver: subnets, local and non-local updates, full runs."""

import hashlib
import re

import numpy as np
import pytest

import bnrefit.decomposed as decomposed
import bnrefit.elimination as elimination
import nets
from bnrefit import (
    Constraint,
    Cpt,
    DominanceError,
    JointTable,
    Local,
    NetworkSpec,
    NonLocal,
    ScopeError,
    StopPolicy,
    SubnetSizeError,
    Termination,
    ValidationError,
    VariableDecl,
    build_local_subnet,
    classify_constraint,
    constraint_residual,
    extract_subnet_cpts,
    i_divergence,
    ipfp_step,
    is_structurally_consistent,
    joint_from_network,
    local_update,
    marginalize,
    nonlocal_update,
    run_d_ipfp,
    run_e_ipfp,
    run_ipfp,
)
from bnrefit.decomposed import (SQUAREM_GATE, LocalSubnet, _outside_weight,
                                _SubnetPlan)
from bnrefit.elimination import marginal, network_divergence
from bnrefit.fileio import serialize_network
from bnrefit.generate import generate_instance, random_network


def long_chain(n):
    decls = tuple(VariableDecl(f"X{i:02d}", 2) for i in range(n))
    parents = {decls[i].name: (decls[i - 1].name,) for i in range(1, n)}
    cpts = {decls[0].name: Cpt(decls[0].name, (), np.array([0.6, 0.4]))}
    for i in range(1, n):
        cpts[decls[i].name] = Cpt(decls[i].name, (decls[i - 1].name,),
                                  np.array([[0.7, 0.3], [0.2, 0.8]]))
    return NetworkSpec(decls, parents, cpts)


def diamond_weight(net):
    """Contraction of the diamond's non-member CPTs onto (B, C, A)."""
    b = net.cpts["B"].table
    c = net.cpts["C"].table
    return b.T[:, None, :] * c.T[None, :, :]


# LocalSubnet validation


def test_subnet_requires_nonempty_y():
    with pytest.raises(ValidationError):
        LocalSubnet((), ("B",), np.ones(2))


def test_subnet_requires_disjoint_scopes():
    with pytest.raises(ValidationError):
        LocalSubnet(("A",), ("A",), np.full((2, 2), 0.5))


def test_subnet_rows_must_normalize():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        LocalSubnet(("A",), ("B",), bad)
    with pytest.raises(ValidationError):
        LocalSubnet(("A",), (), [np.nan, np.nan])


HALF = np.array([0.5, 0.5])


@pytest.mark.parametrize("build, error, fragment", [
    (lambda net: LocalSubnet(("A",), (), np.full((2, 2), 0.25)),
     ValidationError, "subnet table has 2 axes, expected 1"),
    (lambda net: nonlocal_update(LocalSubnet(("A",), (), HALF),
                                 Constraint.over(net, ("B",), HALF), None),
     ScopeError, "constraint scope ('B',) does not cover the variables"),
    (lambda net: build_local_subnet(net, ()), ValidationError,
     "subnet needs a non-empty variable set"),
    (lambda net: build_local_subnet(net, ("A", "Z")), ScopeError,
     "variable 'Z' is not declared in this network"),
    (lambda net: local_update(Cpt("D", ("C", "B"), np.full((2, 2, 2), 0.5)),
                              Constraint.over(net, ("B", "D"),
                                              np.full((2, 2), 0.25)), net),
     ValidationError, "CPT parent order ('C', 'B') differs from the network's"),
    (lambda net: extract_subnet_cpts(LocalSubnet(("Z",), (), HALF), net),
     ScopeError, "variable 'Z' is not declared in this network"),
], ids=["subnet-axes", "target-scope", "build-empty", "build-unknown",
        "local-parent-order", "extract-unknown"])
def test_validation_raises(diamond_net, build, error, fragment):
    with pytest.raises(error) as err:
        build(diamond_net)
    assert type(err.value) is error
    assert fragment in str(err.value)


# build_local_subnet


def test_build_subnet_desk_cell(diamond_net):
    sub = build_local_subnet(diamond_net, ("A", "D"))
    assert sub.s == ("B", "C")
    assert sub.y == ("A", "D")
    cell = float(sub.cond_table[1, 1, 1, 0])
    assert cell == 0.4 * 0.9
    assert abs(cell - 0.36) < 1e-15


def test_build_subnet_singleton_y_is_the_cpt(diamond_net):
    sub = build_local_subnet(diamond_net, ("D",))
    assert sub.s == ("B", "C")
    assert np.array_equal(sub.cond_table, diamond_net.cpts["D"].table)


def test_build_subnet_rows_normalize_on_random_net(rng):
    net = random_network(np.random.default_rng(11), 6, 2, 3)
    name = net.names[4]
    sub = build_local_subnet(net, (name, net.names[5]))
    y_axes = tuple(range(len(sub.s), len(sub.s) + len(sub.y)))
    sums = sub.cond_table.sum(axis=y_axes)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_subnet_times_outside_weight_is_the_joint(diamond_net):
    # The subnet conditional is the member-CPT product, so multiplying it by
    # the contraction of every other CPT onto (B, C, A) recovers the dense
    # joint cell for cell.
    sub = build_local_subnet(diamond_net, ("A", "D"))
    w = diamond_weight(diamond_net)
    got = sub.cond_table * w[..., None]
    want = marginalize(joint_from_network(diamond_net),
                       ("B", "C", "A", "D")).probs
    assert np.max(np.abs(got - want)) <= 1e-12


def test_build_subnet_size_is_exponential_bound(diamond_net):
    sub = build_local_subnet(diamond_net, ("A", "D"))
    assert sub.cond_table.size <= 2 ** (len(sub.s) + len(sub.y))


def test_build_subnet_budget_enforced(monkeypatch, diamond_net):
    # (A, D) and its outside parents (B, C) span 2^4 cells, over a budget
    # of 2^3, so the subnet is refused before its product is built; D alone
    # given (B, C) spans 2^3 and is built.
    monkeypatch.setattr(decomposed, "SUBNET_BUDGET", 3)
    with pytest.raises(SubnetSizeError,
                       match=r"holds 2\^4 cells, over the budget of 2\^3"):
        build_local_subnet(diamond_net, ("A", "D"))
    assert build_local_subnet(diamond_net, ("D",)).cond_table.size == 8


# local_update


def test_local_update_chain_rows(chain_net):
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    updated = local_update(chain_net.cpts["B"], r, chain_net)
    assert np.allclose(updated.table, np.array(nets.CHAIN_LOCAL_ROWS),
                       atol=1e-15)


def test_local_update_fixed_point(chain_net):
    q = joint_from_network(chain_net)
    r = Constraint.over(chain_net, ("B",), marginalize(q, ("B",)).probs)
    updated = local_update(chain_net.cpts["B"], r, chain_net)
    assert np.allclose(updated.table, chain_net.cpts["B"].table, atol=1e-12)


def test_local_update_rejects_wrong_target(chain_net):
    r = nets.constraint_over(chain_net, ("A",), [0.5, 0.5])
    with pytest.raises(ScopeError):
        local_update(chain_net.cpts["B"], r, chain_net)


def test_local_update_dominance():
    net = NetworkSpec((VariableDecl("A", 2),), {},
                      {"A": Cpt("A", (), np.array([1.0, 0.0]))})
    r = nets.constraint_over(net, ("A",), [0.5, 0.5])
    with pytest.raises(DominanceError):
        local_update(net.cpts["A"], r, net)


def test_local_update_rows_still_normalize(diamond_net):
    r = nets.constraint_over(diamond_net, ("D", "B"), [[0.3, 0.2], [0.1, 0.4]])
    updated = local_update(diamond_net.cpts["D"], r, diamond_net)
    rows = updated.table.reshape(-1, 2)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("scope, values", [
    (("B",), [0.4, 0.6]),
    (("A", "B"), [[0.4, 0.6], [0.0, 0.0]]),
], ids=["B", "A-B"])
def test_local_visit_fills_zero_mass_rows_uniformly(scope, values):
    # A never takes state 1, so B's row for A=1 carries no mass.  The visit
    # fills it uniformly, as extract_cpt and the non-local kernel do; the
    # row is invisible in the joint, so the joint, the residuals and the
    # divergence are those of keeping the input's row.
    net = nets.diamond_without_a1()
    r = nets.constraint_over(net, scope, values)
    expected = np.array([[0.4, 0.6], [0.5, 0.5]])
    assert np.array_equal(local_update(net.cpts["B"], r, net).table, expected)
    out, report = run_d_ipfp(net, [r])
    assert np.array_equal(out.cpts["B"].table, expected)
    kept = NetworkSpec(net.variables, net.parents, dict(out.cpts, B=Cpt(
        "B", ("A",), np.array([[0.4, 0.6], net.cpts["B"].table[1]]))))
    assert np.array_equal(joint_from_network(out).probs,
                          joint_from_network(kept).probs)
    assert report.termination is Termination.CONVERGED
    assert report.per_constraint_residuals == (0.0,)
    assert report.final_divergence == 0.022582421084357485


# nonlocal_update


def test_nonlocal_update_fixed_point(diamond_net):
    q = joint_from_network(diamond_net)
    sub = build_local_subnet(diamond_net, ("A", "D"))
    r = Constraint.over(diamond_net, ("A", "D"),
                        marginalize(q, ("A", "D")).probs)
    w = np.broadcast_to(diamond_weight(diamond_net)[..., None],
                        sub.cond_table.shape)
    updated = nonlocal_update(sub, r, w)
    assert np.max(np.abs(updated.cond_table - sub.cond_table)) <= 1e-12


def test_nonlocal_update_empty_s_matches_ipfp_step():
    decls = (VariableDecl("A", 2), VariableDecl("B", 2))
    net = NetworkSpec(decls, {"B": ("A",)}, {
        "A": Cpt("A", (), np.array([0.6, 0.4])),
        "B": Cpt("B", ("A",), np.array([[0.8, 0.2], [0.2, 0.8]])),
    })
    sub = build_local_subnet(net, ("A", "B"))
    assert sub.s == ()
    q = joint_from_network(net)
    r = nets.constraint_over(net, ("A", "B"), [[0.4, 0.1], [0.1, 0.4]])
    updated = nonlocal_update(sub, r, None)
    stepped = ipfp_step(q, r)
    assert np.max(np.abs(updated.cond_table - stepped.probs)) <= 1e-12


def test_nonlocal_update_rejects_bad_qs_shape(diamond_net):
    sub = build_local_subnet(diamond_net, ("A", "D"))
    r = nets.diamond_r3(diamond_net)
    with pytest.raises(ScopeError):
        nonlocal_update(sub, r, np.ones(3))


def test_nonlocal_update_iterates_to_constraint(diamond_net, diamond_r3):
    # Repeated fitting against the fixed outside weight drives the subnet's
    # marginal over (A, D) onto the constraint even though single steps
    # undershoot (the per-row renormalization bleeds part of each move).
    sub = build_local_subnet(diamond_net, ("A", "D"))
    w = np.broadcast_to(diamond_weight(diamond_net)[..., None],
                        sub.cond_table.shape)
    for _ in range(200):
        sub = nonlocal_update(sub, diamond_r3, w)
    pooled = sub.cond_table * w
    fitted = pooled.sum(axis=(0, 1))
    fitted = fitted / fitted.sum()
    assert np.max(np.abs(fitted - diamond_r3.dist.probs)) <= 1e-9


# extract_subnet_cpts


def test_extract_roundtrip_single_var(diamond_net):
    sub = build_local_subnet(diamond_net, ("D",))
    cpts = extract_subnet_cpts(sub, diamond_net)
    assert set(cpts) == {"D"}
    assert np.max(np.abs(cpts["D"].table
                         - diamond_net.cpts["D"].table)) <= 1e-12


def test_extract_roundtrip_pair(diamond_net):
    sub = build_local_subnet(diamond_net, ("A", "D"))
    cpts = extract_subnet_cpts(sub, diamond_net)
    assert set(cpts) == {"A", "D"}
    for name, cpt in cpts.items():
        assert np.max(np.abs(cpt.table
                             - diamond_net.cpts[name].table)) <= 1e-12
        assert cpt.parent_order == diamond_net.cpts[name].parent_order


def test_extract_rejects_mismatched_subnet(chain_net):
    # In the chain, B's outside parent set is (A,); in the v-structure it is
    # empty, so the subnet does not describe that network.
    sub = build_local_subnet(chain_net, ("B",))
    with pytest.raises(ScopeError):
        extract_subnet_cpts(sub, nets.v_structure())


# run_d_ipfp


def test_d_ipfp_empty_constraints(diamond_net):
    out, report = run_d_ipfp(diamond_net, [])
    assert out is diamond_net
    assert report.cycles == 0
    assert report.termination is Termination.CONVERGED


def test_d_ipfp_local_constraint_edits_one_cpt(chain_net):
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    out, report = run_d_ipfp(chain_net, [r])
    assert report.termination is Termination.CONVERGED
    assert out.cpts["A"] is chain_net.cpts["A"]
    assert not np.array_equal(out.cpts["B"].table, chain_net.cpts["B"].table)


def test_d_ipfp_nonlocal_constraint_edits_only_y(diamond_net, diamond_r3):
    out, report = run_d_ipfp(diamond_net, [diamond_r3])
    assert report.termination is Termination.CONVERGED
    assert out.cpts["B"] is diamond_net.cpts["B"]
    assert out.cpts["C"] is diamond_net.cpts["C"]
    for name in ("A", "D"):
        assert not np.array_equal(out.cpts[name].table,
                                  diamond_net.cpts[name].table)


def test_d_ipfp_validates_each_changed_cpt_once(monkeypatch):
    # Visits work on plain arrays; a Cpt (copied and scanned on
    # construction) is built only for each family the run changed, when
    # the result is assembled.  Every other family keeps its input Cpt.
    net, constraints = generate_instance(0, n_nodes=120, num_constraints=24)
    built = 0
    validate = Cpt.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        validate(self)

    monkeypatch.setattr(Cpt, "__post_init__", counting)
    out, _ = run_d_ipfp(net, constraints)
    changed = sum(out.cpts[name] is not net.cpts[name] for name in net.names)
    assert changed == 31
    assert built == changed


def test_d_ipfp_plans_one_contraction_per_constraint(monkeypatch):
    # Each constraint's subnet plan compiles its outside weight once per
    # run; the residuals and the report's divergence are read off those
    # plans, so the run plans no other contraction.
    net, constraints = generate_instance(0, n_nodes=120, num_constraints=24)
    planned = 0
    plan = elimination.plan_contraction

    def counting(*args, **kwargs):
        nonlocal planned
        planned += 1
        return plan(*args, **kwargs)

    monkeypatch.setattr(elimination, "plan_contraction", counting)
    run_d_ipfp(net, constraints)
    assert planned == len(constraints) == 24


def children_first_instance():
    """The children-first network with two local constraints and a
    non-local one.  Their targets are the marginals of the network with
    the CPTs of their members (V5 and V4 locally, V5, V3 and V0 jointly)
    redrawn, so the solver can meet them all."""
    net = nets.children_first()
    rng = np.random.default_rng(1)
    redrawn = NetworkSpec(net.variables, net.parents, {
        name: Cpt(name, cpt.parent_order,
                  rng.dirichlet(np.full(cpt.table.shape[-1], 2.0),
                                size=cpt.table.shape[:-1]))
        if name in ("V0", "V3", "V4", "V5") else cpt
        for name, cpt in net.cpts.items()})
    return net, [Constraint.over(net, scope, marginal(redrawn, scope))
                 for scope in (("V5", "V0"), ("V1", "V4"), ("V0", "V3", "V5"))]


def equivalence_case(name):
    """A network and its constraints, for the report equivalence test."""
    kind, _, seed = name.partition("-")
    if kind == "subnet":
        return generate_instance(int(seed), n_nodes=120, num_constraints=24)
    if kind == "criterion1":
        seed = int(seed)
        return generate_instance(seed, n_nodes=10 + seed % 6,
                                 num_constraints=4 + seed % 3)
    if kind == "ternary":
        return generate_instance(0, n_nodes=8, num_constraints=4,
                                 cardinality=3)
    if kind == "childrenfirst":
        return children_first_instance()
    net = nets.diamond_without_a1()
    if seed == "B":
        return net, [nets.constraint_over(net, ("B",), [0.4, 0.6])]
    return net, [nets.constraint_over(net, ("A", "B"),
                                      [[0.4, 0.6], [0.0, 0.0]])]


@pytest.mark.parametrize("name", [
    *(f"subnet-{seed}" for seed in range(5)),
    *(f"criterion1-{seed}" for seed in range(20)),
    "ternary", "childrenfirst", "zeromass-B", "zeromass-AB",
])
def test_d_ipfp_report_matches_variable_elimination(name):
    # The report's residuals and divergence are read off each constraint's
    # subnet plan at the final tables; they must agree with a fresh
    # variable elimination of the output network to rounding.
    net, constraints = equivalence_case(name)
    out, report = run_d_ipfp(net, constraints)
    assert report.termination is Termination.CONVERGED
    for r, got in zip(constraints, report.per_constraint_residuals,
                      strict=True):
        want = float(np.max(np.abs(marginal(out, r.scope) - r.dist.probs)))
        assert abs(got - want) <= 1e-15
    want = network_divergence(out, net)
    assert 0.0 < want < np.inf
    assert report.final_divergence == pytest.approx(want, rel=1e-12, abs=0.0)


def test_d_ipfp_desk_instance(diamond_net, diamond_r3):
    out, report = run_d_ipfp(diamond_net, [diamond_r3])
    q = joint_from_network(out)
    assert constraint_residual(q, diamond_r3) <= StopPolicy().epsilon
    assert is_structurally_consistent(q, diamond_net)
    assert report.final_divergence == pytest.approx(
        nets.DIAMOND_D_DIVERGENCE, abs=1e-12)


def test_d_ipfp_diamond_divergence_independent_of_inner_epsilon(
        monkeypatch, diamond_net, diamond_r3):
    # The inner map's fixed points form a continuum, so where a visit stops
    # depends on its path.  Extrapolation reaches the limit the plain map
    # only approaches, so the default inner tolerance (the outer epsilon)
    # and a far tighter one report the same divergence.  The cap is raised
    # high enough for both runs.
    monkeypatch.setattr(decomposed, "INNER_MAX_ITERATIONS", 100_000)
    _, default = run_d_ipfp(diamond_net, [diamond_r3])
    visit = decomposed._nonlocal_visit
    monkeypatch.setattr(
        decomposed, "_nonlocal_visit",
        lambda plan, work, _, inner_cap: visit(plan, work, 1e-14, inner_cap))
    _, tight = run_d_ipfp(diamond_net, [diamond_r3])
    assert abs(default.final_divergence - tight.final_divergence) <= 1e-10


def test_d_ipfp_divergence_ordering(diamond_net, diamond_r3):
    # Shrinking the feasible set raises the projection's divergence: the
    # unstructured fit lower-bounds the structural one, which lower-bounds
    # the locally restricted one.  Strictness is instance-specific.
    stop = StopPolicy(epsilon=1e-10)
    _, plain = run_ipfp(diamond_net, [diamond_r3], stop)
    _, structured = run_e_ipfp(diamond_net, [diamond_r3], stop)
    out_d, local = run_d_ipfp(diamond_net, [diamond_r3], stop)
    assert plain.final_divergence <= structured.final_divergence
    assert structured.final_divergence <= local.final_divergence
    assert local.final_divergence - plain.final_divergence > 1e-6


def test_d_ipfp_alpha_rows_normalize(diamond_net, diamond_r3):
    out, _ = run_d_ipfp(diamond_net, [diamond_r3])
    for name in out.names:
        table = out.cpts[name].table
        rows = table.reshape(-1, table.shape[-1])
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


def test_d_ipfp_budget_enforced(monkeypatch, diamond_net, diamond_r3):
    monkeypatch.setattr(decomposed, "SUBNET_BUDGET", 3)
    with pytest.raises(SubnetSizeError):
        run_d_ipfp(diamond_net, [diamond_r3])


def test_d_ipfp_long_chain_skips_dense_reporting():
    net = long_chain(30)
    r = nets.constraint_over(net, ("X29",), [0.5, 0.5])
    out, report = run_d_ipfp(net, [r])
    assert report.termination is Termination.CONVERGED
    assert 0.0 < report.final_divergence < np.inf
    assert report.structural_residual is None
    assert max(report.per_constraint_residuals) <= StopPolicy().epsilon


def test_d_ipfp_inner_cap_still_converges(monkeypatch, diamond_net,
                                         diamond_r3):
    monkeypatch.setattr(decomposed, "INNER_MAX_ITERATIONS", 2)
    out, report = run_d_ipfp(diamond_net, [diamond_r3])
    assert report.termination is Termination.CONVERGED
    q = joint_from_network(out)
    assert constraint_residual(q, diamond_r3) <= StopPolicy().epsilon


def reordered_diamond():
    """The diamond with D's CPT indexed (C, B, D), against declaration order."""
    net = nets.make_diamond()
    parents = dict(net.parents, D=("C", "B"))
    cpts = dict(net.cpts, D=Cpt("D", ("C", "B"),
                                np.transpose(net.cpts["D"].table, (1, 0, 2))))
    return NetworkSpec(net.variables, parents, cpts)


def visit_case(name):
    """A network and one non-local constraint on it."""
    if name == "diamond":
        net = nets.make_diamond()
        return net, nets.diamond_r3(net)
    if name == "ternary":
        net, constraints = generate_instance(0, n_nodes=8, num_constraints=4,
                                             cardinality=3)
        return net, constraints[0]
    if name == "reordered-parents":
        net = reordered_diamond()
        return net, nets.diamond_r3(net)
    # empty s: two independent roots, fitted to a dependent pair
    net = nets.v_structure()
    return net, nets.constraint_over(net, ("A", "B"), [[0.3, 0.1], [0.2, 0.4]])


def dense_outside_weight(net, y, s):
    """Contraction of the CPTs outside ``y`` onto (*s, *y), up to scale,
    read off the dense joint with ``y``'s CPTs made uniform."""
    flat = {v: Cpt(v, net.parents[v], np.full(net.cpts[v].table.shape,
                                              1.0 / net.cardinality(v)))
            for v in y}
    q = joint_from_network(NetworkSpec(net.variables, net.parents,
                                       {**net.cpts, **flat}))
    return marginalize(q, s + y).probs


@pytest.mark.parametrize("inner", [1, 7])
@pytest.mark.parametrize(
    "case", ["diamond", "ternary", "reordered-parents", "empty-s"])
def test_d_ipfp_visit_matches_manual_sequence(monkeypatch, case, inner):
    # One outer cycle of ``inner`` inner iterations must equal the
    # spelled-out pipeline repeated ``inner`` times: build the subnet, one
    # fitting pass against the outside weight, re-extract the member CPTs.
    net, r = visit_case(case)
    cls = classify_constraint(net, r)
    assert isinstance(cls, NonLocal)
    assert (cls.s == ()) == (case == "empty-s")
    monkeypatch.setattr(decomposed, "INNER_MAX_ITERATIONS", inner)
    out, _ = run_d_ipfp(net, [r], StopPolicy(max_cycles=1, epsilon=1e-15))
    w = dense_outside_weight(net, cls.y, cls.s)
    cpts = dict(net.cpts)
    for _ in range(inner):
        sub = build_local_subnet(net, cls.y, cpts)
        stepped = nonlocal_update(sub, r, w)
        # Every step stays above the extrapolation gate, so the kernel
        # takes plain maps only and this pins the plain map itself.
        assert (np.max(np.abs(stepped.cond_table - sub.cond_table))
                >= SQUAREM_GATE)
        cpts.update(extract_subnet_cpts(stepped, net, cpts))
    for name in net.names:
        assert out.cpts[name].parent_order == net.cpts[name].parent_order
        assert np.max(np.abs(out.cpts[name].table
                             - cpts[name].table)) <= 1e-12


@pytest.mark.parametrize(
    "case", ["diamond", "ternary", "reordered-parents", "empty-s",
             "generated"])
def test_d_ipfp_lands_on_plain_fixed_point(case):
    # Extrapolated visits may stop anywhere on the continuum of fixed
    # points, but on one: once the run ends, a further plain step through
    # the spelled-out subnet pipeline leaves every member CPT in place.
    # Independent roots cannot carry the empty-s case's dependent pair, so
    # that run ends oscillating, on a fixed point all the same.
    if case == "generated":
        net, constraints = generate_instance(0)
    else:
        net, r = visit_case(case)
        constraints = [r]
    out, report = run_d_ipfp(net, constraints)
    assert report.termination is (Termination.OSCILLATING if case == "empty-s"
                                  else Termination.CONVERGED)
    nonlocal_seen = 0
    for r in constraints:
        cls = classify_constraint(net, r)
        if not isinstance(cls, NonLocal):
            continue
        nonlocal_seen += 1
        w = dense_outside_weight(out, cls.y, cls.s)
        sub = nonlocal_update(build_local_subnet(out, cls.y), r, w)
        for name, cpt in extract_subnet_cpts(sub, out).items():
            assert np.max(np.abs(cpt.table - out.cpts[name].table)) <= 1e-8
    assert nonlocal_seen


def _diamond_run(monkeypatch):
    """d-ipfp on the diamond and ``diamond_r3``, with the plain maps its
    non-local visits made in total."""
    maps = []
    visit = decomposed._nonlocal_visit

    def counted(*args, **kwargs):
        maps.append(visit(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(decomposed, "_nonlocal_visit", counted)
    net = nets.make_diamond()
    out, report = run_d_ipfp(net, [nets.diamond_r3(net)])
    return out, report, sum(maps)


def test_rejected_extrapolation_ends_on_the_second_plain_map(monkeypatch):
    # Every candidate puts A's table at (1, 0), which leaves A=1 without
    # mass where the constraint puts 0.4 on it.  Each is rejected and its
    # step ends on the second plain map, so the run takes exactly the maps
    # of one that never extrapolates.
    with monkeypatch.context() as m:
        m.setattr(decomposed, "SQUAREM_GATE", 0.0)
        plain_out, plain, plain_maps = _diamond_run(m)
    candidates, bounds = [], []

    def dead_end(theta, t1, t2, row, bound):
        candidate = t2.copy()
        candidate[:2] = (1.0, 0.0)
        candidates.append(candidate)
        bounds.append(bound)
        return candidate, True

    monkeypatch.setattr(decomposed, "_squarem", dead_end)
    out, report, maps = _diamond_run(monkeypatch)
    assert candidates
    # A rejected step leaves the step-length bound where it started.
    assert set(bounds) == {1.0}
    assert (plain.termination, plain.cycles, plain_maps) == (
        Termination.CONVERGED, 2, 191)
    assert repr(plain.final_divergence) == "0.26446377712316366"
    assert (report.termination, report.cycles, maps) == (
        plain.termination, plain.cycles, plain_maps)
    assert repr(report.final_divergence) == repr(plain.final_divergence)
    assert report.per_constraint_residuals == plain.per_constraint_residuals
    assert serialize_network(out) == serialize_network(plain_out)


def _bounds_seen(monkeypatch, rejected=None):
    """Each non-local visit's ``_squarem`` calls in d-ipfp on
    ``generate_instance(0, 20, 6)``, as (bound, reached, accepted); the
    call numbered ``rejected`` in each visit is rejected by the spy.  No
    stabilizing map raises on this instance, so a candidate the spy passes
    on is accepted."""
    visits = []
    squarem, visit = decomposed._squarem, decomposed._nonlocal_visit

    def spy(theta, t1, t2, row, bound):
        candidate, reached = squarem(theta, t1, t2, row, bound)
        if len(visits[-1]) == rejected:
            candidate = None
        visits[-1].append((bound, reached, candidate is not None))
        return candidate, reached

    def counted(*args, **kwargs):
        visits.append([])
        return visit(*args, **kwargs)

    monkeypatch.setattr(decomposed, "_squarem", spy)
    monkeypatch.setattr(decomposed, "_nonlocal_visit", counted)
    net, constraints = generate_instance(0, n_nodes=20, num_constraints=6)
    _, report = run_d_ipfp(net, constraints)
    assert report.termination is Termination.CONVERGED
    stepped = [calls for calls in visits if calls]
    assert len(stepped) >= 2
    for calls in stepped:
        assert calls[0][0] == 1.0
        for (bound, reached, accepted), (following, _, _) in zip(calls,
                                                                 calls[1:]):
            assert following == (bound * decomposed.SQUAREM_STEP_GROWTH
                                 if reached and accepted else bound)
    return stepped


def test_step_bound_grows_after_accepted_steps_that_reach_it(monkeypatch):
    # Every visit starts its bound at 1, where the candidate is the second
    # plain map.  The bound grows four-fold after each accepted step that
    # reached it, and stays once a step falls short of it.
    stepped = _bounds_seen(monkeypatch)
    assert [bound for bound, _, _ in stepped[0][:6]] == [
        1.0, 4.0, 16.0, 64.0, 256.0, 256.0]
    assert any(not reached for calls in stepped for _, reached, _ in calls)


def test_step_bound_stays_after_a_rejected_step(monkeypatch):
    # Each visit's second candidate reaches the bound 4 and is rejected,
    # so the next step is bounded by 4 again.
    for calls in _bounds_seen(monkeypatch, rejected=1):
        assert calls[1] == (4.0, True, False)
        assert calls[2][0] == 4.0


# generate_instance arguments; criterion 1 draws seed s at
# (s, 10 + s % 6, 4 + s % 3).
LANDING_INSTANCES = {"criterion-1-seed-0": (0, 10, 4),
                     "criterion-1-seed-4": (4, 14, 5),
                     "criterion-1-seed-10": (10, 14, 5),
                     "n20": (0, 20, 6)}


@pytest.mark.parametrize("case", ["diamond", *LANDING_INSTANCES])
def test_d_ipfp_lands_near_the_plain_limit(monkeypatch, case):
    # Where a run lands on the continuum of fixed points depends on its
    # path.  The bounded extrapolation must land within 1e-5 relative of
    # the limit of plain maps alone, run with no gate to a far tighter
    # epsilon.
    if case == "diamond":
        net, r = visit_case(case)
        constraints = [r]
    else:
        net, constraints = generate_instance(*LANDING_INSTANCES[case])
    _, report = run_d_ipfp(net, constraints)
    monkeypatch.setattr(decomposed, "SQUAREM_GATE", 0.0)
    _, plain = run_d_ipfp(net, constraints, StopPolicy(epsilon=1e-13))
    assert report.termination is plain.termination is Termination.CONVERGED
    assert report.final_divergence == pytest.approx(plain.final_divergence,
                                                    rel=1e-5, abs=0.0)


def reference_plain_map(plan, w):
    """The plain map spelled with the ndarray reduction wrappers and two
    masked divides: the reference ``decomposed._plain_map``, which avoids
    their per-call overhead, must match bit for bit."""
    family = plan.family.ravel()
    row, uniform = plan.layout.row, plan.layout.uniform
    positive = np.flatnonzero(plan.target > 0.0)
    target = plan.target[positive]
    refit = np.empty(plan.family.shape)
    ratio = np.zeros(int(np.prod(plan.scope_shape)))

    def plain_map(theta):
        cond = theta[plan.family].prod(axis=0)
        qy = np.bincount(plan.scope_cell, cond * w)
        total = qy.sum()
        if total > 0.0:
            qy /= total
        current = qy[positive]
        assert current.all()
        ratio[positive] = target / current
        scaled = cond * ratio[plan.scope_cell]
        alpha = np.bincount(plan.s_cell, scaled)[plan.s_cell]
        newcond = np.divide(scaled, alpha, out=cond.copy(), where=alpha > 0.0)
        np.multiply(newcond, w, out=refit)
        m = np.bincount(family, refit.ravel())
        denom = np.bincount(row, m)[row]
        return (np.divide(m, denom, out=uniform.copy(), where=denom > 0.0),
                float(np.abs(newcond - cond).max()))

    return plain_map


def assert_maps_match_reference(net, r, maps=50):
    """``maps`` successive plain maps of ``r``'s plan, from ``net``'s
    tables, equal the reference's bit for bit, step sizes included."""
    plan = _SubnetPlan.build(net, r, classify_constraint(net, r))
    work = {name: cpt.table for name, cpt in net.cpts.items()}
    w = _outside_weight(plan.weight, plan.outside, work).ravel()
    kernel, reference = decomposed._plain_map(plan, w), reference_plain_map(
        plan, w)
    theta = plan.layout.pack(work)
    for _ in range(maps):
        got, got_step = kernel(theta)
        want, want_step = reference(theta)
        assert np.array_equal(got, want)
        assert got_step == want_step
        theta = want
    return plan


def test_plain_map_matches_reference_on_subnet_large():
    net, constraints = generate_instance(0, n_nodes=120, num_constraints=24)
    for r in constraints:
        assert_maps_match_reference(net, r)


def zero_mass_cases(name):
    """A network and a constraint whose plain map meets a row without
    mass, and which kind of row: a subnet ``s`` row or a member's parent
    row."""
    if name == "zero-target-s-row":
        # Local over (A, B) with no mass at A=1: every cell of the s row
        # A=1 is scaled by 0.
        net = nets.make_chain()
        return net, nets.constraint_over(
            net, ("A", "B"), [[0.5, 0.5], [0.0, 0.0]]), "s"
    if name == "zero-mass-parent-row-local":
        # P(A=1) = 0, so B's CPT row A=1 carries no mass.
        net = nets.diamond_without_a1()
        return net, nets.constraint_over(net, ("B",), [0.4, 0.6]), "row"
    # B is never 1, so in the non-local (A, D) subnet D's CPT rows with
    # B=1 carry no mass.
    net = nets.make_diamond()
    never = Cpt("B", ("A",), np.array([[1.0, 0.0], [1.0, 0.0]]))
    net = NetworkSpec(net.variables, net.parents, dict(net.cpts, B=never))
    return net, nets.diamond_r3(net), "row"


@pytest.mark.parametrize("name", ["zero-target-s-row",
                                  "zero-mass-parent-row-local",
                                  "zero-mass-parent-row-nonlocal"])
def test_plain_map_fallback_matches_reference(monkeypatch, name):
    # The kernel divides plainly when every row has mass and falls back to
    # the masked divide otherwise; each case must reach its fallback: the
    # conditional for an s row, the uniform rows for a member's row.
    net, r, kind = zero_mass_cases(name)
    reached = []
    divided = decomposed._divided

    def spy(values, sums, fallback):
        if np.count_nonzero(sums) < sums.size:
            reached.append(fallback)
        return divided(values, sums, fallback)

    monkeypatch.setattr(decomposed, "_divided", spy)
    plan = assert_maps_match_reference(net, r)
    assert reached
    for fallback in reached:
        if kind == "s":
            # The conditional: one entry per cell, a distribution per s row.
            assert fallback is not plan.layout.uniform
            assert fallback.shape == plan.s_cell.shape
            assert np.allclose(np.bincount(plan.s_cell, fallback), 1.0)
        else:
            assert fallback is plan.layout.uniform


def test_nonlocal_visit_stops_when_the_map_is_fixed(monkeypatch, caplog):
    # Two independent roots cannot carry a dependent pair: after one map
    # the member CPTs are fixed bit for bit while the conditional's step
    # stays large, so the visit stops instead of running to its cap, and
    # the outer loop still calls the run oscillating.
    net, r = visit_case("empty-s")
    maps = []
    visit = decomposed._nonlocal_visit

    def counted(*args, **kwargs):
        maps.append(visit(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(decomposed, "_nonlocal_visit", counted)
    with caplog.at_level("WARNING", logger="bnrefit"):
        _, report = run_d_ipfp(net, [r])
    assert report.termination is Termination.OSCILLATING
    assert maps and max(maps) <= 2
    assert "left the member CPTs unchanged" in caplog.text
    assert "hit its cap" not in caplog.text


def test_nonlocal_visit_takes_no_map_when_met_exactly(diamond_net,
                                                     diamond_r3):
    # A target equal to the subnet's own marginal, bit for bit, is met
    # already: the visit makes no map and keeps every table object.
    work = {name: cpt.table for name, cpt in diamond_net.cpts.items()}
    probe = _SubnetPlan.build(diamond_net, diamond_r3,
                              classify_constraint(diamond_net, diamond_r3))
    w = _outside_weight(probe.weight, probe.outside, work).ravel()
    met = decomposed._marginal(probe, probe.layout.pack(work), w)
    r = Constraint.over(diamond_net, probe.scope,
                        met.reshape(probe.scope_shape))
    plan = _SubnetPlan.build(diamond_net, r, classify_constraint(diamond_net, r))
    assert np.array_equal(plan.target, met)
    before = dict(work)
    assert decomposed._nonlocal_visit(plan, work, StopPolicy().epsilon,
                                      inner_cap=1000) == 0
    assert all(work[name] is before[name] for name in before)


@pytest.mark.parametrize("seed", [1, 2])
def test_d_ipfp_n200_converges_in_few_cycles(seed):
    # Beyond dense reach: 200 variables, 40 constraints.  Plain maps alone
    # hit the inner cap so often that these need 243 and 1,061 outer
    # cycles; with extrapolation each visit settles.
    net, constraints = generate_instance(seed, n_nodes=200,
                                         num_constraints=40)
    _, report = run_d_ipfp(net, constraints)
    assert report.termination is Termination.CONVERGED
    assert report.cycles <= 12


def test_d_ipfp_nonlocal_dominance_names_cell():
    # The target puts mass on A=1, which the network rules out; the error
    # names the first such cell in subnet order (A, D), not scope order.
    net = nets.diamond_without_a1()
    target = nets.diamond_r3(net).dist.probs
    r = nets.constraint_over(net, ("D", "A"), target.T)
    assert isinstance(classify_constraint(net, r), NonLocal)
    with pytest.raises(DominanceError) as err:
        run_d_ipfp(net, [r])
    assert str(err.value) == (
        f"constraint over ('A', 'D') requires mass {target[1, 0]:.17g} at "
        f"(A=1, D=0) where the current distribution has none"
    )


def test_d_ipfp_contradictory_constraints_oscillate(chain_net):
    rs = [
        nets.constraint_over(chain_net, ("B",), [0.8, 0.2]),
        nets.constraint_over(chain_net, ("B",), [0.1, 0.9]),
    ]
    _, report = run_d_ipfp(chain_net, rs)
    assert report.termination is Termination.OSCILLATING


def out_of_local_reach(seed):
    """``nets.children_first`` with targets over (V1, V4) and (V0, V3, V5)
    read off the same DAG with every CPT redrawn: met by the joint of a
    network on the DAG, but not by editing only the CPTs they name."""
    net = nets.children_first()
    rng = np.random.default_rng(seed)
    redrawn = NetworkSpec(net.variables, net.parents, {
        name: Cpt(name, cpt.parent_order,
                  rng.dirichlet(np.full(cpt.table.shape[-1], 2.0),
                                size=cpt.table.shape[:-1]))
        for name, cpt in net.cpts.items()})
    return net, [Constraint.over(net, scope, marginal(redrawn, scope))
                 for scope in (("V1", "V4"), ("V0", "V3", "V5"))]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_d_ipfp_stops_at_a_fixed_point_within_60_cycles(seed):
    # The local constraint on V4 cannot move P(V1), so d-ipfp cannot meet
    # the set.  Once the CPTs stop moving, their cycle deltas are rounding
    # noise at or below epsilon.  Counted as a plateau, they stop the run
    # once the delta and residual windows have filled (39 to 47 cycles); a
    # ratio test on the noise alone took 264 to 1,698.
    net, rs = out_of_local_reach(seed)
    _, report = run_d_ipfp(net, rs)
    assert report.termination is Termination.OSCILLATING
    assert report.cycles <= 60
    assert max(report.per_constraint_residuals) > 0.01


def test_d_ipfp_oscillation_warning_allows_out_of_reach(caplog):
    # e-ipfp meets the set that d-ipfp cannot, so the warning must not
    # call it contradictory outright.
    net, rs = out_of_local_reach(1)
    with caplog.at_level("WARNING", logger="bnrefit"):
        _, report = run_d_ipfp(net, rs)
    assert report.termination is Termination.OSCILLATING
    assert ("constraints look contradictory, or out of reach of the CPTs "
            "they name; stopping as oscillating") in caplog.text
    _, report = run_e_ipfp(net, rs)
    assert report.termination is Termination.CONVERGED


@pytest.mark.parametrize("seed, scope", [(1, ("X02", "X10")),
                                         (4, ("X01", "X12"))])
def test_d_ipfp_stops_on_a_ratio_plateau(caplog, seed, scope):
    # A perturbed copy of a non-local target contradicts the original, so
    # every solver orbits.  d-ipfp's cycle deltas settle above epsilon
    # (8.3e-9 and 7.0e-7 at its stop), so its windows fill through the
    # ratio test, not the epsilon one; the dense solvers stop on the same
    # plateau rule.
    net, constraints = generate_instance(seed, n_nodes=12, num_constraints=4)
    contradictory = nets.contradictory_variant(constraints, scope, seed)
    with caplog.at_level("WARNING", logger="bnrefit"):
        _, report = run_d_ipfp(net, contradictory)
    assert report.termination is Termination.OSCILLATING
    assert report.cycles == 40
    assert max(report.per_constraint_residuals) > 0.05
    stopped = re.search(r"cycle 40: CPT deltas plateaued near (\S+) and",
                        caplog.text)
    assert float(stopped.group(1)) > StopPolicy().epsilon
    for solve in (run_e_ipfp, run_ipfp):
        _, report = solve(net, contradictory)
        assert report.termination is Termination.OSCILLATING


def test_d_ipfp_mixed_constraints_converge(diamond_net, diamond_r3):
    rs = [diamond_r3,
          nets.constraint_over(diamond_net, ("B",), [0.45, 0.55])]
    out, report = run_d_ipfp(diamond_net, rs)
    assert report.termination is Termination.CONVERGED
    q = joint_from_network(out)
    for r in rs:
        assert constraint_residual(q, r) <= StopPolicy().epsilon


# Commutation: swapping one CPT for its fitted version moves the dense joint
# by exactly the constraint ratio divided by the per-row mass alpha.


def place(arr, names, net):
    """Broadcast ``arr`` indexed by ``names`` onto the network's full axes."""
    axes = [net.axis(n) for n in names]
    moved = np.transpose(arr, np.argsort(axes))
    shape = [1] * len(net.names)
    for n in names:
        shape[net.axis(n)] = net.cardinality(n)
    return moved.reshape(shape)


def reversed_parents(net, child):
    """``net`` with ``child``'s CPT listing its parents in reverse
    declaration order."""
    cpt = net.cpts[child]
    k = len(cpt.parent_order)
    order = cpt.parent_order[::-1]
    table = np.transpose(cpt.table, tuple(reversed(range(k))) + (k,))
    return NetworkSpec(net.variables, dict(net.parents, **{child: order}),
                       dict(net.cpts, **{child: Cpt(child, order, table)}))


@pytest.mark.parametrize("seed, cardinality, reverse", [
    (0, 2, False), (3, 2, False), (9, 2, False), (0, 3, False),
    (5, 3, True), (9, 2, True),
], ids=["0", "3", "9", "card3-0", "card3-reversed-5", "reversed-9"])
def test_local_update_moves_joint_by_ratio_over_alpha(seed, cardinality,
                                                      reverse):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 6, cardinality, 3)
    child = next(n for n in reversed(net.names)
                 if len(net.parents[n]) >= (2 if reverse else 1))
    if reverse:
        net = reversed_parents(net, child)
    q0 = joint_from_network(net)
    scope = tuple(net.parents[child]) + (child,)
    target = marginalize(q0, scope).probs
    bump = np.random.default_rng(seed + 100).uniform(0.8, 1.2, target.shape)
    target = target * bump / (target * bump).sum()
    r = Constraint.over(net, scope, target)

    updated = local_update(net.cpts[child], r, net)
    patched = dict(net.cpts)
    patched[child] = updated
    via_cpt = joint_from_network(NetworkSpec(net.variables, net.parents,
                                             patched))

    # scope order equals the CPT's own (parents..., child) layout, so the
    # ratio applies to the table directly and alpha is the fitted row mass.
    ratio = target / marginalize(q0, scope).probs
    alpha = (net.cpts[child].table * ratio).sum(axis=-1, keepdims=True)
    expected = (q0.probs * place(ratio, scope, net)
                / place(alpha[..., 0], scope[:-1], net))
    assert np.max(np.abs(via_cpt.probs - expected)) <= 1e-12


def test_subnet_large_trajectory_is_pinned():
    # The benchmark's subnet-large instance.  d-ipfp is deterministic, and
    # its contractions run in a planned order that does not depend on when
    # the plan was made, so any change to a visit, the elimination order or
    # a summation order shows up here: the cycle count, the divergence, the
    # residuals and the written bytes are all pinned exactly.
    net, constraints = generate_instance(0, n_nodes=120, num_constraints=24)
    out, report = run_d_ipfp(net, constraints)
    assert report.termination is Termination.CONVERGED
    assert report.cycles == 3
    assert report.final_divergence == 0.05013487471802731
    assert report.per_constraint_residuals == (
        4.567594080739923e-10,
        4.6351811278100286e-14,
        7.770245558091915e-11,
        4.852943047417568e-11,
        2.551671651751519e-10,
        1.6292522886374172e-14,
        2.3777646518396978e-12,
        5.551115123125783e-17,
        5.551115123125783e-17,
        2.7755575615628914e-17,
        0.0,
        1.1102230246251565e-16,
        5.551115123125783e-17,
        0.0,
        0.0,
        0.0,
        0.0,
        1.3877787807814457e-17,
        5.551115123125783e-17,
        1.1102230246251565e-16,
        0.0,
        0.0,
        0.0,
        1.1102230246251565e-16,
    )
    assert hashlib.sha256(serialize_network(out)).hexdigest() == (
        "94c8964423aa4482bac1c19489ae8f6b76279974c4988f97e7218cea14a87ae4")
