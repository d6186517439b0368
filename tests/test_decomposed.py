"""Decomposed solver: subnets, local and non-local updates, full runs."""

import hashlib

import numpy as np
import pytest

import bnrefit.decomposed as decomposed
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
from bnrefit.decomposed import (SQUAREM_GATE, LocalSubnet, _extrapolated,
                                _outside_weight, _SubnetPlan)
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
        lambda plan, work, net, _, cap: visit(plan, work, net, 1e-14, cap))
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


def _diamond_plan_and_weight():
    net = nets.make_diamond()
    r = nets.diamond_r3(net)
    plan = _SubnetPlan.build(net, r, classify_constraint(net, r))
    w = _outside_weight(plan.weight, plan.outside, net.cpts)
    return plan, w.ravel()


def _member_vectors(a_rows):
    """Synthetic ``theta, t1, t2`` for the diamond's (A, D) subnet: A's
    table takes the given rows, D's stays the network's."""
    d = nets.make_diamond().cpts["D"].table.ravel()
    return [np.concatenate([np.asarray(a, dtype=float), d]) for a in a_rows]


def test_extrapolated_rejects_negative_entry():
    # A geometric sequence 0.5, 0.8, 0.95 extrapolates to its limit 1.1,
    # which leaves A's other entry at -0.1.
    plan, w = _diamond_plan_and_weight()
    theta, t1, t2 = _member_vectors([[0.5, 0.5], [0.8, 0.2], [0.95, 0.05]])
    assert _extrapolated(theta, t1, t2, plan, w) is None


def test_extrapolated_rejects_zero_on_target_positive_cell():
    # The exact limit A = (1, 0) takes all mass off A=1, where the
    # constraint puts 0.4; the entries are binary fractions, so the
    # candidate's zero is exact, not a rounding residue.
    plan, w = _diamond_plan_and_weight()
    assert plan.positive.size == 4  # every (A, D) cell is target-positive
    theta, t1, t2 = _member_vectors(
        [[0.5, 0.5], [0.75, 0.25], [0.875, 0.125]])
    assert _extrapolated(theta, t1, t2, plan, w) is None


def test_extrapolated_candidate_rows_are_distributions():
    # Inputs whose rows are off by a few percent still give a candidate
    # whose every parent row sums to one.
    plan, w = _diamond_plan_and_weight()
    theta, t1, t2 = _member_vectors([[0.5, 0.5], [0.6, 0.4], [0.65, 0.35]])
    t1[2:] *= 1.02
    t2[2:] *= 0.97
    candidate = _extrapolated(theta, t1, t2, plan, w)
    assert candidate is not None
    assert candidate.min() >= 0.0
    sums = np.bincount(plan.row, candidate)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert candidate[0] > t2[0]


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


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_local_update_moves_joint_by_ratio_over_alpha(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 6, 2, 3)
    q0 = joint_from_network(net)
    child = next(n for n in reversed(net.names) if net.parents[n])
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
    assert report.final_divergence == 0.050134861454304305
    assert report.per_constraint_residuals == (
        5.822101134533852e-11,
        7.860934125858421e-12,
        4.55802062759858e-13,
        3.6258113178533335e-10,
        2.5248969581781466e-11,
        2.3015650496560625e-10,
        3.3073599414734645e-11,
        2.7755575615628914e-17,
        5.551115123125783e-17,
        5.551115123125783e-17,
        0.0,
        1.1102230246251565e-16,
        5.551115123125783e-17,
        0.0,
        0.0,
        0.0,
        5.551115123125783e-17,
        0.0,
        5.551115123125783e-17,
        1.1102230246251565e-16,
        0.0,
        0.0,
        0.0,
        1.1102230246251565e-16,
    )
    assert hashlib.sha256(serialize_network(out)).hexdigest() == (
        "0096cc35330e3c9d8ab5f432ed4902886d840ff3cd56a3aac6cd002941135b1d")
