"""Table primitives: joints, marginals, extraction, divergence, residuals."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nets
from bnrefit import (
    TAU_NORM,
    Constraint,
    Cpt,
    CycleError,
    JointTable,
    Local,
    NetworkSpec,
    NonLocal,
    NormalizationError,
    ScopeError,
    ValidationError,
    VariableDecl,
    classify_constraint,
    classify_scope,
    constraint_residual,
    extract_cpt,
    i_divergence,
    is_structurally_consistent,
    joint_from_network,
    marginalize,
    validate_constraint,
)
from bnrefit.core import (_block_shape, _blocked, _cpt_product, _max_gap,
                          _squarem)
from bnrefit.generate import random_network


def random_net(seed, n, cardinality=2, max_in_degree=3):
    return random_network(np.random.default_rng(seed), n, cardinality,
                          max_in_degree)


def case_net(case, n):
    """``random_net(case, n)`` for a seed, or the children-first network."""
    if case == "children-first":
        return nets.children_first()
    return random_net(case, n)


# Eight generated networks, which declare parents first, plus one declared
# children first with cardinalities 2 to 4.
NET_CASES = [*range(8), "children-first"]


# type invariants


def test_variable_decl_rejects_cardinality_below_two():
    with pytest.raises(ValidationError):
        VariableDecl("A", 1)


def test_variable_decl_rejects_label_count_mismatch():
    with pytest.raises(ValidationError):
        VariableDecl("A", 2, states=("only",))


def test_cpt_rejects_unnormalized_row():
    with pytest.raises(NormalizationError) as err:
        Cpt("B", ("A",), np.array([[0.5, 0.6], [0.5, 0.5]]))
    assert "B" in str(err.value) and "row 0" in str(err.value)


def test_cpt_rejects_child_as_own_parent():
    with pytest.raises(ValidationError):
        Cpt("A", ("A",), np.full((2, 2), 0.5))


def test_cpt_table_is_read_only(chain_net):
    with pytest.raises(ValueError):
        chain_net.cpts["B"].table[0, 0] = 0.3


def test_joint_table_accepts_flat_array():
    decls = (VariableDecl("A", 2), VariableDecl("B", 2))
    q = JointTable(decls, np.array(nets.CHAIN_JOINT_FLAT))
    assert q.probs.shape == (2, 2)


def test_joint_table_rejects_bad_total():
    with pytest.raises(NormalizationError):
        JointTable((VariableDecl("A", 2),), np.array([0.5, 0.6]))


def test_network_rejects_cycle_and_names_it():
    decls = tuple(VariableDecl(n, 2) for n in "ABD")
    uniform = np.full((2, 2), 0.5)
    with pytest.raises(CycleError) as err:
        NetworkSpec(decls, {"B": ("A",), "D": ("B",), "A": ("D",)},
                    {"A": Cpt("A", ("D",), uniform),
                     "B": Cpt("B", ("A",), uniform),
                     "D": Cpt("D", ("B",), uniform)})
    message = str(err.value)
    assert "cycle" in message
    for name in "ABD":
        assert name in message


def test_network_rejects_undeclared_parent():
    with pytest.raises(ValidationError):
        NetworkSpec((VariableDecl("A", 2),), {"A": ("Z",)},
                    {"A": Cpt("A", ("Z",), np.full((2, 2), 0.5))})


def test_network_rejects_shape_mismatch():
    decls = (VariableDecl("A", 3), VariableDecl("B", 2))
    with pytest.raises(ValidationError):
        NetworkSpec(decls, {"B": ("A",)},
                    {"A": Cpt("A", (), np.array([0.2, 0.3, 0.5])),
                     "B": Cpt("B", ("A",), np.full((2, 2), 0.5))})


def test_topo_order_respects_parents(diamond_net):
    order = diamond_net.topo_order
    assert order.index("A") < order.index("B") < order.index("D")
    assert order.index("A") < order.index("C") < order.index("D")


# joint_from_network


def test_joint_single_variable(single_net):
    q = joint_from_network(single_net)
    assert np.array_equal(q.probs, np.array([0.6, 0.4]))


def test_joint_chain_values(chain_net):
    q = joint_from_network(chain_net)
    assert np.array_equal(q.probs.ravel(), np.array(nets.CHAIN_JOINT_FLAT))


@pytest.mark.parametrize("seed", range(10))
def test_joint_sums_to_one_random_nets(seed):
    net = random_net(seed, 4 + seed % 9)
    q = joint_from_network(net)
    assert abs(float(q.probs.sum()) - 1.0) <= TAU_NORM


# marginalize


def test_marginalize_full_scope_is_identity(chain_net):
    q = joint_from_network(chain_net)
    m = marginalize(q, ("A", "B"))
    assert np.array_equal(m.probs, q.probs)


def test_marginalize_chain_to_b(chain_net):
    q = joint_from_network(chain_net)
    assert np.allclose(marginalize(q, ("B",)).probs, [0.5, 0.5], atol=1e-15)


def test_marginalize_uniform_pair():
    decls = (VariableDecl("A", 2), VariableDecl("B", 2))
    q = JointTable(decls, np.full((2, 2), 0.25))
    assert np.array_equal(marginalize(q, ("A",)).probs, np.array([0.5, 0.5]))


def test_marginalize_reorders_axes(diamond_net):
    q = joint_from_network(diamond_net)
    ad = marginalize(q, ("A", "D"))
    da = marginalize(q, ("D", "A"))
    assert np.array_equal(ad.probs, da.probs.T)


def test_marginalize_unknown_variable(chain_net):
    q = joint_from_network(chain_net)
    with pytest.raises(ScopeError):
        marginalize(q, ("A", "Z"))


@pytest.mark.parametrize("case", [*NET_CASES, "full-scope"])
def test_marginalize_commutes(case):
    full = case == "full-scope"
    net = nets.children_first() if full else case_net(case, 6)
    q = joint_from_network(net)
    rng = np.random.default_rng(case if isinstance(case, int) else 0)
    names = list(net.names)
    # The full-scope case first marginalizes onto every variable in a
    # permuted order, which sums nothing out and only transposes.
    y = list(rng.permutation(names)[:len(names) if full else 4])
    z = list(rng.permutation(y)[:2])
    direct = marginalize(q, z)
    via = marginalize(marginalize(q, y), z)
    assert np.max(np.abs(direct.probs - via.probs)) <= 1e-12


# extract_cpt


def test_extract_recovers_chain_cpt(chain_net):
    q = joint_from_network(chain_net)
    cpt = extract_cpt(q, "B", ("A",))
    assert np.allclose(cpt.table, chain_net.cpts["B"].table, atol=1e-15)


def test_extract_independent_pair_uniform():
    decls = (VariableDecl("A", 2), VariableDecl("B", 2))
    q = JointTable(decls, np.full((2, 2), 0.25))
    cpt = extract_cpt(q, "B", ("A",))
    assert np.array_equal(cpt.table, np.full((2, 2), 0.5))


def test_extract_zero_parent_row_fills_uniform():
    decls = (VariableDecl("A", 2), VariableDecl("B", 2))
    q = JointTable(decls, np.array([[0.3, 0.7], [0.0, 0.0]]))
    cpt = extract_cpt(q, "B", ("A",))
    assert np.array_equal(cpt.table[1], np.array([0.5, 0.5]))


@pytest.mark.parametrize("case", NET_CASES)
def test_extract_joint_roundtrip(case):
    net = case_net(case, 7)
    q = joint_from_network(net)
    for name in net.names:
        got = extract_cpt(q, name, net.parents[name])
        assert np.max(np.abs(got.table - net.cpts[name].table)) <= 1e-12


# the dense product


def reference_cpt_product(variables, tables, parents):
    """The product that broadcast its head product into the whole table and
    then multiplied in each family touching the block, one full-size pass
    each: ``core._cpt_product``, which grows the table one axis at a time,
    must match it bit for bit when the families come with non-decreasing
    last axes."""
    shape = tuple(v.cardinality for v in variables)
    blocks = _block_shape(shape)
    head = len(blocks) - 1
    axis = {v.name: i for i, v in enumerate(variables)}
    axes = {child: [axis[p] for p in parents[child]] + [axis[child]]
            for child in tables}
    inner = {child: table for child, table in tables.items()
             if max(axes[child]) < head}
    out = np.empty(blocks)
    out[...] = (reference_cpt_product(variables[:head], inner, parents)[
        ..., None] if head else 1.0)
    for child, table in tables.items():
        if child not in inner:
            out *= _blocked(table, axes[child], shape)
    return out.reshape(shape)


def both_products(net):
    tables = {name: cpt.table for name, cpt in net.cpts.items()}
    return (_cpt_product(net.variables, tables, net.parents),
            reference_cpt_product(net.variables, tables, net.parents))


def grown_levels(net):
    """How many levels the top call grows past its head product."""
    shape = tuple(v.cardinality for v in net.variables)
    return len(shape) - len(_block_shape(shape)) + 1


@pytest.mark.parametrize("n, card", [(12, 2), (16, 2), (17, 2), (20, 2),
                                     (22, 2), (8, 3), (11, 3), (6, 4),
                                     (9, 4)])
def test_cpt_product_matches_reference(n, card):
    got, want = both_products(random_net(n, n, cardinality=card))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("cards, levels", [
    # Seven grown levels: the first lands in the output, the last is read
    # from the scratch table.
    ((2,) * 12 + (4,), 7),
    ((3,) * 4 + (2,) * 5 + (4, 2, 2), 7),
    # Eight and six: the first lands in the scratch table.
    ((2,) * 13 + (3,), 8),
    ((2,) * 6 + (3,) * 6, 6),
    # One: the head product is read straight into the output.
    ((2,) * 5 + (256,), 1),
])
def test_cpt_product_matches_reference_on_both_buffer_parities(cards,
                                                               levels):
    net = nets.parents_first(len(cards), cards)
    assert grown_levels(net) == levels
    got, want = both_products(net)
    assert np.array_equal(got, want)


def test_cpt_product_on_children_first_chain():
    # Not topological, and 2^18 cells span many blocks: each family's
    # last axis is its parent's.
    net = nets.chain_children_first(18)
    assert grown_levels(net) == 8
    got, want = both_products(net)
    assert np.all(np.abs(got - want) <= 1e-15 * want)


@pytest.mark.parametrize("case", [3, 4, "children-first"])
def test_cpt_product_order_free_within_rounding(case):
    # Declared in reverse, a network's families come with decreasing last
    # axes, so the grown product multiplies each cell's factors in
    # another order; two orders of m factors differ by at most 2(m - 1)
    # units of roundoff, eps / 2 each.
    net = case_net(case, 14)
    reverse = NetworkSpec(net.variables[::-1], net.parents, net.cpts)
    got, want = both_products(reverse)
    bound = (len(net.names) - 1) * np.finfo(float).eps
    assert np.all(np.abs(got - want) <= bound * want)
    assert np.allclose(np.transpose(got, list(range(got.ndim))[::-1]),
                       joint_from_network(net).probs, rtol=bound, atol=0.0)


def test_joint_holds_under_two_tables_at_its_peak():
    # The product holds its output and a scratch table of the level below,
    # half the output on binary axes.
    net = random_net(0, 20)
    joint_bytes = 8 * 2 ** 20
    tracemalloc.start()
    try:
        q = joint_from_network(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.probs.nbytes == joint_bytes
    assert peak < 1.6 * joint_bytes


def test_max_gap_matches_the_max_abs_difference():
    # Both signs: the product falls short of q on its largest cells.
    q = joint_from_network(random_net(5, 10))
    product = np.where(q.probs > np.median(q.probs), 0.5, 1.25) * q.probs
    want = np.max(np.abs(q.probs - product))
    assert want == np.max(q.probs) / 2
    assert _max_gap(product, q.probs) == want


# i_divergence


def test_divergence_of_table_with_itself(chain_net):
    q = joint_from_network(chain_net)
    assert i_divergence(q, q) == 0.0


def test_divergence_point_mass_vs_uniform():
    decl = (VariableDecl("A", 2),)
    p = JointTable(decl, np.array([1.0, 0.0]))
    q = JointTable(decl, np.array([0.5, 0.5]))
    assert i_divergence(p, q) == pytest.approx(np.log(2.0), abs=1e-15)


def test_divergence_infinite_when_dominance_fails():
    decl = (VariableDecl("A", 2),)
    p = JointTable(decl, np.array([0.5, 0.5]))
    q = JointTable(decl, np.array([1.0, 0.0]))
    assert i_divergence(p, q) == float("inf")


def reference_i_divergence(p, q):
    """I-divergence by one masked divide, with no zero-free fast path."""
    mask = p > 0.0
    if np.any(mask & (q <= 0.0)):
        return float("inf")
    terms = np.divide(p, q, out=np.ones(p.shape), where=mask)
    np.log(terms, out=terms)
    terms *= p
    return float(terms.sum())


def divergence_pair(p_zeros, q_zeros):
    """Two 2^12-cell joints over one scope; ``p_zeros`` and ``q_zeros``
    name flat cells to empty before renormalizing."""
    scope = random_net(1, 12).variables
    tables = []
    for seed, zeros in ((1, p_zeros), (2, q_zeros)):
        probs = joint_from_network(random_net(seed, 12)).probs.ravel().copy()
        probs[list(zeros)] = 0.0
        tables.append(JointTable(scope, probs / probs.sum()))
    return tables


@pytest.mark.parametrize("p_zeros, q_zeros", [((), ()), ((3, 700), ()),
                                              ((5, 9), (5, 9))])
def test_divergence_matches_masked_reference(p_zeros, q_zeros):
    p, q = divergence_pair(p_zeros, q_zeros)
    got = i_divergence(p, q)
    assert math.isfinite(got)
    assert got == reference_i_divergence(p.probs, q.probs)


def test_divergence_infinite_where_q_is_empty_under_p():
    p, q = divergence_pair((), (4000,))
    assert i_divergence(p, q) == float("inf")


def test_divergence_scope_mismatch():
    p = JointTable((VariableDecl("A", 2),), np.array([0.5, 0.5]))
    q = JointTable((VariableDecl("B", 2),), np.array([0.5, 0.5]))
    with pytest.raises(ScopeError):
        i_divergence(p, q)


@pytest.mark.parametrize("seed", range(8))
def test_divergence_nonnegative_zero_iff_equal(seed):
    net = random_net(seed, 5)
    q = joint_from_network(net)
    rng = np.random.default_rng(seed)
    noise = np.exp(0.3 * rng.normal(size=q.probs.shape))
    p = JointTable(q.scope, q.probs * noise / (q.probs * noise).sum())
    d = i_divergence(p, q)
    assert d >= 0.0
    if np.max(np.abs(p.probs - q.probs)) > 1e-12:
        assert d > 0.0
    assert i_divergence(q, q) == 0.0


# is_structurally_consistent


@pytest.mark.parametrize("case", NET_CASES)
def test_network_joint_is_structurally_consistent(case):
    net = case_net(case, 6)
    q = joint_from_network(net)
    assert is_structurally_consistent(q, net)


def test_perturbed_v_structure_joint_is_inconsistent():
    net = nets.v_structure()
    probs = joint_from_network(net).probs.copy()
    probs[0, 0, 0] += 0.05
    probs[1, 1, 1] -= 0.05
    q = JointTable(joint_from_network(net).scope, probs / probs.sum())
    assert not is_structurally_consistent(q, net)


# constraint_residual and validation


# SQUAREM-S3 candidate shared by e-ipfp and d-ipfp.  All inputs are binary
# fractions, so the arithmetic below is exact.

ONE_ROW = np.array([0, 0])


def test_squarem_clamped_step_returns_second_map():
    # |r| / |v| = 1/4, so the step length clamps to -1, where the candidate
    # is exactly t2.
    theta, t1, t2 = (np.array(x) for x in
                     ([0.5, 0.5], [0.625, 0.375], [0.25, 0.75]))
    candidate = _squarem(theta, t1, t2, ONE_ROW)
    assert candidate is not None
    assert np.array_equal(candidate, t2)


def test_squarem_rejects_negative_entry():
    # A geometric sequence 0.5, 0.8, 0.95 extrapolates to its limit 1.1,
    # which leaves the row's other entry at -0.1.
    theta, t1, t2 = (np.array(x) for x in
                     ([0.5, 0.5], [0.8, 0.2], [0.95, 0.05]))
    assert _squarem(theta, t1, t2, ONE_ROW) is None


def test_squarem_rejects_row_without_mass():
    # The second parent row is zero in every input, so the candidate's is
    # too and cannot be renormalized.
    theta, t1, t2 = (np.array(x) for x in ([0.5, 0.5, 0.0, 0.0],
                                           [0.625, 0.375, 0.0, 0.0],
                                           [0.25, 0.75, 0.0, 0.0]))
    assert _squarem(theta, t1, t2, np.array([0, 0, 1, 1])) is None


def test_squarem_rows_are_renormalized():
    # Inputs whose rows are off by a few percent give a candidate whose
    # every parent row sums to one; a zero-variance input is rejected.
    row = np.array([0, 0, 0, 1, 1])
    theta = np.array([0.2, 0.3, 0.5, 0.5, 0.5])
    t1 = np.array([0.25, 0.3, 0.5, 0.6, 0.4]) * 1.02
    t2 = np.array([0.27, 0.3, 0.45, 0.65, 0.35]) * 0.97
    candidate = _squarem(theta, t1, t2, row)
    assert candidate is not None
    assert candidate.min() >= 0.0
    assert np.max(np.abs(np.bincount(row, candidate) - 1.0)) <= 1e-12
    assert _squarem(theta, theta, theta, row) is None


def test_residual_zero_when_satisfied(chain_net):
    q = joint_from_network(chain_net)
    r = Constraint.over(chain_net, ("B",), marginalize(q, ("B",)).probs)
    assert constraint_residual(q, r) == 0.0


def test_residual_chain_example(chain_net):
    q = joint_from_network(chain_net)
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    assert constraint_residual(q, r) == pytest.approx(0.2, abs=1e-15)


def test_residual_full_scope_identity(chain_net):
    q = joint_from_network(chain_net)
    r = Constraint.over(chain_net, ("A", "B"), q.probs)
    assert constraint_residual(q, r) == 0.0


def test_constraint_rejects_scope_distribution_mismatch(chain_net):
    with pytest.raises(ValidationError):
        Constraint(("A",), JointTable((VariableDecl("B", 2),),
                                      np.array([0.5, 0.5])))


def test_validate_constraint_unknown_variable(chain_net):
    r = Constraint(("Z",), JointTable((VariableDecl("Z", 2),),
                                      np.array([0.5, 0.5])))
    with pytest.raises(ScopeError):
        validate_constraint(chain_net, r)


def test_validate_constraint_cardinality_mismatch(chain_net):
    r = Constraint(("B",), JointTable((VariableDecl("B", 3),),
                                      np.array([0.2, 0.3, 0.5])))
    with pytest.raises(ValidationError):
        validate_constraint(chain_net, r)


# classification


def test_classify_single_variable_is_local(diamond_net):
    r = nets.constraint_over(diamond_net, ("B",), [0.4, 0.6])
    cls = classify_constraint(diamond_net, r)
    assert cls == Local("B", ())


def test_classify_diamond_pair_is_nonlocal(diamond_net, diamond_r3):
    cls = classify_constraint(diamond_net, diamond_r3)
    assert cls == NonLocal(("A", "D"), ("B", "C"))


def test_classify_child_with_parent_is_local(diamond_net):
    cls = classify_scope(diamond_net, ("D", "B"))
    assert cls == Local("D", ("B",))


def test_classify_full_family_is_local(diamond_net):
    cls = classify_scope(diamond_net, ("B", "C", "D"))
    assert cls == Local("D", ("B", "C"))


@pytest.mark.parametrize("seed", range(5))
def test_at_most_one_member_covers_the_rest(seed):
    # Two members whose parents each cover the rest would be each other's
    # parents, a cycle; so the member that qualifies, if any, is the target.
    net = random_net(seed, 8)
    for size in (1, 2, 3):
        for scope in itertools.combinations(net.names, size):
            covering = [v for v in scope
                        if set(scope) - {v} <= set(net.parents[v])]
            assert len(covering) <= 1
            cls = classify_scope(net, scope)
            assert isinstance(cls, Local) == bool(covering)
            if covering:
                assert cls.target == covering[0]


@pytest.mark.parametrize("seed", range(6))
def test_every_single_variable_scope_is_local(seed):
    net = random_net(seed, 8)
    for name in net.names:
        cls = classify_scope(net, (name,))
        assert isinstance(cls, Local) and cls.target == name


# property sweep over randomized nets, mixed cardinalities included


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
       card=st.integers(2, 3))
def test_joint_properties_randomized(seed, n, card):
    net = random_net(seed, n, cardinality=card)
    q = joint_from_network(net)
    assert abs(float(q.probs.sum()) - 1.0) <= TAU_NORM
    assert is_structurally_consistent(q, net)
    name = net.names[seed % n]
    m = marginalize(q, (name,))
    assert abs(float(m.probs.sum()) - 1.0) <= 1e-12
