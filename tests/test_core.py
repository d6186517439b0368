"""Table primitives: joints, marginals, extraction, divergence, residuals."""

import graphlib
import itertools
import math
import tracemalloc
from dataclasses import dataclass

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
    DominanceError,
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
from bnrefit.core import (_block_shape, _blocked, _cpt_product, _divided,
                          _kl, _max_gap, _placed, _ratio, _squarem)
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


def random_dag(rng, n):
    """Declaration order and parents of a random DAG over ``n`` variables,
    up to four parents each, declared in a shuffled order."""
    topo = [f"V{i:02d}" for i in range(n)]
    parents = {}
    for i, name in enumerate(topo):
        k = int(rng.integers(0, min(i, 4) + 1))
        parents[name] = tuple(topo[j] for j in rng.permutation(i)[:k])
    return [topo[i] for i in rng.permutation(n)], parents


def network_over(names, parents):
    decls = tuple(VariableDecl(name, 2) for name in names)
    return NetworkSpec(decls, parents,
                       {name: Cpt(name, parents[name],
                                  np.full((2,) * (len(parents[name]) + 1), 0.5))
                        for name in names})


@pytest.mark.parametrize("seed", range(4))
def test_topo_order_matches_graphlib(seed):
    # graphlib's static order, every node added in declaration order before
    # any edge, is Kahn's algorithm with a first-in first-out queue seeded
    # in declaration order, each node's children in the order their
    # families were declared: the order topo_order promises.
    rng = np.random.default_rng(seed)
    for _ in range(100):
        names, parents = random_dag(rng, int(rng.integers(1, 15)))
        sorter = graphlib.TopologicalSorter()
        for name in names:
            sorter.add(name)
        for name in names:
            sorter.add(name, *parents[name])
        assert network_over(names, parents).topo_order == tuple(
            sorter.static_order())


@pytest.mark.parametrize("seed", range(4))
def test_cycle_error_names_a_cycle_of_parent_links(seed):
    # One back link, from a variable to one of its ancestors, closes a
    # cycle; the error must name some cycle made of declared parent links.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        names, parents = random_dag(rng, int(rng.integers(2, 15)))
        children = [name for name in names if parents[name]]
        if not children:
            continue
        child = children[int(rng.integers(len(children)))]
        ancestor = child
        for _ in range(int(rng.integers(1, 4))):
            if parents[ancestor]:
                ancestor = parents[ancestor][int(rng.integers(
                    len(parents[ancestor])))]
        parents[ancestor] += (child,)
        with pytest.raises(CycleError) as err:
            network_over(names, parents)
        message = str(err.value)
        assert message.startswith("cycle detected: ")
        cycle = message[len("cycle detected: "):].split(" -> ")
        assert cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        for a, b in zip(cycle, cycle[1:]):
            assert a in parents[b]


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


def argsort_placed(table, axes, ndim):
    """The placement rule written out: ``table``'s axes sorted by their
    destinations with ``np.argsort``, then a length-one axis for every
    destination axis ``table`` lacks."""
    moved = np.transpose(table, np.argsort(axes))
    shape = [1] * ndim
    for pos, size in zip(sorted(axes), moved.shape):
        shape[pos] = size
    return moved.reshape(shape)


def test_placed_matches_the_argsort_rule():
    # Every placement of a table of 1 to 4 axes, with distinct lengths so
    # that a swapped axis shows, on up to 6 destination axes.
    for ndim in range(1, 7):
        for k in range(1, min(ndim, 4) + 1):
            table = np.arange(math.prod(range(2, k + 2)),
                              dtype=float).reshape(range(2, k + 2))
            for axes in itertools.permutations(range(ndim), k):
                got = _placed(table, axes, ndim)
                want = argsort_placed(table, axes, ndim)
                assert got.shape == want.shape
                assert np.array_equal(got, want)


# One block, at most 256 cells: (2,), (3, 5), (2,) * 8 and (4, 4, 4); the
# rest span many blocks.
@pytest.mark.parametrize("shape", [(2,), (3, 5), (2,) * 8, (4, 4, 4),
                                   (2,) * 9, (3, 5, 7, 2), (16, 32),
                                   (2, 3, 300), (2,) * 12])
def test_blocked_matches_the_broadcast_placement(shape):
    rng = np.random.default_rng(len(shape))
    blocks = _block_shape(shape)
    for _ in range(40):
        k = int(rng.integers(1, min(len(shape), 4) + 1))
        axes = [int(a) for a in rng.permutation(len(shape))[:k]]
        table = rng.random([shape[a] for a in axes])
        got = _blocked(table, axes, shape)
        assert got.ndim == len(blocks) and got.shape[-1] == blocks[-1]
        want = np.broadcast_to(argsort_placed(table, axes, len(shape)),
                               shape).reshape(blocks)
        assert np.array_equal(np.broadcast_to(got, blocks), want)


def both_products(net):
    tables = {name: cpt.table for name, cpt in net.cpts.items()}
    return (_cpt_product(net.variables, tables, net.parents),
            reference_cpt_product(net.variables, tables, net.parents))


def grown_levels(net):
    """How many levels the product grows from its one-cell level: one per
    declared axis, so the first lands in the output when the count is odd
    and in the scratch table when it is even."""
    return len(net.variables)


# One block, at most 256 cells: (1, 2), (4, 2), (8, 2) and (5, 3); the
# rest span many blocks.
@pytest.mark.parametrize("n, card", [(1, 2), (4, 2), (8, 2), (5, 3),
                                     (12, 2), (16, 2), (17, 2), (20, 2),
                                     (22, 2), (8, 3), (11, 3), (6, 4),
                                     (9, 4)])
def test_cpt_product_matches_reference(n, card):
    got, want = both_products(random_net(n, n, cardinality=card))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("cards, levels", [
    # Thirteen levels: the first lands in the output, and the output and
    # the scratch table take turns until the last is read from the scratch
    # table into the output.
    ((2,) * 12 + (4,), 13),
    # Twelve and fourteen: the first lands in the scratch table.
    ((3,) * 4 + (2,) * 5 + (4, 2, 2), 12),
    ((2,) * 13 + (3,), 14),
    ((2,) * 6 + (3,) * 6, 12),
    # Six: the first five levels are one block each, and the last, whose
    # 256-state axis is a block of its own, is grown in 256 strided slices
    # from the 32-cell level below.
    ((2,) * 5 + (256,), 6),
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
    assert grown_levels(net) == 18
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


@dataclass(frozen=True)
class ParentRows:
    """A family-shaped case's ``p_zeros``: the flat parent rows that
    ``P(pa)`` leaves without mass."""

    rows: tuple[int, ...] = ()


def family_divergence_inputs(p_zeros: ParentRows, b_zeros):
    """``(weight, a, b)`` of one family whose parents have 3, 4 and 5
    states and whose child has 3: ``a`` and ``b`` are random CPTs and
    ``weight`` is the family mass ``P(pa) * a``, as in a chain-rule term.
    ``b_zeros`` names flat cells of ``b`` to empty before its rows are
    renormalized."""
    rng = np.random.default_rng(7)
    a, b = (rng.uniform(0.05, 1.0, (3, 4, 5, 3)) for _ in range(2))
    b.reshape(-1)[list(b_zeros)] = 0.0
    a /= a.sum(axis=-1, keepdims=True)
    b /= b.sum(axis=-1, keepdims=True)
    pa = rng.uniform(0.05, 1.0, (3, 4, 5))
    pa.reshape(-1)[list(p_zeros.rows)] = 0.0
    return (pa / pa.sum())[..., None] * a, a, b


def gathered_divergence(weight, a, b):
    """The family term gathered onto the cells with weight."""
    m = weight > 0.0
    if np.any(b[m] == 0.0):
        return math.inf
    return float((weight[m] * np.log(a[m] / b[m])).sum())


@pytest.mark.parametrize("p_zeros, q_zeros", [
    ((), ()), ((3, 700), ()), ((5, 9), (5, 9)),
    # Family-shaped: parent rows 1 and 6 hold cells 3 to 5 and 18 to 20.
    pytest.param(ParentRows(), (), id="family"),
    pytest.param(ParentRows((1, 6)), (), id="family-zero-mass-rows"),
    pytest.param(ParentRows((1, 6)), (4, 18, 20),
                 id="family-b-zero-without-mass"),
    pytest.param(ParentRows(), (4,), id="family-b-zero-under-mass"),
])
def test_divergence_matches_masked_reference(p_zeros, q_zeros):
    if isinstance(p_zeros, ParentRows):
        weight, a, b = family_divergence_inputs(p_zeros, q_zeros)
        got = _kl(weight, a, b)
        want = gathered_divergence(weight, a, b)
        # Only a zero of ``b`` under mass makes the term infinite.
        assert math.isinf(want) == (p_zeros.rows == () and q_zeros != ())
        if weight.min() > 0.0 and b.min() > 0.0:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        return
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
    # is exactly t2; an unbounded step never reaches its bound.
    theta, t1, t2 = (np.array(x) for x in
                     ([0.5, 0.5], [0.625, 0.375], [0.25, 0.75]))
    candidate, reached = _squarem(theta, t1, t2, ONE_ROW)
    assert candidate is not None
    assert np.array_equal(candidate, t2)
    assert not reached


def test_squarem_at_bound_one_returns_second_map_renormalized():
    # |r| / |v| = 4, so only the bound keeps the step at length 1, where
    # the candidate is t2, whose rows sum to 1.5 and 0.5, renormalized.
    # Unbounded, the step of length 4 leaves an entry negative.
    row = np.array([0, 0, 1, 1])
    theta = np.array([0.5, 0.5, 0.5, 0.5])
    t1 = np.array([0.625, 0.625, 0.375, 0.375])
    t2 = np.array([0.78125, 0.71875, 0.21875, 0.28125])
    candidate, reached = _squarem(theta, t1, t2, row, bound=1.0)
    assert reached
    assert np.array_equal(candidate, t2 / np.array([1.5, 1.5, 0.5, 0.5]))
    assert _squarem(theta, t1, t2, row) == (None, False)


@pytest.mark.parametrize("bound", [1.0, 2.0, 4.0, 16.0])
def test_squarem_bound_caps_step_length(bound):
    # A sequence whose steps shrink by 7/8 a map, 1/16 and then 7/128, has
    # |r| / |v| = 8 and extrapolates to its limit 1.  A bound below 8 caps
    # the step length at the bound; one above leaves the step at 8.
    theta, t1 = np.array([0.5, 0.5]), np.array([0.5625, 0.4375])
    t2 = np.array([0.6171875, 0.3828125])
    r, v = t1 - theta, t2 - 2.0 * t1 + theta
    length = min(bound, 8.0)
    candidate, reached = _squarem(theta, t1, t2, ONE_ROW, bound=bound)
    assert reached == (bound < 8.0)
    assert np.array_equal(candidate,
                          theta + 2.0 * length * r + length * length * v)
    if not reached:
        assert np.array_equal(candidate, [1.0, 0.0])


def test_squarem_rejects_negative_entry():
    # A geometric sequence 0.5, 0.8, 0.95 extrapolates to its limit 1.1,
    # which leaves the row's other entry at -0.1.
    theta, t1, t2 = (np.array(x) for x in
                     ([0.5, 0.5], [0.8, 0.2], [0.95, 0.05]))
    assert _squarem(theta, t1, t2, ONE_ROW)[0] is None


def test_squarem_rejects_row_without_mass():
    # The second parent row is zero in every input, so the candidate's is
    # too and cannot be renormalized.
    theta, t1, t2 = (np.array(x) for x in ([0.5, 0.5, 0.0, 0.0],
                                           [0.625, 0.375, 0.0, 0.0],
                                           [0.25, 0.75, 0.0, 0.0]))
    assert _squarem(theta, t1, t2, np.array([0, 0, 1, 1]))[0] is None


def test_squarem_rows_are_renormalized():
    # Inputs whose rows are off by a few percent give a candidate whose
    # every parent row sums to one; a zero-variance input is rejected.
    row = np.array([0, 0, 0, 1, 1])
    theta = np.array([0.2, 0.3, 0.5, 0.5, 0.5])
    t1 = np.array([0.25, 0.3, 0.5, 0.6, 0.4]) * 1.02
    t2 = np.array([0.27, 0.3, 0.45, 0.65, 0.35]) * 0.97
    candidate, _ = _squarem(theta, t1, t2, row)
    assert candidate is not None
    assert candidate.min() >= 0.0
    assert np.max(np.abs(np.bincount(row, candidate) - 1.0)) <= 1e-12
    assert _squarem(theta, theta, theta, row) == (None, False)


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


def chain_with(**cpts):
    """The chain network's declarations and parents with ``cpts`` in place
    of its CPTs (a value of None drops that CPT)."""
    chain = nets.make_chain()
    tables = {**chain.cpts, **cpts}
    return NetworkSpec(chain.variables, chain.parents,
                       {k: v for k, v in tables.items() if v is not None})


A2, B2 = VariableDecl("A", 2), VariableDecl("B", 2)
HALF = np.array([0.5, 0.5])


@pytest.mark.parametrize("build, error, fragment", [
    (lambda: VariableDecl("", 2), ValidationError, "non-empty string"),
    (lambda: Cpt("A", (), np.full((2, 2), 0.5)), ValidationError,
     "table has 2 axes, expected 1"),
    (lambda: Cpt("A", (), np.array([1.0])), ValidationError,
     "child axis has length 1"),
    (lambda: JointTable((), np.array([])), ValidationError,
     "needs a non-empty scope"),
    (lambda: JointTable((A2, A2), np.full((2, 2), 0.25)), ValidationError,
     "scope repeats a variable"),
    (lambda: JointTable((A2,), np.full(3, 1 / 3)), ValidationError,
     "does not match cardinalities (2,)"),
    (lambda: JointTable((A2,), HALF).axis("Z"), ScopeError,
     "variable 'Z' is not in scope ('A',)"),
    (lambda: Constraint((), JointTable((A2,), HALF)), ValidationError,
     "constraint scope must be non-empty"),
    (lambda: Constraint(("A", "A"), JointTable((A2,), HALF)),
     ValidationError, "constraint scope repeats a variable"),
    (lambda: NetworkSpec((), {}, {}), ValidationError,
     "at least one variable"),
    (lambda: NetworkSpec((A2, A2), {}, {}), ValidationError,
     "duplicate variable declaration"),
    (lambda: NetworkSpec((A2,), {"Z": ()}, {}), ValidationError,
     "parents given for undeclared variable 'Z'"),
    (lambda: NetworkSpec((A2, B2), {"B": ("A", "A")}, {}), ValidationError,
     "variable 'B': duplicate parent"),
    (lambda: chain_with(Z=Cpt("Z", (), HALF)), ValidationError,
     "CPT given for undeclared variable 'Z'"),
    (lambda: chain_with(B=None), ValidationError, "variable 'B': no CPT"),
    (lambda: chain_with(B=Cpt("A", (), HALF)), ValidationError,
     "CPT stored under 'B' declares child 'A'"),
    (lambda: chain_with(B=Cpt("B", (), HALF)), ValidationError,
     "CPT parent order () differs from declared parents ('A',)"),
    (lambda: nets.make_chain().axis("Z"), ScopeError,
     "variable 'Z' is not declared in this network"),
    (lambda: marginalize(joint_from_network(nets.make_chain()), ()),
     ScopeError, "marginalization target must be non-empty"),
    (lambda: marginalize(joint_from_network(nets.make_chain()), ("A", "A")),
     ScopeError, "marginalization target repeats a variable"),
    (lambda: is_structurally_consistent(joint_from_network(nets.make_chain()),
                                        nets.make_diamond()),
     ScopeError, "does not match network variables"),
    (lambda: classify_scope(nets.make_chain(), ("A", "Z")), ScopeError,
     "unknown variable 'Z'"),
], ids=["decl-name", "cpt-axes", "cpt-child-axis", "joint-empty",
        "joint-repeat", "joint-shape", "joint-axis", "constraint-empty",
        "constraint-repeat", "network-empty", "network-duplicate",
        "parents-undeclared", "parents-duplicate", "cpt-undeclared",
        "cpt-missing", "cpt-child", "cpt-parent-order", "network-axis",
        "marginal-empty", "marginal-repeat", "prefix-scope",
        "classify-unknown"])
def test_validation_raises(build, error, fragment):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert fragment in str(err.value)


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


# the proportional-step rule every solver shares


table_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=table_shapes,
       per_row=st.booleans(),
       fallback_kind=st.sampled_from(["scalar", "row", "full"]),
       zero_sum=st.booleans())
def test_divided_is_the_masked_divide(seed, shape, per_row, fallback_kind,
                                      zero_sum):
    # Sums per row (a length-one last axis) or per cell, with or without a
    # zero sum, and a scalar, row-broadcast or full fallback: the result
    # has the bits of the spelled-out masked divide onto the fallback, and
    # the fallback itself is left as it was.
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 1.0, shape)
    values[rng.random(shape) < 0.3] = 0.0
    sums = (values.sum(axis=-1, keepdims=True) if per_row
            else rng.uniform(0.1, 1.0, shape))
    sums[sums < 0.1] = 0.1
    if zero_sum:
        sums.flat[rng.integers(sums.size)] = 0.0
    fallback = {"scalar": float(rng.random()),
                "row": rng.random(shape[-1:]),
                "full": rng.random(shape)}[fallback_kind]
    kept = np.copy(fallback)
    want = np.divide(values, sums,
                     out=np.broadcast_to(fallback, shape).copy(),
                     where=sums > 0.0)
    got = _divided(values, sums, fallback)
    assert got.shape == shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(fallback, kept)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=table_shapes)
def test_ratio_paths_agree_to_the_bit(seed, shape):
    # Cells where target and current are both zero send the ratio down the
    # masked path; setting those cells of current to one instead sends the
    # same tables down the plain divide.  Both give every cell the same
    # bits: the plain quotient where current has mass, zero elsewhere.
    rng = np.random.default_rng(seed)
    target = rng.uniform(0.1, 1.0, shape)
    current = rng.uniform(0.1, 1.0, shape)
    empty = rng.random(shape) < 0.3
    empty.flat[rng.integers(empty.size)] = True
    target[empty] = 0.0
    names = tuple(f"V{i}" for i in range(len(shape)))
    masked = _ratio(target, np.where(empty, 0.0, current), names)
    plain = _ratio(target, np.where(empty, 1.0, current), names)
    assert masked.tobytes() == plain.tobytes()
    assert plain.tobytes() == (target / np.where(empty, 1.0, current)).tobytes()
    assert masked.tobytes() == np.divide(
        target, np.where(empty, 0.0, current), out=np.zeros(shape),
        where=~empty).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple))
def test_ratio_names_the_first_blocked_cell_in_c_order(seed, shape):
    # Over several axes, the error names the first cell in C order where
    # the target has mass and current has none, in the text every solver
    # prints.
    rng = np.random.default_rng(seed)
    target = rng.uniform(0.1, 1.0, shape)
    target[rng.random(shape) < 0.3] = 0.0
    current = rng.uniform(0.1, 1.0, shape)
    current[rng.random(shape) < 0.3] = 0.0
    cell = tuple(int(rng.integers(n)) for n in shape)
    target[cell], current[cell] = 0.25, 0.0
    names = ("W", "X", "Y", "Z")[:len(shape)]
    first = next(idx for idx in np.ndindex(*shape)
                 if current[idx] == 0.0 and target[idx] > 0.0)
    where = ", ".join(f"{n}={i}" for n, i in zip(names, first))
    with pytest.raises(DominanceError) as err:
        _ratio(target, current, names)
    assert str(err.value) == (
        f"constraint over {names} requires mass {target[first]:.17g} at "
        f"({where}) where the current distribution has none")
