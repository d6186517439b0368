"""Variable elimination against dense marginalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nets
from bnrefit import (Cpt, NetworkSpec, VariableDecl, i_divergence,
                     joint_from_network, marginalize, run_d_ipfp)
from bnrefit.elimination import (_ancestral, contract, marginal,
                                 network_divergence, plan_contraction,
                                 plan_cpt_contraction)
from bnrefit.core import ScopeError
from bnrefit.generate import generate_instance, random_network


def random_net(seed, n, cardinality=2):
    return random_network(np.random.default_rng(seed), n, cardinality, 3)


@pytest.mark.parametrize("seed", range(10))
def test_marginal_matches_dense(seed):
    net = random_net(seed, 4 + seed % 9)
    q = joint_from_network(net)
    rng = np.random.default_rng(seed)
    for size in (1, 2, 3):
        targets = tuple(rng.permutation(net.names)[:size])
        got = marginal(net, targets)
        want = marginalize(q, targets).probs
        assert np.max(np.abs(got - want)) <= 1e-12


def test_marginal_mixed_cardinality():
    net = random_net(3, 6, cardinality=3)
    q = joint_from_network(net)
    targets = (net.names[4], net.names[1])
    got = marginal(net, targets)
    assert got.shape == (3, 3)
    assert np.max(np.abs(got - marginalize(q, targets).probs)) <= 1e-12


def test_marginal_follows_a_replaced_table(chain_net):
    flipped = Cpt("B", ("A",), np.array([[0.1, 0.9], [0.6, 0.4]]))
    net = NetworkSpec(chain_net.variables, chain_net.parents,
                      {**chain_net.cpts, "B": flipped})
    assert np.allclose(marginal(net, ("B",)), [0.35, 0.65], atol=1e-15)


def test_marginal_rejects_unknown_and_duplicate(chain_net):
    with pytest.raises(ScopeError):
        marginal(chain_net, ("Z",))
    with pytest.raises(ScopeError):
        marginal(chain_net, ("A", "A"))


def test_ancestral_prunes_barren_descendants(diamond_net):
    have = set(diamond_net.names)
    assert _ancestral(diamond_net.parents, ("A",), have) == {"A"}
    assert _ancestral(diamond_net.parents, ("B",), have) == {"A", "B"}
    assert _ancestral(diamond_net.parents, ("D",), have) == {"A", "B", "C", "D"}


def test_ancestral_respects_missing_cpts(diamond_net):
    # Walking for D's family without D's own table must not pull D in.
    have = set(diamond_net.names) - {"D"}
    assert _ancestral(diamond_net.parents, ("B", "C", "D"), have) == {"A", "B", "C"}


def test_contract_broadcasts_missing_keep_variable():
    plan = plan_contraction([("A",)], ("A", "B"), {"A": 0, "B": 1},
                            {"A": 2, "B": 2})
    out = contract(plan, [np.array([0.3, 0.7])])
    assert out.shape == (2, 2)
    assert np.array_equal(out[:, 0], np.array([0.3, 0.7]))
    assert np.array_equal(out[:, 0], out[:, 1])


def test_contract_scalar_factor_scales_result():
    plan = plan_contraction([(), ("A",)], ("A",), {"A": 0}, {"A": 2})
    out = contract(plan, [np.array(0.5), np.array([0.4, 0.6])])
    assert np.allclose(out, [0.2, 0.3], atol=1e-15)


def test_contract_rejects_wrong_table_count():
    plan = plan_contraction([("A",), ("A",)], (), {"A": 0}, {"A": 2})
    with pytest.raises(ScopeError):
        contract(plan, [np.array([0.4, 0.6])])


@st.composite
def factor_sets(draw):
    """Scopes (some empty), a ``keep`` tuple in any order that may name
    variables no scope holds, ranks, cardinalities and a table seed."""
    n = draw(st.integers(1, 8))
    names = [f"V{i}" for i in range(n)]
    cards = {v: draw(st.integers(2, 4)) for v in names}
    rank = {v: i for i, v in enumerate(draw(st.permutations(names)))}
    scope = st.lists(st.sampled_from(names), unique=True, max_size=4)
    scopes = [tuple(s) for s in draw(st.lists(scope, max_size=7))]
    keep = tuple(draw(st.lists(st.sampled_from(names), unique=True)))
    return names, cards, rank, scopes, keep, draw(st.integers(0, 2**32 - 1))


def naive_order(scopes, keep, rank, cards):
    """The greedy rule by full rescans: at every step, score each hidden
    variable by the cells of the union of the live factors holding it, less
    itself, ties to the lower rank; the group's product replaces it."""
    live = [set(s) for s in scopes]
    hidden = set().union(*live) - set(keep)
    order = []
    while hidden:
        def key(v):
            union = set().union(*(f for f in live if v in f)) - {v}
            return math.prod(cards[u] for u in union), rank[v]
        v = min(hidden, key=key)
        group = [f for f in live if v in f]
        live = [f for f in live if v not in f] + [set().union(*group) - {v}]
        hidden.remove(v)
        order.append(v)
    return order


@settings(max_examples=300, deadline=None)
@given(factor_sets())
def test_contract_matches_dense_einsum_and_naive_order(case):
    names, cards, rank, scopes, keep, seed = case
    rng = np.random.default_rng(seed)
    tables = [rng.random(tuple(cards[v] for v in s)) for s in scopes]
    plan = plan_contraction(scopes, keep, rank, cards)
    assert list(plan.order) == naive_order(scopes, keep, rank, cards)
    got = contract(plan, tables)
    # The dense reference is one einsum over every variable the factors or
    # ``keep`` name; a table of ones over ``keep`` gives each kept variable
    # an axis even where no factor holds it.
    letter = {v: i for i, v in enumerate(names)}
    operands = [np.ones(tuple(cards[v] for v in keep)),
                [letter[v] for v in keep]]
    for s, t in zip(scopes, tables):
        operands += [t, [letter[v] for v in s]]
    want = np.einsum(*operands, [letter[v] for v in keep])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(
        1.0, float(np.max(np.abs(want), initial=0.0)))


def test_marginal_of_root_ignores_descendant_tables(diamond_net):
    # The root's marginal is planned on its own table alone, so replacing
    # every non-ancestor table must not move it.
    assert plan_cpt_contraction(diamond_net, ("A",))[0] == ("A",)
    junk = {
        name: Cpt(name, diamond_net.parents[name],
                  np.full_like(diamond_net.cpts[name].table,
                               1.0 / diamond_net.cardinality(name)))
        for name in ("B", "C", "D")
    }
    net = NetworkSpec(diamond_net.variables, diamond_net.parents,
                      {**diamond_net.cpts, **junk})
    assert np.array_equal(marginal(net, ("A",)), marginal(diamond_net, ("A",)))


def chain(a_row, b_rows, parents=("A",)):
    """A -> B (or independent A, B with ``parents=()``) with given tables."""
    return NetworkSpec(
        (VariableDecl("A", 2), VariableDecl("B", 2)),
        {"B": parents},
        {"A": Cpt("A", (), np.array(a_row)),
         "B": Cpt("B", parents, np.array(b_rows))},
    )


def divergence_pair(name):
    """Two networks on one DAG, ``(p, q)``, for the factored divergence."""
    if name == "diamond-d-ipfp":
        net = nets.make_diamond()
        return run_d_ipfp(net, [nets.diamond_r3(net)])[0], net
    if name in ("generated-d-ipfp-2", "generated-d-ipfp-3"):
        # Seeds whose fits edit four CPTs that have parents.
        card = int(name[-1])
        seed = {2: 0, 3: 5}[card]
        net, constraints = generate_instance(seed, n_nodes=9,
                                             num_constraints=4,
                                             cardinality=card)
        return run_d_ipfp(net, constraints)[0], net
    if name == "identical":
        net = nets.make_diamond()
        copy = {n: Cpt(n, c.parent_order, c.table.copy())
                for n, c in net.cpts.items()}
        return NetworkSpec(net.variables, net.parents, copy), net
    if name == "zero-mass-parent-row":
        # P(A=1) = 0, so P's uniform row for B given A=1 carries no mass,
        # although Q's row zeroes one of its cells.
        return (chain([1.0, 0.0], [[0.3, 0.7], [0.5, 0.5]]),
                chain([0.8, 0.2], [[0.8, 0.2], [1.0, 0.0]]))
    if name == "infinite":
        return (chain([0.6, 0.4], [[0.3, 0.7], [0.5, 0.5]]),
                chain([0.6, 0.4], [[0.3, 0.7], [1.0, 0.0]]))
    # different parents: A -> B against independent A and B
    return (chain([0.6, 0.4], [[0.3, 0.7], [0.5, 0.5]]),
            chain([0.6, 0.4], [0.4, 0.6], parents=()))


@pytest.mark.parametrize("name", [
    "diamond-d-ipfp", "generated-d-ipfp-2", "generated-d-ipfp-3",
    "identical", "zero-mass-parent-row", "infinite", "different-parents",
])
def test_network_divergence_matches_dense(name):
    p, q = divergence_pair(name)
    if name == "different-parents":
        with pytest.raises(ScopeError):
            network_divergence(p, q)
        return
    got = network_divergence(p, q)
    want = i_divergence(joint_from_network(p), joint_from_network(q))
    if name == "identical":
        assert got == 0.0 == want
    elif name == "infinite":
        assert got == np.inf == want
    else:
        assert 0.0 < got < np.inf
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
