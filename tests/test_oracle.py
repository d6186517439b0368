"""The enumeration oracle agrees with the array implementation.

The oracle is deliberately primitive: nested loops over explicit
assignments, plain floats, no arrays.  Agreement to near machine epsilon
on random networks is the evidence that the vectorized code computes the
quantities it claims to.
"""

import itertools
import math

import numpy as np
import pytest

import nets
import oracle
from bnrefit import (
    NetworkSpec,
    i_divergence,
    joint_from_network,
    marginalize,
    run_ipfp,
)
from bnrefit.core import _block_shape, _cpt_product, _outside_parents
from bnrefit.generate import random_network


def enum_of(net) -> oracle.EnumJoint:
    names, cards, parents, tables = nets.as_plain(net)
    return oracle.oracle_joint(names, cards, parents, tables)


def enum_of_joint(q) -> oracle.EnumJoint:
    names = q.names
    cards = [q.probs.shape[i] for i in range(q.probs.ndim)]
    assignments = [
        (key, float(q.probs[key]))
        for key in itertools.product(*(range(c) for c in cards))
    ]
    return oracle.EnumJoint(tuple(names), tuple(cards), assignments)


def test_single_variable_assignments(single_net):
    enum = enum_of(single_net)
    assert enum.prob((0,)) == pytest.approx(0.6, abs=1e-15)
    assert enum.prob((1,)) == pytest.approx(0.4, abs=1e-15)


def test_chain_matches_vectorized_joint(chain_net):
    enum = enum_of(chain_net)
    q = joint_from_network(chain_net)
    for a, prob in enum.assignments:
        assert abs(prob - float(q.probs[a])) <= 1e-15


def test_enum_joint_covers_every_assignment(diamond_net):
    enum = enum_of(diamond_net)
    assert len(enum.assignments) == 16
    assert len({a for a, _ in enum.assignments}) == 16
    assert sum(p for _, p in enum.assignments) == pytest.approx(1.0, abs=1e-12)


def product_oracle(net, names, multiplied) -> oracle.EnumJoint:
    """Oracle product over ``names`` of the CPTs of ``multiplied`` only.

    Every other variable gets a parentless table of ones, so the oracle's
    entry product is the product of the chosen CPTs alone.
    """
    _, _, parents, tables = nets.as_plain(net)
    cards = [net.cardinality(v) for v in names]
    for v, card in zip(names, cards):
        if v not in multiplied:
            parents[v], tables[v] = (), [1.0] * card
    return oracle.oracle_joint(names, cards, parents, tables)


def worst_gap(enum: oracle.EnumJoint, table: np.ndarray) -> float:
    return max(abs(prob - float(table[a])) for a, prob in enum.assignments)


@pytest.mark.parametrize("seed", range(100))
def test_random_networks_match_vectorized_joint(seed):
    # Up to 4,096 and 19,683 cells, beyond core._BLOCK: the product runs
    # on a head and a contiguous block.  Declared in reverse topological
    # order, children sit in the head with parents in the block.  The
    # direct _cpt_product cases are build_local_subnet's call (tables for
    # y only, over s + y) and a product where no table reaches the block,
    # so the head product is only copied into each grown level.
    rng = np.random.default_rng(seed)
    card = 2 + seed % 2
    n = 3 + seed % (10 if card == 2 else 7)
    net = random_network(rng, n, card, 3)
    enum = enum_of(net)
    q = joint_from_network(net)
    assert worst_gap(enum, q.probs) <= 1e-12

    reverse = NetworkSpec(net.variables[::-1], net.parents, net.cpts)
    assert worst_gap(enum_of(reverse),
                     joint_from_network(reverse).probs) <= 1e-12

    y = net.names[n // 4:]
    s = _outside_parents(net, y)
    subnet = _cpt_product([net.decl(v) for v in s + y],
                          {v: net.cpts[v].table for v in y}, net.parents)
    assert worst_gap(product_oracle(net, s + y, y), subnet) <= 1e-12

    head = len(_block_shape(q.probs.shape)) - 1
    inside = [v for v in net.names
              if max(map(net.axis, net.parents[v] + (v,))) < head]
    only_head = _cpt_product(net.variables,
                             {v: net.cpts[v].table for v in inside},
                             net.parents)
    assert worst_gap(product_oracle(net, net.names, inside),
                     only_head) <= 1e-12


def test_oracle_marginal_matches_marginalize(diamond_net):
    # Targets in declaration order, permuted, and over the full scope, on
    # the diamond and on a network declared children first.
    children_first = nets.children_first()
    cases = [
        (diamond_net, ("A", "D")),
        (diamond_net, ("D", "B", "A")),
        (diamond_net, ("C", "A", "D", "B")),
        (children_first, ("V1", "V4")),
        (children_first, ("V0", "V3", "V5")),
        (children_first, ("V0", "V2", "V4", "V1", "V5", "V3")),
    ]
    for net, target in cases:
        enum = enum_of(net)
        q = joint_from_network(net)
        marg = oracle.oracle_marginal(enum, target)
        vect = marginalize(q, target).probs
        assert len(marg) == vect.size
        for key, value in marg.items():
            assert abs(value - float(vect[key])) <= 1e-12


def test_oracle_divergence_ln2():
    names, cards = ("A",), (2,)
    p = oracle.EnumJoint(names, cards, [((0,), 1.0), ((1,), 0.0)])
    q = oracle.EnumJoint(names, cards, [((0,), 0.5), ((1,), 0.5)])
    assert oracle.oracle_divergence(p, q) == pytest.approx(math.log(2.0),
                                                           abs=1e-15)


def test_oracle_divergence_dominance_is_infinite():
    names, cards = ("A",), (2,)
    p = oracle.EnumJoint(names, cards, [((0,), 0.5), ((1,), 0.5)])
    q = oracle.EnumJoint(names, cards, [((0,), 1.0), ((1,), 0.0)])
    assert oracle.oracle_divergence(p, q) == math.inf


def test_oracle_divergence_matches_vectorized(diamond_net, chain_net, rng):
    q = joint_from_network(diamond_net)
    raw = rng.random(q.probs.shape)
    p_probs = raw / raw.sum()
    from bnrefit import JointTable

    p = JointTable(q.scope, p_probs)
    got = oracle.oracle_divergence(enum_of_joint(p), enum_of_joint(q))
    want = i_divergence(p, q)
    assert abs(got - want) <= 1e-12

    # Beyond core._BLOCK cells, with p empty on a quarter of the table;
    # then with q empty on one cell where p has mass.
    q = joint_from_network(random_network(rng, 10, 2, 3))
    raw = rng.random(q.probs.shape)
    raw[0, ..., 1] = 0.0
    p = JointTable(q.scope, raw / raw.sum())
    got = oracle.oracle_divergence(enum_of_joint(p), enum_of_joint(q))
    assert abs(got - i_divergence(p, q)) <= 1e-12
    holed = q.probs.copy()
    holed[(1,) * 10] = 0.0
    q = JointTable(q.scope, holed / holed.sum())
    assert oracle.oracle_divergence(enum_of_joint(p), enum_of_joint(q)) \
        == i_divergence(p, q) == math.inf


def test_feasible_samples_meet_target_exactly(chain_net):
    enum = enum_of(chain_net)
    target = {(0,): 0.3, (1,): 0.7}
    samples = oracle.oracle_feasible_sample(enum, ("B",), target, 50, seed=5)
    assert len(samples) == 50
    for s in samples:
        marg = oracle.oracle_marginal(s, ("B",))
        assert abs(marg[(0,)] - 0.3) <= 1e-12
        assert abs(marg[(1,)] - 0.7) <= 1e-12
        assert sum(p for _, p in s.assignments) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_feasible_samples_zero_count():
    names, cards = ("A",), (2,)
    q = oracle.EnumJoint(names, cards, [((0,), 0.5), ((1,), 0.5)])
    assert oracle.oracle_feasible_sample(q, ("A",), {(0,): 1.0}, 0, 1) == []


def test_feasible_samples_deterministic(chain_net):
    enum = enum_of(chain_net)
    target = {(0,): 0.3, (1,): 0.7}
    a = oracle.oracle_feasible_sample(enum, ("B",), target, 5, seed=9)
    b = oracle.oracle_feasible_sample(enum, ("B",), target, 5, seed=9)
    assert [s.assignments for s in a] == [s.assignments for s in b]


def test_sampled_divergence_never_beats_the_solver(chain_net):
    # run_ipfp claims the I-projection; no feasible sample may sit closer
    # to the prior than the projection does.
    r = nets.constraint_over(chain_net, ("B",), [0.3, 0.7])
    _, report = run_ipfp(chain_net, [r])
    enum = enum_of(chain_net)
    target = {(0,): 0.3, (1,): 0.7}
    samples = oracle.oracle_feasible_sample(enum, ("B",), target, 500, seed=3)
    best = min(oracle.oracle_divergence(s, enum) for s in samples)
    assert report.final_divergence <= best + 1e-9
