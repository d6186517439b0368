"""Variable elimination against dense marginalization."""

import numpy as np
import pytest

import nets
from bnrefit import (Cpt, NetworkSpec, VariableDecl, i_divergence,
                     joint_from_network, marginalize, run_d_ipfp)
from bnrefit.elimination import (Factor, _ancestral, contract, marginal,
                                 network_divergence)
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


def test_marginal_accepts_cpt_override(chain_net):
    flipped = Cpt("B", ("A",), np.array([[0.1, 0.9], [0.6, 0.4]]))
    got = marginal(chain_net, ("B",), cpts={**chain_net.cpts, "B": flipped})
    assert np.allclose(got, [0.35, 0.65], atol=1e-15)


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
    f = Factor(("A",), np.array([0.3, 0.7]))
    out = contract([f], ("A", "B"), {"A": 0, "B": 1}, {"A": 2, "B": 2})
    assert out.shape == (2, 2)
    assert np.array_equal(out[:, 0], np.array([0.3, 0.7]))
    assert np.array_equal(out[:, 0], out[:, 1])


def test_contract_scalar_factor_scales_result():
    f = Factor((), np.array(0.5))
    g = Factor(("A",), np.array([0.4, 0.6]))
    out = contract([f, g], ("A",), {"A": 0}, {"A": 2})
    assert np.allclose(out, [0.2, 0.3], atol=1e-15)


def test_marginal_of_root_ignores_descendant_tables(diamond_net):
    # The pruning is observable: corrupt every non-ancestor table and the
    # root marginal must not move.
    junk = {
        name: Cpt(name, diamond_net.parents[name],
                  np.full_like(diamond_net.cpts[name].table,
                               1.0 / diamond_net.cardinality(name)))
        for name in ("B", "C", "D")
    }
    got = marginal(diamond_net, ("A",), cpts={**diamond_net.cpts, **junk})
    assert np.array_equal(got, marginal(diamond_net, ("A",)))


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
