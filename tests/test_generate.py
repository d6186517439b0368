"""Instance generator: determinism, admissibility, satisfiability."""

import hashlib

import numpy as np
import pytest

from bnrefit import (
    Local,
    NonLocal,
    classify_constraint,
    constraint_residual,
    joint_from_network,
    run_d_ipfp,
    serialize_constraints,
    serialize_network,
    validate_constraint,
)
from bnrefit.generate import (
    generate_instance,
    perturb_network,
    random_constraints,
    random_network,
)


def test_random_network_shape_bounds():
    rng = np.random.default_rng(0)
    net = random_network(rng, 12, 3, 3)
    assert len(net.names) == 12
    for name in net.names:
        assert net.cardinality(name) == 3
        assert len(net.parents[name]) <= 3


@pytest.mark.parametrize("n_nodes", [0, -1])
def test_validation_raises(n_nodes):
    with pytest.raises(ValueError) as err:
        random_network(np.random.default_rng(0), n_nodes)
    assert type(err.value) is ValueError
    assert f"n_nodes must be >= 1, got {n_nodes}" in str(err.value)


def test_random_network_rows_normalize():
    net = random_network(np.random.default_rng(4), 10, 2, 3)
    for name in net.names:
        table = net.cpts[name].table
        rows = table.reshape(-1, table.shape[-1])
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12


def test_perturb_network_only_touches_selected():
    net = random_network(np.random.default_rng(5), 8, 2, 3)
    rng = np.random.default_rng(6)
    twin = perturb_network(rng, net, only={net.names[2], net.names[5]})
    for i, name in enumerate(net.names):
        same = np.array_equal(twin.cpts[name].table, net.cpts[name].table)
        assert same == (i not in (2, 5))


def test_perturb_network_keeps_structure():
    net = random_network(np.random.default_rng(5), 8, 2, 3)
    twin = perturb_network(np.random.default_rng(6), net)
    assert twin.variables is net.variables
    assert twin.parents == net.parents


def test_generate_instance_is_deterministic():
    net_a, rs_a = generate_instance(3, n_nodes=10, num_constraints=5)
    net_b, rs_b = generate_instance(3, n_nodes=10, num_constraints=5)
    assert serialize_network(net_a) == serialize_network(net_b)
    assert serialize_constraints(rs_a) == serialize_constraints(rs_b)


# sha256 prefixes of the serialized network and constraints of the dense
# benchmark instances (``test_fileio`` pins the 120- and 1000-variable ones).
DENSE_INSTANCE_HASHES = {
    (0, 20, 6): ("9183eb0c649bd58f", "4ba9c5f22c158d47"),
    (0, 16, 6): ("e5e2a8cff80f8ec8", "7d9f3b0715799c9d"),
}


@pytest.mark.parametrize("seed, nodes, num_constraints",
                         sorted(DENSE_INSTANCE_HASHES))
def test_benchmark_instances_are_pinned(seed, nodes, num_constraints):
    net, constraints = generate_instance(seed, nodes, num_constraints)
    assert (hashlib.sha256(serialize_network(net)).hexdigest()[:16],
            hashlib.sha256(serialize_constraints(constraints)).hexdigest()[:16]
            ) == DENSE_INSTANCE_HASHES[seed, nodes, num_constraints]


# sha256 prefixes of the serialized constraints that ``random_constraints``
# draws, count 10, on a 30-variable network of in-degree at most 5 or 6.
# At in-degree 3 no grandparent pair spans more than ``SUBNET_SPAN``
# variables; here the filter rejects a fifth to a third of them (141 of 783
# at in-degree 5 and 327 of 1,012 at 6 over seeds 0-9), and without it
# seven of these eight sets come out different.
WIDE_CONSTRAINT_HASHES = {
    (5, 0): "280bdaef57180f40",
    (5, 1): "15e4cf53d22f3552",
    (5, 2): "3c80ffa255c62d1f",
    (5, 3): "34f935912d0cfac7",
    (6, 0): "f9144dfc57c87f42",
    (6, 1): "441f2a215bf7ff7a",
    (6, 2): "545dba9abf9b9848",
    (6, 3): "2b9dc298e97007d9",
}


@pytest.mark.parametrize("in_degree, seed", sorted(WIDE_CONSTRAINT_HASHES))
def test_subnet_span_filter_is_pinned(in_degree, seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 30, 2, in_degree)
    constraints = random_constraints(rng, net, 10)
    assert (hashlib.sha256(serialize_constraints(constraints)).hexdigest()[:16]
            == WIDE_CONSTRAINT_HASHES[in_degree, seed])


def test_generate_instance_different_seeds_differ():
    net_a, _ = generate_instance(0, n_nodes=10, num_constraints=5)
    net_b, _ = generate_instance(1, n_nodes=10, num_constraints=5)
    assert serialize_network(net_a) != serialize_network(net_b)


@pytest.mark.parametrize("seed", range(10))
def test_generate_instance_delivers_mixed_set(seed):
    net, constraints = generate_instance(seed)
    assert len(constraints) == 8
    kinds = [classify_constraint(net, r) for r in constraints]
    assert any(isinstance(k, NonLocal) for k in kinds)
    assert any(isinstance(k, Local) for k in kinds)
    for r in constraints:
        validate_constraint(net, r)
        assert 1 <= len(r.scope) <= 3


@pytest.mark.parametrize("seed", range(10))
def test_generate_instance_respects_subnet_budget(seed):
    net, constraints = generate_instance(seed)
    for r in constraints:
        kind = classify_constraint(net, r)
        if isinstance(kind, NonLocal):
            assert len(kind.y) + len(kind.s) <= 8


def test_generated_editables_never_repeat():
    net, constraints = generate_instance(0)
    edited: list[str] = []
    for r in constraints:
        kind = classify_constraint(net, r)
        edited.extend(kind.y if isinstance(kind, NonLocal) else [kind.target])
    assert len(edited) == len(set(edited))


def test_generated_targets_come_from_a_twin():
    # Every target is an exact marginal of one perturbed network, so the
    # whole set is satisfied at once by that twin's joint.
    net, constraints = generate_instance(2, n_nodes=10, num_constraints=4)
    edited = set()
    for r in constraints:
        kind = classify_constraint(net, r)
        edited.update(kind.y if isinstance(kind, NonLocal) else {kind.target})
    # Rebuild the twin the generator drew: same seed, same draw order.
    # Cheaper and independent: solve, then check residuals are tiny.
    out, report = run_d_ipfp(net, constraints)
    q = joint_from_network(out)
    for r in constraints:
        assert constraint_residual(q, r) <= 1e-9
    for name in net.names:
        if name not in edited:
            assert out.cpts[name] is net.cpts[name]


def test_random_constraints_count_shortfall_is_graceful():
    # A 3-node chain cannot host 8 decoupled scopes; the generator returns
    # what fits instead of raising.
    rng = np.random.default_rng(1)
    net = random_network(rng, 3, 2, 1)
    out = random_constraints(rng, net, count=8)
    assert 1 <= len(out) <= 8
