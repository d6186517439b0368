"""Hand-sized networks and constants shared by the test modules.

The diamond net fixes P(A=1)=0.4 and P(D=0|B=1,C=1)=0.9; everything pinned
against it (divergence values, cycle counts, the 0.36 subnet cell) was
derived first with the enumeration oracle in ``oracle.py`` or by hand, then
frozen here.
"""

from __future__ import annotations

import numpy as np

from bnrefit import Constraint, Cpt, JointTable, NetworkSpec, VariableDecl
from bnrefit import generate
from bnrefit.elimination import marginal


def make_single() -> NetworkSpec:
    """One binary variable A with P(A=1)=0.4."""
    return NetworkSpec(
        (VariableDecl("A", 2),),
        {},
        {"A": Cpt("A", (), np.array([0.6, 0.4]))},
    )


def make_chain() -> NetworkSpec:
    """A -> B with P(A=1)=0.5, P(B=1|A=0)=0.2, P(B=1|A=1)=0.8."""
    return NetworkSpec(
        (VariableDecl("A", 2), VariableDecl("B", 2)),
        {"B": ("A",)},
        {
            "A": Cpt("A", (), np.array([0.5, 0.5])),
            "B": Cpt("B", ("A",), np.array([[0.8, 0.2], [0.2, 0.8]])),
        },
    )


def make_diamond() -> NetworkSpec:
    """A -> B, A -> C, B -> D, C -> D."""
    return NetworkSpec(
        (
            VariableDecl("A", 2),
            VariableDecl("B", 2),
            VariableDecl("C", 2),
            VariableDecl("D", 2),
        ),
        {"B": ("A",), "C": ("A",), "D": ("B", "C")},
        {
            "A": Cpt("A", (), np.array([0.6, 0.4])),
            "B": Cpt("B", ("A",), np.array([[0.3, 0.7], [0.7, 0.3]])),
            "C": Cpt("C", ("A",), np.array([[0.5, 0.5], [0.3, 0.7]])),
            "D": Cpt("D", ("B", "C"), np.array([
                [[0.5, 0.5], [0.7, 0.3]],
                [[0.4, 0.6], [0.9, 0.1]],
            ])),
        },
    )


def diamond_without_a1() -> NetworkSpec:
    """The diamond with P(A=1)=0: every cell with A=1 has zero mass."""
    net = make_diamond()
    return NetworkSpec(net.variables, net.parents,
                       dict(net.cpts, A=Cpt("A", (), np.array([1.0, 0.0]))))


def diamond_r3(net: NetworkSpec) -> Constraint:
    """Non-local target marginal over (A, D), state 0 first."""
    return Constraint.over(net, ("A", "D"),
                           np.array([[0.4686, 0.1314], [0.2132, 0.1868]]))


def v_structure() -> NetworkSpec:
    """A -> C <- B with independent uniform roots."""
    return NetworkSpec(
        (VariableDecl("A", 2), VariableDecl("B", 2), VariableDecl("C", 2)),
        {"C": ("A", "B")},
        {
            "A": Cpt("A", (), np.array([0.5, 0.5])),
            "B": Cpt("B", (), np.array([0.4, 0.6])),
            "C": Cpt("C", ("A", "B"), np.array([
                [[0.9, 0.1], [0.6, 0.4]],
                [[0.3, 0.7], [0.2, 0.8]],
            ])),
        },
    )


def children_first() -> NetworkSpec:
    """A random 6-variable DAG declared children first, cardinalities 2 to 4.

    Variables are declared in reverse topological order and every CPT
    lists its parents in topological order, so each non-root family's last
    axis in the joint belongs to a parent, not to the child, and a CPT's
    parent axes decrease.  Generated networks declare parents first, so
    they exercise neither case.
    """
    rng = np.random.default_rng(0)
    topo = [f"V{i}" for i in range(6)]
    cards = {name: 2 + i % 3 for i, name in enumerate(topo)}
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, Cpt] = {}
    for i, name in enumerate(topo):
        k = int(rng.integers(1 if i else 0, min(i, 3) + 1))
        ps = tuple(topo[j] for j in sorted(rng.permutation(i)[:k]))
        parents[name] = ps
        shape = tuple(cards[p] for p in ps) + (cards[name],)
        rows = rng.dirichlet(np.full(cards[name], 2.0),
                             size=int(np.prod(shape[:-1])))
        cpts[name] = Cpt(name, ps, rows.reshape(shape))
    decls = tuple(VariableDecl(name, cards[name]) for name in reversed(topo))
    return NetworkSpec(decls, parents, cpts)


def parents_first(seed: int, cards) -> NetworkSpec:
    """A random DAG declared parents first, variable ``i`` with
    ``cards[i]`` states and up to three parents among the earlier ones."""
    rng = np.random.default_rng(seed)
    names = [f"V{i:02d}" for i in range(len(cards))]
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, Cpt] = {}
    for i, name in enumerate(names):
        k = int(rng.integers(0, min(i, 3) + 1))
        ps = tuple(names[j] for j in sorted(rng.permutation(i)[:k]))
        parents[name] = ps
        shape = tuple(cards[names.index(p)] for p in ps) + (cards[i],)
        rows = rng.dirichlet(np.full(cards[i], 2.0),
                             size=int(np.prod(shape[:-1])))
        cpts[name] = Cpt(name, ps, rows.reshape(shape))
    decls = tuple(VariableDecl(name, c) for name, c in zip(names, cards))
    return NetworkSpec(decls, parents, cpts)


def chain_children_first(n: int) -> NetworkSpec:
    """A binary chain ``C0 -> C1 -> ... -> C(n-1)`` declared last child
    first, so every family's last axis is its parent's."""
    rng = np.random.default_rng(n)
    names = [f"C{i:02d}" for i in range(n)]
    parents = {name: (names[i - 1],) if i else ()
               for i, name in enumerate(names)}
    cpts = {name: Cpt(name, parents[name],
                      rng.dirichlet([2.0, 2.0], size=2 if i else 1).reshape(
                          (2, 2) if i else (2,)))
            for i, name in enumerate(names)}
    decls = tuple(VariableDecl(name, 2) for name in reversed(names))
    return NetworkSpec(decls, parents, cpts)


def wide(n: int = 64) -> NetworkSpec:
    """``n`` independent binary variables: a full-scope table has 2^n cells."""
    decls = tuple(VariableDecl(f"X{i:02d}", 2) for i in range(n))
    return NetworkSpec(decls, {}, {d.name: Cpt(d.name, (), np.array([0.5, 0.5]))
                                   for d in decls})


def many_state_net(n: int = 12, card: int = 64) -> NetworkSpec:
    """Independent ``card``-state variables: few variables, card**n cells."""
    decls = tuple(VariableDecl(f"V{i:02d}", card) for i in range(n))
    row = np.arange(1.0, card + 1.0)
    row = row / row.sum()
    return NetworkSpec(decls, {}, {d.name: Cpt(d.name, (), row)
                                   for d in decls})


def constraint_over(net: NetworkSpec, names, values) -> Constraint:
    return Constraint.over(net, names, np.asarray(values, dtype=float))


def contradictory_variant(constraints, scope, seed: int) -> list[Constraint]:
    """``constraints`` plus a copy of the one over ``scope`` whose target is
    multiplied cellwise by ``default_rng(seed).uniform(0.5, 1.5)`` and
    renormalized, so no network meets both."""
    r = next(r for r in constraints if r.scope == tuple(scope))
    probs = r.dist.probs * np.random.default_rng(seed).uniform(
        0.5, 1.5, r.dist.probs.shape)
    return list(constraints) + [
        Constraint(r.scope, JointTable(r.dist.scope, probs / probs.sum()))]


def every_cpt_instance(seed: int, n_nodes: int = 12, num_constraints: int = 4,
                       cardinality: int = 2
                       ) -> tuple[NetworkSpec, list[Constraint]]:
    """``generate_instance(seed, n_nodes, num_constraints, cardinality)``
    with its targets re-read, over the same scopes, off a twin perturbed in
    every CPT (drawn from ``default_rng(seed + 1000)``).

    The generator perturbs only the CPTs the constraints name, so d-ipfp
    can always meet its sets; this twin moves the other CPTs too, so the
    set is still met by a network on the same DAG, but maybe not by one
    that differs from the input only in the named CPTs.
    """
    net, constraints = generate.generate_instance(
        seed, n_nodes=n_nodes, num_constraints=num_constraints,
        cardinality=cardinality)
    twin = generate.perturb_network(np.random.default_rng(seed + 1000), net,
                                    generate.PERTURBATION)
    return net, [Constraint.over(net, r.scope, marginal(twin, r.scope))
                 for r in constraints]


def as_plain(net: NetworkSpec):
    """Network content as plain Python data for the enumeration oracle."""
    names = net.names
    cards = tuple(v.cardinality for v in net.variables)
    parents = {n: tuple(net.parents[n]) for n in names}
    tables = {n: net.cpts[n].table.tolist() for n in names}
    return names, cards, parents, tables


# Values derived with the enumeration oracle / by hand and frozen; the
# solver tests assert against these exact constants.  The divergences are
# for runs against diamond_r3 at the default stop policy (epsilon 1e-9);
# the fitting and extraction arithmetic is deterministic, so they hold to
# well under 1e-12.  e-ipfp's value is the plain map's own limit, taken
# with plain maps alone at epsilon 1e-14; the extrapolated run lands within
# 1e-13 of it.  d-ipfp's value is where its extrapolated run lands; the
# plain map's own limit, taken with plain maps alone at epsilon 1e-13, is
# 0.26446377997522613, 2.4e-8 relative away.
CHAIN_JOINT_FLAT = (0.40, 0.10, 0.10, 0.40)
CHAIN_LOCAL_ROWS = ((12 / 19, 7 / 19), (3 / 31, 28 / 31))
DIAMOND_IPFP_DIVERGENCE = 0.046700762531755584
DIAMOND_IPFP_STRUCTURAL_GAP = 0.018570648328204636
DIAMOND_E_DIVERGENCE = 0.13483920780265413
DIAMOND_D_DIVERGENCE = 0.26446377374918384
