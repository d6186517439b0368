"""Seeded random instances for benchmarks and end-to-end runs.

Constraint sets are guaranteed jointly satisfiable by construction: the
generator perturbs the network into a hidden twin on the same DAG and
hands out the twin's exact marginals as targets.  The twin is then a
distribution that meets every constraint and factors over the structure,
so a structure-preserving solver always has somewhere to go.  Only the
CPTs of constrained variables are perturbed: the decomposed solver may
edit nothing else, so a wider perturbation could place the solution
outside its reach and leave residuals floored above epsilon.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    Constraint,
    Cpt,
    NetworkSpec,
    NonLocal,
    VariableDecl,
    classify_constraint,
    classify_scope,
)
from .elimination import marginal

MAX_SCOPE = 3  # most variables in a local scope, a target and its parents
SUBNET_SPAN = 8  # most variables a generated pair's subnet may span
PERTURBATION = 0.1  # jitter scale of the twin that supplies the targets


def random_network(rng: np.random.Generator, n_nodes: int = 15,
                   cardinality: int = 2, max_in_degree: int = 3) -> NetworkSpec:
    """A sparse random DAG with Dirichlet CPT rows.

    Node ``i`` draws up to ``max_in_degree`` parents among earlier nodes,
    so declaration order is already topological.  Names run ``X1``,
    ``X2``, ... zero-padded to one width.  Rows use a Dirichlet with
    concentration 2, which keeps entries comfortably away from zero.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    width = len(str(n_nodes))
    names = [f"X{i + 1:0{width}d}" for i in range(n_nodes)]
    decls = tuple(VariableDecl(n, cardinality) for n in names)
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, Cpt] = {}
    for i, name in enumerate(names):
        k = int(rng.integers(0, min(i, max_in_degree) + 1))
        chosen = sorted(rng.choice(i, size=k, replace=False).tolist()) if k else []
        ps = tuple(names[j] for j in chosen)
        parents[name] = ps
        rows = int(np.prod([cardinality] * len(ps))) if ps else 1
        table = rng.dirichlet(np.full(cardinality, 2.0), size=rows)
        shape = (cardinality,) * len(ps) + (cardinality,)
        cpts[name] = Cpt(name, ps, table.reshape(shape))
    return NetworkSpec(decls, parents, cpts)


def perturb_network(rng: np.random.Generator, net: NetworkSpec,
                    scale: float = 0.25,
                    only: Sequence[str] | None = None) -> NetworkSpec:
    """A twin of ``net`` with CPT rows jittered multiplicatively.

    Each entry is scaled by ``exp(scale * normal)`` and the row is
    renormalized, so support is preserved and moderate scales give
    moderately displaced distributions.  ``only`` limits the jitter to the
    named variables; the rest keep their tables bit for bit.
    """
    chosen = set(net.names) if only is None else set(only)
    cpts: dict[str, Cpt] = {}
    for name, cpt in net.cpts.items():
        if name not in chosen:
            cpts[name] = cpt
            continue
        noise = np.exp(scale * rng.standard_normal(cpt.table.shape))
        jittered = cpt.table * noise
        rows = jittered.sum(axis=-1, keepdims=True)
        cpts[name] = Cpt(name, cpt.parent_order, jittered / rows)
    return NetworkSpec(net.variables, net.parents, cpts)


def random_constraints(rng: np.random.Generator, net: NetworkSpec,
                       count: int = 8) -> list[Constraint]:
    """A satisfiable mix of local and non-local constraints for ``net``.

    Targets are exact marginals of a twin perturbed only in the CPTs a
    solver may edit (see module docstring).  Local scopes are a variable
    with all of its parents; non-local scopes pair a grandparent with a
    grandchild it has no edge to, accepted only when their subnet spans
    at most ``SUBNET_SPAN`` variables.

    A solver satisfies a constraint by moving the constrained variables'
    CPTs, and whatever values it settles on pin the marginals everything
    downstream sees.  A full-parent local scope is safe to put anywhere:
    only one table satisfies it, the twin's, so whatever else happens the
    constrained rows end up at their target values and anything below
    still fits.  A pair's two tables are underdetermined and can settle
    away from the twin, so pair variables stay terminal: no other scope
    may sit on or below them, or its residual can floor above any tight
    epsilon.  A pair must also lie clear of every earlier scope and its
    ancestors, so by construction it never shares a variable with an
    earlier scope.  Editable variables never repeat across constraints,
    and local picks prefer targets no earlier scope touched.
    """
    names = net.names
    # Each variable with all of its ancestors: the variables a scope's
    # marginal depends on are the closure of its lowest member.
    closure: dict[str, set[str]] = {}
    for v in net.topo_order:
        closure[v] = {v}.union(*(closure[p] for p in net.parents[v]))

    # Candidates are (scope, its closure, pinned), listed once.  Local
    # scopes are a target, first, with all of its parents.
    locals_ = [((t,) + net.parents[t], closure[t], True)
               for t in names if len(net.parents[t]) < MAX_SCOPE]
    # Non-local scopes are grandparent pairs: an ancestor two hops above
    # a variable, with no direct edge between the two.  The pair is
    # genuinely correlated through the connecting paths, yet close enough
    # that the correlation survives the hops; a scope over a distant pair
    # asks for dependence the intervening CPTs barely transmit, and both
    # solvers then creep toward it at rates worse with every extra hop.
    pairs = []
    for v in names:
        near = ({g for p in net.parents[v] for g in net.parents[p]}
                - set(net.parents[v]))
        for u in sorted(near, key=net.axis):
            scope = tuple(sorted((u, v), key=net.axis))
            # Always non-local: ``u`` is no parent of ``v``, and ``v``
            # cannot be a parent of its own ancestor.
            cls = classify_scope(net, scope)
            if len(cls.y) + len(cls.s) <= SUBNET_SPAN:
                pairs.append((scope, closure[v], False))

    chosen: list[tuple[str, ...]] = []
    touched: set[str] = set()
    editables: set[str] = set()
    # Pair tables settle away from the twin, so their variables poison
    # everything they can influence; pinned full-local tables do not.
    loose: set[str] = set()
    upstream: set[str] = set()

    def draw(pool):
        return pool[int(rng.integers(0, len(pool)))] if pool else None

    def pick_local():
        ok = [c for c in locals_ if c[0][0] not in editables
              and loose.isdisjoint(c[1])]
        return draw([c for c in ok if c[0][0] not in touched] or ok)

    def pick_pair():
        # Clear of ``upstream``, a pair is clear of every earlier scope,
        # so of every editable too.
        return draw([c for c in pairs if upstream.isdisjoint(c[0])
                    and loose.isdisjoint(c[1])])

    for k in range(count):
        # Admissible grandparent pairs are the scarce kind: each accepted
        # scope of any kind poisons part of the DAG for them, so the pair
        # slots come first and locals fill whatever room is left.
        first, second = ((pick_pair, pick_local) if 2 * k < count
                         else (pick_local, pick_pair))
        pick = first() or second()
        if pick is None:
            break
        scope, closed, pinned = pick
        touched.update(scope)
        if pinned:
            editables.add(scope[0])
        else:
            editables.update(scope)
            loose.update(scope)
        upstream.update(closed)
        chosen.append(scope)

    twin = perturb_network(rng, net, PERTURBATION,
                           only=sorted(editables, key=net.axis))

    out = []
    for scope in chosen:
        dist = marginal(twin, scope)
        out.append(Constraint.over(net, scope, dist))
    return out


def generate_instance(seed: int, n_nodes: int = 15, num_constraints: int = 8,
                      cardinality: int = 2,
                      ) -> tuple[NetworkSpec, list[Constraint]]:
    """Deterministic network plus constraint set for ``seed``.

    Not every DAG has room for ``num_constraints`` decoupled scopes, let
    alone a mixed set, so the generator redraws the network until the
    requested number fits with at least one non-local scope per four
    constraints, up to a fixed number of attempts, and falls back to the
    best attempt seen.  The rng is a single stream, so the result is
    still a pure function of the arguments.
    """
    rng = np.random.default_rng(seed)
    want_nl = num_constraints // 4
    best: tuple[NetworkSpec, list[Constraint]] | None = None
    best_key = (-1, -1)
    for _ in range(50):
        net = random_network(rng, n_nodes, cardinality)
        constraints = random_constraints(rng, net, num_constraints)
        nl = sum(
            1 for c in constraints
            if isinstance(classify_constraint(net, c), NonLocal)
        )
        key = (len(constraints), min(nl, want_nl))
        if key > best_key:
            best, best_key = (net, constraints), key
        if key == (num_constraints, want_nl):
            break
    return best
