"""Exact marginals on a factored network via variable elimination.

The full joint is never materialized: factors are multiplied together only
as variables are summed out, so the work is bounded by the largest
intermediate factor rather than by the table over all variables.

A contraction is split into a plan and its execution.  The plan
(``plan_contraction``) depends only on the factors' scopes, the kept
variables, the declaration ranks and the cardinalities, so a caller whose
structure stays fixed builds it once and executes it on every call with
new tables.  The order is greedy: eliminate next the hidden variable whose
intermediate (the union of the factors holding it, less itself) has the
fewest cells, ties going to the lower declaration rank.  On the sparse
graphs this package targets, that keeps the intermediates small.  The rule
is scored incrementally, as in bucket elimination (Dechter 1999, "Bucket
elimination: a unifying framework for reasoning", Artif. Intell. 113):
each variable keeps the set of live factors that hold it, and eliminating
``v`` re-scores only ``v``'s neighbours, the variables whose factor sets it
changed.  Each step stores its factor group, in the order the factors were
made, the views that place each pairwise product's two operands in their
rank-sorted union layout, and the axis summed out.  A view is a
``core._placement``, a transpose order and a shape with length-one axes,
by the same rule the dense products place their factors with; ``contract``
applies it with ``core._apply``.

Execution (``contract``) only applies those views, multiplies and sums, in
the plan's order; it looks at no variable names.  A plan executed on given
tables performs the same floating-point operations as an elimination that
chose its order on the fly by the same rule, so results do not depend on
when the plan was made.

The solvers build their plans with the objects that live for one run: each
constraint's ``decomposed._SubnetPlan`` holds the one plan d-ipfp makes for
it, and ``run_d_ipfp`` reads its residuals and its report's divergence off
those plans too.  ``marginal`` and ``network_divergence`` build a plan and
run it once.  Nothing is cached at module level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Mapping, Sequence

import numpy as np

from .core import NetworkSpec, ScopeError, _apply, _kl, _placement, _Placement


def _view(scope: tuple[str, ...], layout: tuple[str, ...],
          cards: Mapping[str, int]) -> _Placement:
    """The ``core._placement`` of a table over ``scope`` on the axes of
    ``layout``, so it broadcasts against any table laid out over
    ``layout``."""
    return _placement([layout.index(v) for v in scope],
                      [cards[v] for v in scope], len(layout))


@dataclass(frozen=True, eq=False)
class _Step:
    """Eliminate ``var``: multiply the factors in ``group`` left to right,
    the ``k``-th product placing its two operands by ``views[k]``, then sum
    out ``axis``.  The result takes the next factor slot."""

    var: str
    group: tuple[int, ...]
    views: tuple[tuple[_Placement, _Placement], ...]
    axis: int


@dataclass(frozen=True, eq=False)
class Contraction:
    """A compiled elimination: which factors to multiply and sum, in order.

    Factor slots ``0 .. n_inputs - 1`` are the input tables, in the order
    given to ``plan_contraction``; each step appends one more.  ``final``
    lists the factors left at the end, in slot order, each with its view
    onto the ``keep`` axes, or ``None`` for a scalar factor.
    """

    keep: tuple[str, ...]
    shape: tuple[int, ...]
    n_inputs: int
    steps: tuple[_Step, ...]
    final: tuple[tuple[int, _Placement | None], ...]

    @property
    def order(self) -> tuple[str, ...]:
        """The hidden variables in the order they are summed out."""
        return tuple(step.var for step in self.steps)

    @property
    def largest(self) -> int:
        """Cells of the largest product a step forms, read off the views
        that place its last two operands on their union (1 if no step
        multiplies)."""
        return max((math.prod(map(max, a[1], b[1]))
                    for step in self.steps for a, b in step.views[-1:]),
                   default=1)


def plan_contraction(scopes: Sequence[Sequence[str]], keep: Sequence[str],
                     rank: Mapping[str, int],
                     cards: Mapping[str, int]) -> Contraction:
    """Compile the contraction of factors over ``scopes`` onto ``keep``.

    Every variable that some scope mentions and ``keep`` does not is summed
    out, greedily: next comes the one whose intermediate factor, over the
    union of the live factors that hold it less itself, has the fewest
    cells, ties going to the lower ``rank``.  Each hidden variable's score
    is kept, and only the eliminated variable's neighbours are re-scored
    after a step, so each step picks the same variable as rescanning every
    hidden variable against every factor would.
    """
    keep = tuple(keep)
    scopes = [tuple(s) for s in scopes]
    live = dict(enumerate(scopes))
    holders: dict[str, set[int]] = {}
    for i, scope in live.items():
        for v in scope:
            holders.setdefault(v, set()).add(i)
    kept = set(keep)

    def score(v: str) -> tuple[int, int]:
        union: set[str] = set()
        for f in holders[v]:
            union.update(live[f])
        union.discard(v)
        size = 1
        for u in union:
            size *= cards[u]
        return size, rank[v]

    scores = {v: score(v) for v in holders if v not in kept}
    steps: list[_Step] = []
    while scores:
        v = min(scores, key=scores.__getitem__)
        del scores[v]
        group = tuple(sorted(holders.pop(v)))
        views = []
        prod = live.pop(group[0])
        for f in group[1:]:
            scope = live.pop(f)
            union = tuple(sorted(set(prod).union(scope), key=rank.__getitem__))
            views.append((_view(prod, union, cards), _view(scope, union, cards)))
            prod = union
        axis = prod.index(v)
        steps.append(_Step(v, group, tuple(views), axis))
        slot = len(scopes) + len(steps) - 1
        live[slot] = prod[:axis] + prod[axis + 1:]
        for u in live[slot]:
            holders[u].difference_update(group)
            holders[u].add(slot)
            if u in scores:
                scores[u] = score(u)

    return Contraction(
        keep=keep,
        shape=tuple(cards[v] for v in keep),
        n_inputs=len(scopes),
        steps=tuple(steps),
        final=tuple((f, _view(scope, keep, cards) if scope else None)
                    for f, scope in sorted(live.items())),
    )


def contract(plan: Contraction, tables: Sequence[np.ndarray],
             reduce: np.ufunc = np.add) -> np.ndarray:
    """Execute ``plan`` on ``tables``: sum its hidden variables out of their
    product, or reduce them by ``reduce`` instead.

    ``tables[i]`` is the factor over the plan's ``i``-th scope.  Returns the
    table with axes in ``plan.keep`` order; kept variables that appear in
    no factor broadcast as constant axes.  The result is not normalized; it
    is whatever the factor product sums to.  Nothing is chosen here: the
    call applies the plan's views, multiplies and reduces, in the plan's
    order.  ``np.add.reduce`` is what ``ndarray.sum`` runs, so the default
    gives the sum's bits; ``np.maximum`` gives the max-product, each hidden
    variable maximized out, which is exact for non-negative factors.
    """
    slots = list(tables)
    if len(slots) != plan.n_inputs:
        raise ScopeError(
            f"contraction plan takes {plan.n_inputs} tables, got {len(slots)}")
    for step in plan.steps:
        prod = slots[step.group[0]]
        for f, (a, b) in zip(step.group[1:], step.views):
            prod = _apply(prod, a) * _apply(slots[f], b)
        slots.append(reduce.reduce(prod, axis=step.axis))
    out = np.ones(plan.shape)
    scale = 1.0
    for f, view in plan.final:
        if view is None:
            scale *= float(slots[f])
        else:
            out = out * _apply(slots[f], view)
    return out * scale


def _ancestral(parents: Mapping[str, tuple[str, ...]], targets: Sequence[str],
               have: Container[str]) -> set[str]:
    """Children in ``have`` whose CPTs can influence a marginal over ``targets``.

    A conditional table sums to one over its own variable, so the CPT of a
    variable with no path down to the targets contributes a factor of one
    and can be skipped.  ``have`` restricts the walk to variables whose
    CPTs are actually in the factor set; parents reached through a missing
    CPT are not pulled in.
    """
    needed: set[str] = set()
    seen = set(targets)
    stack = list(targets)
    while stack:
        v = stack.pop()
        if v in have:
            needed.add(v)
            for p in parents[v]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
    return needed


def plan_cpt_contraction(net: NetworkSpec, keep: Sequence[str],
                         have: Container[str] | None = None
                         ) -> tuple[tuple[str, ...], Contraction]:
    """The CPTs a contraction onto ``keep`` needs, and its plan.

    The CPTs are those of ``_ancestral(net.parents, keep, have)`` (``have``
    defaults to every variable), in declaration order; the plan takes their
    tables in that order, each over its parents then its child.
    """
    needed = _ancestral(net.parents, keep, net.rank if have is None else have)
    names = tuple(sorted(needed, key=net.rank.__getitem__))
    return names, plan_contraction(
        [net.parents[n] + (n,) for n in names], keep, net.rank, net.cards)


def marginal(net: NetworkSpec, targets: Sequence[str]) -> np.ndarray:
    """Marginal distribution of ``net`` over ``targets``, axes in target
    order.

    Only CPTs of the targets' ancestors enter the contraction; the rest sum
    out to one.  The elimination order is planned here and the plan
    executed once; a caller that repeats a query on changing tables keeps
    the plan of ``plan_cpt_contraction`` instead, as d-ipfp does.
    """
    targets = tuple(targets)
    for t in targets:
        if t not in net.names:
            raise ScopeError(f"variable {t!r} is not declared in this network")
    if len(set(targets)) != len(targets):
        raise ScopeError(f"marginal targets repeat a variable: {targets}")
    names, plan = plan_cpt_contraction(net, targets)
    return contract(plan, [net.cpts[n].table for n in names])


def network_divergence(p: NetworkSpec, q: NetworkSpec) -> float:
    """I-divergence (natural log) of ``p``'s joint from ``q``'s, factored.

    Both networks must declare the same variables and parents.  By the
    chain rule the divergence is the sum over families of
    ``P(pa) * KL(P(.|pa) || Q(.|pa))``, so only families whose CPT differs
    contribute, each needing one marginal of ``p`` over its parents, planned
    and executed once.  Cells where ``P(pa) * p(v|pa)`` is zero contribute
    nothing, even when ``q``'s entry is zero there; the result is infinite
    only where ``p`` has mass that ``q`` lacks, exactly as for the dense
    joints.  Each family's term is ``core._kl(mass, a, b)``, the kernel
    of ``i_divergence``, with ``a`` and ``b`` the family's CPTs in ``p``
    and ``q`` and ``mass`` its ``P(pa) * a``; d-ipfp's report sums the same
    terms, with each mass read off a constraint's subnet.
    """
    if p.variables != q.variables or p.parents != q.parents:
        raise ScopeError(
            "factored divergence needs identical declarations and parents"
        )
    total = 0.0
    for name in p.names:
        a = p.cpts[name].table
        b = q.cpts[name].table
        if a is b or np.array_equal(a, b):
            continue
        parents = p.parents[name]
        total += _kl(marginal(p, parents)[..., None] * a if parents else a,
                     a, b)
    return total
