"""Exact marginals on a factored network via variable elimination.

The full joint is never materialized: factors are multiplied together only
as variables are summed out, so the work is bounded by the largest
intermediate factor rather than by the table over all variables.  On the
sparse graphs this package targets, a greedy smallest-intermediate ordering
keeps those factors small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import Cpt, NetworkSpec, ScopeError, _placed


@dataclass(frozen=True, eq=False)
class Factor:
    """A nonnegative table over an ordered tuple of variables."""

    vars: tuple[str, ...]
    table: np.ndarray = field(repr=False)


def cpt_factor(cpt: Cpt) -> Factor:
    return Factor(cpt.parent_order + (cpt.child,), cpt.table)


def _ancestral(parents: Mapping[str, tuple[str, ...]], targets: Sequence[str],
               have: set[str]) -> set[str]:
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


def _multiply(a: Factor, b: Factor, rank: Mapping[str, int]) -> Factor:
    union = tuple(sorted(set(a.vars) | set(b.vars), key=rank.__getitem__))
    pos = {v: i for i, v in enumerate(union)}
    ta = _placed(a.table, [pos[v] for v in a.vars], len(union))
    tb = _placed(b.table, [pos[v] for v in b.vars], len(union))
    return Factor(union, ta * tb)


def _sum_out(f: Factor, name: str) -> Factor:
    ax = f.vars.index(name)
    return Factor(f.vars[:ax] + f.vars[ax + 1:], f.table.sum(axis=ax))


def contract(factors: Sequence[Factor], keep: Sequence[str],
             rank: Mapping[str, int],
             cards: Mapping[str, int]) -> np.ndarray:
    """Sum all variables not in ``keep`` out of the factor product.

    Returns the resulting table with axes in ``keep`` order.  Variables of
    ``keep`` that appear in no factor broadcast as constant axes.  The
    result is not normalized; it is whatever the factor product sums to.
    """
    keep = tuple(keep)
    work = list(factors)
    mentioned: set[str] = set()
    for f in work:
        mentioned.update(f.vars)
    hidden = sorted(mentioned - set(keep), key=rank.__getitem__)

    while hidden:
        best = None
        for v in hidden:
            group_vars: set[str] = set()
            for f in work:
                if v in f.vars:
                    group_vars.update(f.vars)
            size = 1
            for g in group_vars - {v}:
                size *= cards[g]
            key = (size, rank[v])
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        group = [f for f in work if v in f.vars]
        work = [f for f in work if v not in f.vars]
        prod = group[0]
        for f in group[1:]:
            prod = _multiply(prod, f, rank)
        work.append(_sum_out(prod, v))
        hidden.remove(v)

    shape = tuple(cards[v] for v in keep)
    pos = {v: i for i, v in enumerate(keep)}
    out = np.ones(shape)
    scale = 1.0
    for f in work:
        if f.vars:
            out = out * _placed(f.table, [pos[v] for v in f.vars], len(keep))
        else:
            scale *= float(f.table)
    return out * scale


def marginal(net: NetworkSpec, targets: Sequence[str],
             cpts: Mapping[str, Cpt] | None = None) -> np.ndarray:
    """Marginal distribution over ``targets``, axes in target order.

    ``cpts`` overrides the network's tables (same children and parent
    orders), which lets a solver query marginals of its working state
    without rebuilding the network object.  Only CPTs of the targets'
    ancestors enter the contraction; the rest sum out to one.
    """
    targets = tuple(targets)
    for t in targets:
        if t not in net.names:
            raise ScopeError(f"variable {t!r} is not declared in this network")
    if len(set(targets)) != len(targets):
        raise ScopeError(f"marginal targets repeat a variable: {targets}")
    table = cpts if cpts is not None else net.cpts
    needed = _ancestral(net.parents, targets, set(net.names))
    factors = [cpt_factor(table[name]) for name in net.names if name in needed]
    return contract(factors, targets, net.rank, net.cards)


def network_divergence(p: NetworkSpec, q: NetworkSpec) -> float:
    """I-divergence (natural log) of ``p``'s joint from ``q``'s, factored.

    Both networks must declare the same variables and parents.  By the
    chain rule the divergence is the sum over families of
    ``P(pa) * KL(P(.|pa) || Q(.|pa))``, so only families whose CPT differs
    contribute, each needing one marginal of ``p`` over its parents.  Cells
    where ``P(pa) * p(v|pa)`` is zero contribute nothing, even when ``q``'s
    entry is zero there; the result is infinite only where ``p`` has mass
    that ``q`` lacks, exactly as for the dense joints.
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
        mass = marginal(p, parents)[..., None] * a if parents else a
        mask = mass > 0.0
        if np.any(b[mask] == 0.0):
            return float("inf")
        total += float((mass[mask] * np.log(a[mask] / b[mask])).sum())
    return total
