"""Structure-preserving fitting without the full joint table.

A constraint only ever forces changes in the CPTs of the variables it
mentions.  A local constraint (one variable plus some of its parents) is
absorbed by rescaling single rows of that variable's CPT.  A non-local
constraint over a set ``Y`` is handled inside a local subnet: the
conditional table of ``Y`` given the outside parents ``S``, iterated
against the constraint and re-factored until it settles.  Either way the
work is bounded by subnet size, not by the number of network variables,
and the result factors over the original DAG by construction.

The marginal a constraint is matched against is always the network's true
marginal ``Q(y)``, obtained by variable elimination; inside a subnet it is
computed from the factored form ``cond(y | s) * w(y, s)``, where ``w`` is
the contraction of every CPT outside ``Y`` onto ``S`` and ``Y``.  ``w``
does not change while only ``Y``'s tables are updated.  The DAG and every
scope stay fixed for a run, so each of these contractions (a non-local
constraint's ``w``, a local constraint's parent marginal, each residual
marginal) is planned once per run (``elimination.plan_contraction``), and
a visit only executes its plan.

Subnets are small (a few dozen cells) but their inner loops run for
thousands of iterations, so per-call overhead, not arithmetic, sets the
cost.  Each non-local constraint is therefore compiled once per run into
an index plan (``_SubnetPlan``): flat arrays that map every cell of the
C-order enumeration of ``(S, Y)`` to its ``y`` and ``s`` configuration and
to its entry in the member-CPT vector (``core._Layout``, as in e-ipfp).
An inner iteration is then a fixed handful of gathers and ``bincount``
sums on 1-D arrays, whatever the number of members or their parent order.

The working state is plain CPT arrays, computed from validated tables, so
no visit validates; a ``Cpt`` is built once per run for each changed
family, when ``run_d_ipfp`` assembles its result.

That plain inner map converges linearly, at rates that can lie within 1e-4
of one, so once its step falls below ``SQUAREM_GATE`` the loop accelerates
it with gated SQUAREM (Varadhan & Roland 2008, "Simple and globally
convergent methods for accelerating the convergence of any EM algorithm",
Scand. J. Stat. 35, scheme S3) on the vector of member CPT entries.
The extrapolation arithmetic is ``core._squarem``, shared with e-ipfp: the
step length is clamped to at most ``core.SQUAREM_MAX_ALPHA``, the
candidate is renormalized per parent row, and a candidate with a negative
entry or no mass on a cell the constraint needs is replaced by two plain
maps.  The map's fixed points form a continuum, so where a visit lands
depends on its path.  Long steps taken far from that set can land far
from where plain maps would; the gate keeps extrapolation to the final
approach, where it reaches a limit the plain map only crawls toward, so
the result barely depends on the inner tolerance.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    TAU_NORM,
    BnError,
    Constraint,
    Cpt,
    Local,
    NetworkSpec,
    NonLocal,
    ScopeError,
    ValidationError,
    _Layout,
    _conditional,
    _cpt_product,
    _dominance_error,
    _outside_parents,
    _placed,
    _project,
    _ratio,
    _squarem,
    classify_constraint,
    classify_scope,
)
# Unused here; perfbench/tracer.py wraps these names in this module.
from .core import _reextracted_product, i_divergence, joint_from_network
from .dense import (OSCILLATION_WINDOW, RunReport, StopPolicy, Termination,
                    _prepared)
from .elimination import (Contraction, contract, network_divergence,
                          plan_cpt_contraction)

logger = logging.getLogger("bnrefit")

SUBNET_BUDGET = 20
"""Largest variable count (constrained set plus outside parents) a single
constraint may span; beyond it the run aborts instead of degrading."""

INNER_MAX_ITERATIONS = 1000
"""Plain maps one non-local visit may make before it hands the constraint
back to the outer cycle, which revisits it."""


class SubnetSizeError(BnError):
    """A constraint's subnet spans more variables than the budget allows."""


@dataclass(frozen=True, eq=False)
class LocalSubnet:
    """Conditional table of a variable set ``y`` given outside parents ``s``.

    ``cond_table`` has one axis per ``s`` variable followed by one per ``y``
    variable; for every ``s`` configuration the ``y`` block sums to one.
    """

    y: tuple[str, ...]
    s: tuple[str, ...]
    cond_table: np.ndarray = field(repr=False)

    def __post_init__(self):
        y = tuple(self.y)
        s = tuple(self.s)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        if not y:
            raise ValidationError("subnet needs a non-empty variable set")
        if set(y) & set(s):
            raise ValidationError(f"subnet sets overlap: y={y}, s={s}")
        table = np.array(self.cond_table, dtype=float)
        if table.ndim != len(s) + len(y):
            raise ValidationError(
                f"subnet table has {table.ndim} axes, expected "
                f"{len(s) + len(y)} for s={s}, y={y}"
            )
        if not np.all(table >= 0.0):
            raise ValidationError("subnet table has a negative or NaN entry")
        y_axes = tuple(range(len(s), len(s) + len(y)))
        sums = table.sum(axis=y_axes)
        if not np.all(np.abs(sums - 1.0) <= TAU_NORM):
            raise ValidationError(
                "subnet table rows must sum to 1 for every outside configuration"
            )
        table.setflags(write=False)
        object.__setattr__(self, "cond_table", table)


def _aligned_target(r: Constraint, order: tuple[str, ...]) -> np.ndarray:
    """``r``'s table transposed from its scope order to ``order``."""
    if sorted(r.scope) != sorted(order):
        raise ScopeError(
            f"constraint scope {r.scope} does not cover the variables {order}"
        )
    return np.transpose(r.dist.probs, [r.scope.index(v) for v in order])


def _scaled_rows(table: np.ndarray, ratio_placed: np.ndarray,
                 row_axes: tuple[int, ...], fallback: np.ndarray) -> np.ndarray:
    """Scale ``table`` cellwise, then renormalize over ``row_axes``.

    Rows left with zero mass carry no information; they keep ``fallback``.
    """
    scaled = table * ratio_placed
    alpha = scaled.sum(axis=row_axes, keepdims=True)
    safe = np.where(alpha > 0.0, alpha, 1.0)
    return np.where(alpha > 0.0, scaled / safe, fallback)


def build_local_subnet(net: NetworkSpec, y_vars: Sequence[str],
                       cpts: Mapping[str, Cpt] | None = None) -> LocalSubnet:
    """Conditional table of ``y_vars`` given their outside parents.

    ``y`` and ``s`` come out in network declaration order.  The table is
    the product of the member CPTs, so for every outside configuration it
    is exactly the distribution of ``y`` the network prescribes given
    ``s``.  ``cpts`` overrides the network's tables.
    """
    members = set(y_vars)
    if not members:
        raise ValidationError("subnet needs a non-empty variable set")
    for v in members:
        if v not in net.names:
            raise ScopeError(f"variable {v!r} is not declared in this network")
    y = tuple(sorted(members, key=net.axis))
    s = _outside_parents(net, y)
    table = cpts if cpts is not None else net.cpts
    return LocalSubnet(y, s, _cpt_product([net.decl(v) for v in s + y],
                                          {v: table[v].table for v in y},
                                          net.parents))


def local_update(cpt: Cpt, r: Constraint, net: NetworkSpec,
                 cpts: Mapping[str, Cpt] | None = None) -> Cpt:
    """Absorb a local constraint by rescaling rows of one CPT.

    ``r`` must classify as local with ``cpt.child`` as its target.  Each
    row of the result is the old row times the per-cell ratio of target to
    current marginal, renormalized, so the network's joint absorbs exactly
    the proportional-fitting step for ``r`` while only this table changes.
    The current marginal over the parents comes from variable elimination
    against ``net`` (or ``cpts`` when given).
    """
    cls = classify_constraint(net, r)
    if not isinstance(cls, Local) or cls.target != cpt.child:
        raise ScopeError(
            f"constraint over {r.scope} is not local to variable {cpt.child!r}"
        )
    parents = net.parents[cpt.child]
    if cpt.parent_order != parents:
        raise ValidationError(
            f"CPT parent order {cpt.parent_order} differs from the network's "
            f"{parents}"
        )
    working = {name: c.table
               for name, c in (cpts if cpts is not None else net.cpts).items()}
    working[cpt.child] = cpt.table
    return Cpt(cpt.child, parents,
               _local_visit(_LocalPlan.build(net, r, cls), working))


@dataclass
class _LocalPlan:
    """One local constraint, compiled once per run: ``qpi`` contracts the
    CPTs of ``ancestral`` onto the target's parents."""

    target: str
    parents: tuple[str, ...]
    ancestral: tuple[str, ...]
    qpi: Contraction
    y_order: tuple[str, ...]
    y_axes: tuple[int, ...]
    target_table: np.ndarray

    @staticmethod
    def build(net: NetworkSpec, r: Constraint, cls: Local) -> "_LocalPlan":
        parents = net.parents[cls.target]
        ancestral, qpi = plan_cpt_contraction(net, parents)
        in_z = set(cls.constrained_parents)
        y_order = tuple(p for p in parents if p in in_z) + (cls.target,)
        y_axes = tuple(
            [parents.index(p) for p in y_order[:-1]] + [len(parents)]
        )
        return _LocalPlan(cls.target, parents, ancestral, qpi, y_order,
                          y_axes, _aligned_target(r, y_order))


def _local_visit(plan: _LocalPlan, work: Mapping[str, np.ndarray]
                 ) -> np.ndarray:
    table = work[plan.target]
    ndim = len(plan.parents) + 1
    if plan.parents:
        qpi = contract(plan.qpi, [work[name] for name in plan.ancestral])
        joint = qpi[..., None] * table
    else:
        joint = table
    drop = tuple(i for i in range(ndim) if i not in set(plan.y_axes))
    qy = joint.sum(axis=drop) if drop else joint
    ratio = _ratio(plan.target_table, qy, plan.y_order)
    return _scaled_rows(table, _placed(ratio, list(plan.y_axes), ndim),
                        (ndim - 1,), table)


def nonlocal_update(sub: LocalSubnet, r: Constraint,
                    q_s: np.ndarray | None) -> LocalSubnet:
    """One proportional step on a subnet's conditional table.

    ``q_s`` supplies the context weight the conditional is paired with to
    form the subnet's joint: either a distribution over ``sub.s`` alone or
    a full table over ``(*sub.s, *sub.y)`` (any positive scaling works, and
    ``None`` means uniform, which is exact when ``sub.s`` is empty).  The
    conditional is scaled cellwise by target over current marginal and
    renormalized per outside configuration, so for every ``s`` it stays a
    distribution while the subnet's marginal over ``y`` moves onto ``r``.
    """
    target = _aligned_target(r, sub.y)
    shape = sub.cond_table.shape
    ns, ny = len(sub.s), len(sub.y)
    s_axes = tuple(range(ns))
    y_axes = tuple(range(ns, ns + ny))
    if q_s is None:
        w = np.ones((1,) * len(shape))
    else:
        w = np.asarray(q_s, dtype=float)
        if w.shape == shape[:ns]:
            w = w.reshape(shape[:ns] + (1,) * ny)
        elif w.shape != shape:
            raise ScopeError(
                f"context weight shape {w.shape} matches neither the outside "
                f"variables {shape[:ns]} nor the full subnet {shape}"
            )
    joint = sub.cond_table * w
    qy = joint.sum(axis=s_axes) if s_axes else joint
    total = float(qy.sum())
    if total > 0.0:
        qy = qy / total
    ratio = _ratio(target, qy, sub.y)
    new = _scaled_rows(sub.cond_table,
                       _placed(ratio, list(y_axes), len(shape)),
                       y_axes, sub.cond_table)
    return LocalSubnet(sub.y, sub.s, new)


def _outside_plan(net: NetworkSpec, y: tuple[str, ...], s: tuple[str, ...]
                  ) -> tuple[tuple[str, ...], Contraction]:
    """The variables outside ``y`` whose CPTs can influence a weight over
    ``(*s, *y)``, in declaration order, and the plan contracting them
    onto ``(*s, *y)``."""
    return plan_cpt_contraction(net, s + y, set(net.names) - set(y))


def _outside_weight(plan: Contraction, outside: tuple[str, ...],
                    tables: Mapping[str, np.ndarray]) -> np.ndarray:
    """Contraction of the CPTs of ``outside`` onto ``(*s, *y)``.

    With ``outside`` and ``plan`` from ``_outside_plan``, pairing this
    weight with a conditional table for ``y`` gives the exact joint
    marginal over ``s`` and ``y``; it only involves tables of variables
    outside ``y``, so it is invariant while ``y``'s CPTs move.
    """
    return contract(plan, [tables[name] for name in outside])


def extract_subnet_cpts(sub: LocalSubnet, net: NetworkSpec,
                        cpts: Mapping[str, Cpt] | None = None) -> dict[str, Cpt]:
    """Read per-variable CPTs back off a subnet's conditional table.

    The subnet joint is formed as ``cond * w`` with the exact outside
    weight for ``net`` (see ``_outside_weight``), then each member's
    conditional given its own parents is extracted from it.  Building a
    subnet and extracting immediately returns the original CPTs wherever
    parent configurations have positive mass; zero-mass rows fill
    uniformly.
    """
    for v in sub.y:
        if v not in net.names:
            raise ScopeError(f"variable {v!r} is not declared in this network")
    outside = _outside_parents(net, sub.y)
    if set(sub.s) != set(outside):
        raise ScopeError(
            f"subnet outside set {sub.s} does not match the network's {outside}"
        )
    table = cpts if cpts is not None else net.cpts
    sy = sub.s + sub.y
    names, plan = _outside_plan(net, sub.y, sub.s)
    w = _outside_weight(plan, names, {name: table[name].table
                                      for name in names})
    joint = sub.cond_table * w
    out: dict[str, Cpt] = {}
    for child in sub.y:
        parents = net.parents[child]
        m = _project(joint, sy, parents + (child,))
        out[child] = Cpt(child, parents, _conditional(m))
    return out


@dataclass
class _SubnetPlan:
    """Flat index plan for one non-local constraint, built once per run.

    The subnet's cells are the C-order enumeration of ``(*s, *y)``.  Each
    array below maps those cells, or the entries of the member tables, to
    the index they gather from or ``bincount`` into:

    - ``y_cell`` and ``s_cell``: the raveled ``y`` and ``s`` configuration
      of each cell;
    - ``family``: one row per member, in ``y`` order, holding each cell's
      entry in the member-CPT vector that ``layout`` (a ``core._Layout``
      over ``y``) lays out;
    - ``positive`` and ``target``: the raveled ``y`` cells where the
      constraint is positive, and its values there.

    ``outside`` names the CPTs the context weight contracts, and
    ``weight`` is that contraction's plan (``_outside_plan``).

    Every ``y`` and ``s`` configuration and every member-table entry occurs
    among the cells, so each ``bincount`` comes out at full length.
    """

    y: tuple[str, ...]
    s: tuple[str, ...]
    outside: tuple[str, ...]
    weight: Contraction
    y_shape: tuple[int, ...]
    layout: _Layout
    y_cell: np.ndarray
    s_cell: np.ndarray
    family: np.ndarray
    positive: np.ndarray
    target: np.ndarray

    @staticmethod
    def build(net: NetworkSpec, r: Constraint, cls: NonLocal) -> "_SubnetPlan":
        y, s = cls.y, cls.s
        sy = s + y
        axis = {v: i for i, v in enumerate(sy)}
        shape = tuple(net.cardinality(v) for v in sy)

        def cells(names: tuple[str, ...], offset: int = 0) -> np.ndarray:
            """Index of every subnet cell in a raveled table over ``names``."""
            sub = tuple(net.cardinality(v) for v in names)
            index = np.arange(offset, offset + math.prod(sub)).reshape(sub)
            placed = _placed(index, [axis[v] for v in names], len(sy))
            return np.broadcast_to(placed, shape).ravel()

        layout = _Layout.of(net, y)
        family, entries = [], 0
        for child, table_shape in zip(y, layout.shapes):
            family.append(cells(net.parents[child] + (child,), entries))
            entries += math.prod(table_shape)
        target = _aligned_target(r, y).ravel()
        positive = np.flatnonzero(target > 0.0)
        outside, weight = _outside_plan(net, y, s)
        return _SubnetPlan(
            y=y, s=s,
            outside=outside,
            weight=weight,
            y_shape=shape[len(s):],
            layout=layout,
            y_cell=cells(y),
            s_cell=cells(s),
            family=np.stack(family),
            positive=positive,
            target=target[positive],
        )


SQUAREM_GATE = 1e-4
"""Plain-step size below which the non-local inner loop extrapolates;
ungated, the first long steps moved the diamond's divergence by 5.5e-4."""


def _extrapolated(theta: np.ndarray, t1: np.ndarray, t2: np.ndarray,
                  plan: _SubnetPlan, w: np.ndarray) -> np.ndarray | None:
    """SQUAREM-S3 candidate from ``theta`` and two plain maps of it.

    ``theta``, ``t1 = F(theta)`` and ``t2 = F(t1)`` are member-CPT
    vectors laid out by ``plan.layout``; ``w`` is the raveled
    context weight.  The candidate is ``core._squarem``'s, which clamps the
    step length and renormalizes rows.  Returns ``None`` (reject) when that
    rejects it, or when the candidate leaves a cell the constraint puts
    mass on without mass, where the next plain map would fail.
    """
    candidate = _squarem(theta, t1, t2, plan.layout.row)
    if candidate is None:
        return None
    cond = candidate[plan.family].prod(axis=0)
    if not np.bincount(plan.y_cell, cond * w)[plan.positive].all():
        return None
    return candidate


def _nonlocal_visit(plan: _SubnetPlan, work: dict[str, np.ndarray],
                    inner_epsilon: float, inner_cap: int) -> int:
    """Fit one non-local constraint's member tables in ``work``, in place;
    returns plain maps used.

    The plain map ``F`` is a proportional step on the subnet conditional
    followed by re-extraction of the member CPTs; the loop stops once a
    plain step moves the conditional by at most ``inner_epsilon``, or
    after ``inner_cap`` plain maps.  The context weight is computed once,
    by the plan's compiled contraction; it only involves outside CPTs.

    ``F`` alone converges linearly and slowly, so once a plain step falls
    below ``SQUAREM_GATE`` the loop extrapolates with SQUAREM (Varadhan &
    Roland 2008, Scand. J. Stat. 35, scheme S3) on the member-CPT vector:
    two plain maps, the candidate of ``_extrapolated`` (step length
    clamped to at most ``core.SQUAREM_MAX_ALPHA``, rows renormalized),
    then one plain map on an accepted candidate to stabilize it.  A
    candidate with a negative entry, or without mass on a cell the
    constraint puts mass on, is rejected and replaced by the second plain
    map, so ``DominanceError`` only ever comes from a plain map.  An
    extrapolation starts only when its maps fit under the cap, and the
    stop test is always a plain map's step.

    Each map is a fixed handful of calls on 1-D arrays through the plan's
    indices: the member tables are packed into one vector by the plan's
    layout, a gather through ``family`` forms their product, and
    ``bincount`` gives the ``y`` marginal, the per-``s`` row mass and the
    re-extracted member tables.
    """
    w = _outside_weight(plan.weight, plan.outside, work).ravel()
    family = plan.family.ravel()
    row, uniform = plan.layout.row, plan.layout.uniform
    refit = np.empty(plan.family.shape)
    ratio = np.zeros(math.prod(plan.y_shape))

    def plain_map(theta: np.ndarray) -> tuple[np.ndarray, float]:
        cond = theta[plan.family].prod(axis=0)
        qy = np.bincount(plan.y_cell, cond * w)
        total = qy.sum()
        if total > 0.0:
            qy /= total
        current = qy[plan.positive]
        if not current.all():
            i = int(np.flatnonzero(current == 0.0)[0])
            raise _dominance_error(plan.y, plan.target[i], np.unravel_index(
                int(plan.positive[i]), plan.y_shape))
        ratio[plan.positive] = plan.target / current
        scaled = cond * ratio[plan.y_cell]
        alpha = np.bincount(plan.s_cell, scaled)[plan.s_cell]
        newcond = np.divide(scaled, alpha, out=cond.copy(), where=alpha > 0.0)
        np.multiply(newcond, w, out=refit)
        m = np.bincount(family, refit.ravel())
        denom = np.bincount(row, m)[row]
        return (np.divide(m, denom, out=uniform.copy(), where=denom > 0.0),
                float(np.abs(newcond - cond).max()))

    theta = plan.layout.pack(work)
    delta = float("inf")
    maps = 0
    while maps < inner_cap:
        theta_next, delta = plain_map(theta)
        maps += 1
        if inner_epsilon < delta < SQUAREM_GATE and maps + 2 <= inner_cap:
            t2, delta = plain_map(theta_next)
            maps += 1
            candidate = (_extrapolated(theta, theta_next, t2, plan, w)
                         if delta > inner_epsilon else None)
            if candidate is None:
                theta_next = t2
            else:
                theta_next, delta = plain_map(candidate)
                maps += 1
        theta = theta_next
        if delta <= inner_epsilon:
            break
    work.update(plan.layout.tables(theta))
    if delta > inner_epsilon:
        logger.warning(
            "constraint over %s: inner loop hit its cap of %d iterations "
            "with step size %.3e; the outer cycle will revisit it",
            plan.y, inner_cap, delta,
        )
    return maps


def run_d_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy | None = None) -> tuple[NetworkSpec, RunReport]:
    """Structure-preserving fit that never materializes the joint.

    Each cycle visits the constraints in list order; a local constraint
    rescales rows of one CPT, a non-local one runs the subnet iteration of
    ``_nonlocal_visit``.  Convergence is judged on CPT entries (the state
    the solver actually moves) together with the true marginal residuals
    from variable elimination, each planned once per run.  The report's
    divergence comes from the edited families alone
    (``network_divergence``), at any network size.  Its structural
    residual is ``None``: the result is a network on the input's DAG, so
    it factors over that DAG by construction.

    A non-local visit stops its inner loop at ``stop.epsilon`` or after
    ``INNER_MAX_ITERATIONS`` plain maps; a constraint spanning more than
    ``SUBNET_BUDGET`` variables raises ``SubnetSizeError`` before any work.
    A family the run did not change keeps the input's ``Cpt`` object.
    """
    t0 = time.perf_counter()
    stop = stop or StopPolicy()
    constraints = _prepared(net, constraints)

    plans: list[_LocalPlan | _SubnetPlan] = []
    for r in constraints:
        cls = classify_scope(net, r.scope)
        if isinstance(cls, Local):
            span = {cls.target} | set(net.parents[cls.target])
            if len(span) > SUBNET_BUDGET:
                raise SubnetSizeError(
                    f"constraint over {r.scope}: the family of "
                    f"{cls.target!r} spans {len(span)} variables, over the "
                    f"budget of {SUBNET_BUDGET}"
                )
            plans.append(_LocalPlan.build(net, r, cls))
        else:
            span = len(cls.y) + len(cls.s)
            if span > SUBNET_BUDGET:
                raise SubnetSizeError(
                    f"constraint over {r.scope}: subnet spans {span} "
                    f"variables (y={cls.y}, s={cls.s}), over the budget "
                    f"of {SUBNET_BUDGET}"
                )
            plans.append(_SubnetPlan.build(net, r, cls))

    queries = [plan_cpt_contraction(net, r.scope) for r in constraints]
    work = {name: cpt.table for name, cpt in net.cpts.items()}

    def current_residuals() -> tuple[float, ...]:
        return tuple(
            float(np.max(np.abs(
                contract(plan, [work[name] for name in names])
                - r.dist.probs)))
            for r, (names, plan) in zip(constraints, queries))

    eps = stop.epsilon
    deltas: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    worsts: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    termination = Termination.MAX_CYCLES if constraints else Termination.CONVERGED
    cycles = stop.max_cycles if constraints else 0
    residuals: tuple[float, ...] | None = None

    for cycle in range(1, cycles + 1):
        snapshot = dict(work)
        for plan in plans:
            if isinstance(plan, _LocalPlan):
                work[plan.target] = _local_visit(plan, work)
            else:
                _nonlocal_visit(plan, work, eps,
                                inner_cap=INNER_MAX_ITERATIONS)

        delta = 0.0
        for name, table in work.items():
            before = snapshot[name]
            if table is not before:
                delta = max(delta, float(np.max(np.abs(table - before))))

        # Residuals come from variable elimination, which costs more than a
        # whole cycle of CPT updates; verify them only when the cheap delta
        # signal says the run may be done, or has stalled.
        residuals = None
        if delta <= eps:
            residuals = current_residuals()
            if max(residuals) <= eps:
                termination = Termination.CONVERGED
                cycles = cycle
                break

        deltas.append(delta)
        if len(deltas) == deltas.maxlen and deltas[-1] >= 0.9 * deltas[0]:
            if residuals is None:
                residuals = current_residuals()
            worsts.append(max(residuals))
            if (len(worsts) == worsts.maxlen
                    and worsts[-1] >= 0.99 * worsts[0]):
                logger.warning(
                    "cycle %d: CPT deltas plateaued near %.3e and max "
                    "residual stuck near %.3e; constraints look "
                    "contradictory, stopping as oscillating",
                    cycle, delta, worsts[-1],
                )
                termination = Termination.OSCILLATING
                cycles = cycle
                break
        else:
            worsts.clear()

    if residuals is None:
        residuals = current_residuals()

    # Each changed family is validated once, here; the rest keep their Cpt.
    result = net if not cycles else NetworkSpec(net.variables, net.parents, {
        name: cpt if work[name] is cpt.table
        else Cpt(name, cpt.parent_order, work[name])
        for name, cpt in net.cpts.items()})
    report = RunReport(
        algorithm="d-ipfp",
        cycles=cycles,
        wall_time=time.perf_counter() - t0,
        final_divergence=network_divergence(result, net),
        per_constraint_residuals=residuals,
        structural_residual=None,
        termination=termination,
    )
    return result, report
