"""Structure-preserving fitting without the full joint table.

A constraint only ever forces changes in the CPTs of the variables it
mentions.  Every constraint is handled inside a local subnet: the
conditional table of a variable set ``Y`` given its outside parents ``S``,
scaled by target over current marginal and re-factored into member CPTs.
A local constraint (one variable plus some of its parents) is the
one-member case, ``Y = (target,)`` with ``S`` its parents, and takes one
such step per visit, which rescales rows of the target's CPT.  A
non-local constraint iterates the step until it settles.  Either way the
work is bounded by subnet size, not by the number of network variables,
and the result factors over the original DAG by construction.

The marginal a constraint is matched against is always the network's true
marginal, obtained by variable elimination; inside a subnet it is computed
from the factored form ``cond(y | s) * w(y, s)``, where ``w`` is the
contraction of every CPT outside ``Y`` onto ``S`` and ``Y``.  ``w`` does
not change while only ``Y``'s tables are updated.  The DAG and every scope
stay fixed for a run, so each subnet's ``w`` is planned once per run
(``elimination.plan_contraction``), and a visit only executes its plan.
The same plan also gives a constraint's residual (its marginal, summed from
``cond * w``) and every member family's mass ``P(pa, v)`` for the report's
divergence, so a run plans one contraction per constraint and no more.

Subnets are small (a few dozen cells) but their inner loops run for
thousands of iterations, so per-call overhead, not arithmetic, sets the
cost.  Each constraint is therefore compiled once per run into one index
plan (``_SubnetPlan``): flat arrays that map every cell of the C-order
enumeration of ``(S, Y)`` to its configuration of the constraint's scope
and of ``S``, and to its entry in the member-CPT vector (``core._Layout``,
as in e-ipfp).  One map (``_plain_map``) serves both kinds of constraint:
a fixed handful of gathers and ``bincount`` sums on 1-D arrays, whatever
the number of members or their parent order.

The working state is plain CPT arrays, computed from validated tables, so
no visit validates; a ``Cpt`` is built once per run for each changed
family, when ``run_d_ipfp`` assembles its result.

The plain map converges linearly, at rates that can lie within 1e-4 of
one, so once its step falls below ``SQUAREM_GATE`` the non-local loop
accelerates it with gated SQUAREM (Varadhan & Roland 2008, "Simple and
globally convergent methods for accelerating the convergence of any EM
algorithm", Scand. J. Stat. 35, scheme S3) on the vector of member CPT
entries.  The extrapolation and its rejection rule are e-ipfp's: the
candidate is ``core._squarem``'s, whose step length is clamped to at most
``core.SQUAREM_MAX_ALPHA`` and which is renormalized per parent row, and a
candidate ``_squarem`` rejects, or whose stabilizing plain map raises
``DominanceError``, leaves the step on the second plain map.  The map's
fixed points form a continuum, so where a visit lands depends on its path,
and a long step taken far from that set can land far from where plain
maps would.  Two rules bound where a step may land.  The gate keeps
extrapolation to the approach.  Within it, each step's length is bounded,
as in the SQUAREM package: the bound starts at 1 on every visit, where the
candidate is the second plain map, and grows by ``SQUAREM_STEP_GROWTH``
after each accepted step that reached it.  So a visit takes a long step
only after shorter ones along the same path were accepted, and the result
barely depends on the inner tolerance.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    SQUAREM_MAX_ALPHA,
    TAU_NORM,
    BnError,
    Constraint,
    Cpt,
    DominanceError,
    Local,
    NetworkSpec,
    NonLocal,
    ScopeError,
    ValidationError,
    _Layout,
    _conditional,
    _cpt_product,
    _divided,
    _kl,
    _outside_parents,
    _placed,
    _power_of_two,
    _project,
    _ratio,
    _squarem,
    classify_constraint,
    classify_scope,
)
# Unused here; perfbench/tracer.py wraps these names in this module.
from .core import _reextracted_product, i_divergence, joint_from_network
from .dense import RunReport, StopPolicy, _iterate, _prepared
from .elimination import Contraction, contract, plan_cpt_contraction

logger = logging.getLogger("bnrefit")

SUBNET_BUDGET = 20
"""Base-2 logarithm of the most cells one constraint's subnet may hold (the
product of the cardinalities of its constrained set and outside parents);
beyond it the run aborts, before allocating, instead of degrading."""

INNER_MAX_ITERATIONS = 1000
"""Plain maps one non-local visit may make before it hands the constraint
back to the outer cycle, which revisits it."""


class SubnetSizeError(BnError):
    """A constraint's subnet holds more cells than the budget allows."""


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


def _subnet_shape(net: NetworkSpec, y: tuple[str, ...], s: tuple[str, ...],
                  prefix: str) -> tuple[int, ...]:
    """The shape of the subnet over ``(*s, *y)``.

    A subnet of more than ``2 ** SUBNET_BUDGET`` cells raises
    ``SubnetSizeError``, whose message starts with ``prefix``, before
    anything is allocated.
    """
    shape = tuple(net.cardinality(v) for v in s + y)
    size = math.prod(shape)
    if size > 2 ** SUBNET_BUDGET:
        raise SubnetSizeError(
            f"{prefix}subnet (y={y}, s={s}) holds {_power_of_two(size)} "
            f"cells, over the budget of 2^{SUBNET_BUDGET}")
    return shape


def build_local_subnet(net: NetworkSpec, y_vars: Sequence[str],
                       cpts: Mapping[str, Cpt] | None = None) -> LocalSubnet:
    """Conditional table of ``y_vars`` given their outside parents.

    ``y`` and ``s`` come out in network declaration order.  The table is
    the product of the member CPTs, so for every outside configuration it
    is exactly the distribution of ``y`` the network prescribes given
    ``s``.  ``cpts`` overrides the network's tables.  A subnet over the
    budget raises ``SubnetSizeError``, as in ``run_d_ipfp``.
    """
    members = set(y_vars)
    if not members:
        raise ValidationError("subnet needs a non-empty variable set")
    for v in members:
        if v not in net.names:
            raise ScopeError(f"variable {v!r} is not declared in this network")
    y = tuple(sorted(members, key=net.axis))
    s = _outside_parents(net, y)
    _subnet_shape(net, y, s, "")
    table = cpts if cpts is not None else net.cpts
    return LocalSubnet(y, s, _cpt_product([net.decl(v) for v in s + y],
                                          {v: table[v].table for v in y},
                                          net.parents))


def local_update(cpt: Cpt, r: Constraint, net: NetworkSpec) -> Cpt:
    """Absorb a local constraint by rescaling rows of one CPT.

    ``r`` must classify as local with ``cpt.child`` as its target.  Each
    row of the result is the old row times the per-cell ratio of target to
    current marginal, renormalized, so the network's joint absorbs exactly
    the proportional-fitting step for ``r`` while only this table changes.
    The current marginal over the parents comes from variable elimination
    against ``net``'s other tables.  This is the visit d-ipfp
    makes (``_local_visit``): one plain map of the subnet whose only member
    is ``cpt.child``.  A row whose parent configuration has no mass fills
    uniformly, and a constraint the tables already meet exactly leaves the
    table as it is.
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
    working = {name: c.table for name, c in net.cpts.items()}
    working[cpt.child] = cpt.table
    _local_visit(_SubnetPlan.build(net, r, cls), working)
    return Cpt(cpt.child, parents, working[cpt.child])


def nonlocal_update(sub: LocalSubnet, r: Constraint,
                    q_s: np.ndarray | None) -> LocalSubnet:
    """One proportional step on a subnet's conditional table.

    ``q_s`` is the context weight the conditional is paired with to form
    the subnet's joint: a table over ``(*sub.s, *sub.y)``, such as the
    outside weight ``extract_subnet_cpts`` contracts (any positive scaling
    works), or ``None`` for uniform, which is exact when ``sub.s`` is
    empty.  The conditional is scaled cellwise by target over current
    marginal and renormalized per outside configuration, so for every
    ``s`` it stays a distribution while the subnet's marginal over ``y``
    moves onto ``r``.
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
        if w.shape != shape:
            raise ScopeError(
                f"context weight shape {w.shape} does not match the subnet "
                f"{shape}"
            )
    joint = sub.cond_table * w
    qy = joint.sum(axis=s_axes) if s_axes else joint
    ratio = _ratio(target, _divided(qy, qy.sum(), 0.0), sub.y)
    scaled = sub.cond_table * _placed(ratio, list(y_axes), len(shape))
    # Rows left with zero mass carry no information; they keep their values.
    return LocalSubnet(sub.y, sub.s, _divided(
        scaled, scaled.sum(axis=y_axes, keepdims=True), sub.cond_table))


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
    """Flat index plan for one constraint, built once per run.

    The subnet is ``y`` (a local constraint's target alone) given its
    outside parents ``s``, and its cells are the C-order enumeration of
    ``(*s, *y)``.  Each array below maps those cells, or the entries of the
    member tables, to the index they gather from or ``bincount`` into:

    - ``scope_cell`` and ``s_cell``: the raveled configuration of each cell
      over ``scope`` (the constraint's scope in declaration order, shaped
      ``scope_shape``; a non-local constraint's is ``y``) and over ``s``;
    - ``family``: one row per member, in ``y`` order, holding each cell's
      entry in the member-CPT vector that ``layout`` (a ``core._Layout``
      over ``y``) lays out.

    ``target`` is the constraint's table over ``scope``, raveled.

    ``outside`` names the CPTs the context weight contracts, and
    ``weight`` is that contraction's plan (``_outside_plan``).

    Every ``scope`` and ``s`` configuration and every member-table entry
    occurs among the cells, so each ``bincount`` comes out at full length.
    """

    y: tuple[str, ...]
    outside: tuple[str, ...]
    weight: Contraction
    scope: tuple[str, ...]
    scope_shape: tuple[int, ...]
    layout: _Layout
    scope_cell: np.ndarray
    s_cell: np.ndarray
    family: np.ndarray
    target: np.ndarray

    @staticmethod
    def build(net: NetworkSpec, r: Constraint,
              cls: Local | NonLocal) -> "_SubnetPlan":
        y = (cls.target,) if isinstance(cls, Local) else cls.y
        s = _outside_parents(net, y)
        sy = s + y
        shape = _subnet_shape(net, y, s, f"constraint over {r.scope}: its ")
        size = math.prod(shape)
        axis = {v: i for i, v in enumerate(sy)}

        def strides(names: tuple[str, ...]) -> list[int]:
            """Each subnet axis's stride in a table over ``names``, or 0."""
            out, step = [0] * len(sy), 1
            for v in reversed(names):
                out[axis[v]] = step
                step *= net.cardinality(v)
            return out

        layout = _Layout.of(net, y)
        scope = tuple(sorted(r.scope, key=net.axis))
        # A raveled table index is linear in the cell's coordinates, so one
        # product indexes every member's family, then ``scope``, then ``s``.
        index = np.array([strides(net.parents[v] + (v,)) for v in y]
                         + [strides(scope), strides(s)], dtype=np.intp
                         ) @ np.unravel_index(np.arange(size), shape)
        entries = np.cumsum([0] + [math.prod(t) for t in layout.shapes[:-1]])
        outside, weight = _outside_plan(net, y, s)
        return _SubnetPlan(
            y=y,
            outside=outside,
            weight=weight,
            scope=scope,
            scope_shape=tuple(net.cardinality(v) for v in scope),
            layout=layout,
            scope_cell=index[-2],
            s_cell=index[-1],
            family=index[:-2] + entries[:, None],
            target=_aligned_target(r, scope).ravel(),
        )


def _plain_map(plan: _SubnetPlan, w: np.ndarray
               ) -> Callable[[np.ndarray], tuple[np.ndarray, float]]:
    """The plain map ``F`` of ``plan``'s constraint under the raveled
    context weight ``w``, with its buffers made once a visit.

    ``F`` maps a member-CPT vector (``plan.layout``) to the next, and
    returns the largest change it made to the subnet conditional: a
    proportional step on the conditional (``core._ratio`` of the target
    over the scope marginal), whose rows left without mass keep their
    values, then re-extraction of the member CPTs, whose rows without mass
    fill uniformly; both normalizations are ``core._divided``.  Each map
    is a gather through ``family`` and a few ``bincount`` sums through the
    plan's other indices.

    Cost model: a subnet holds 16 to a few hundred cells, so each numpy
    call costs its fixed dispatch overhead (about 1 µs), not its
    arithmetic, and a map costs its number of calls.  Hence the ufunc
    reductions are called directly (``np.multiply.reduce`` and friends
    skip the ``ndarray.prod``/``sum``/``max`` wrappers, which cost 1.4 to
    2 µs each), and the ratio and each normalization are one
    ``np.count_nonzero`` (about 0.3 µs, against about 2 µs for
    ``ndarray.all``) and a plain divide when nothing is zero; the masked
    paths, the dominance test and the divide that keeps zero-mass rows,
    cost a few µs more and run only when some cell or row has no mass.
    Every path computes the same values, bit for bit.
    """
    family = plan.family.ravel()
    scope_cell, s_cell = plan.scope_cell, plan.s_cell
    row, uniform = plan.layout.row, plan.layout.uniform
    target = plan.target.reshape(plan.scope_shape)
    # The scope marginal, normalized into ``qy``, a raveled view of
    # ``current``, which has the scope's shape.
    current = np.empty(plan.scope_shape)
    qy = current.reshape(-1)
    refit = np.empty(plan.family.shape)

    def plain_map(theta: np.ndarray) -> tuple[np.ndarray, float]:
        cond = np.multiply.reduce(theta[plan.family])
        mass = np.bincount(scope_cell, cond * w)
        total = np.add.reduce(mass)
        # Divided by its total, unless it has no mass at all.
        np.divide(mass, total if total > 0.0 else 1.0, out=qy)
        scaled = cond * _ratio(target, current, plan.scope).ravel()[scope_cell]
        newcond = _divided(scaled, np.bincount(s_cell, scaled)[s_cell], cond)
        np.multiply(newcond, w, out=refit)
        m = np.bincount(family, refit.ravel())
        return (_divided(m, np.bincount(row, m)[row], uniform),
                float(np.maximum.reduce(np.abs(newcond - cond))))

    return plain_map


def _marginal(plan: _SubnetPlan, theta: np.ndarray,
              w: np.ndarray) -> np.ndarray:
    """The network's marginal over the constraint's scope, raveled as
    ``plan.target``, when its member CPTs are ``theta`` and its context
    weight is ``w``: the subnet joint ``cond * w`` summed per scope cell."""
    return np.bincount(plan.scope_cell,
                       np.multiply.reduce(theta[plan.family]) * w)


def _family_mass(plan: _SubnetPlan, theta: np.ndarray,
                 w: np.ndarray) -> dict[str, np.ndarray]:
    """Each member's family mass ``P(pa, v)``, shaped as its CPT, when the
    member CPTs are ``theta`` and the context weight is ``w``: the subnet
    joint summed per member-table entry, the ``m`` of ``_plain_map``."""
    joint = np.multiply.reduce(theta[plan.family]) * w
    return plan.layout.tables(
        np.bincount(plan.family.ravel(), np.tile(joint, len(plan.y))))


def _met(plan: _SubnetPlan, theta: np.ndarray, w: np.ndarray) -> bool:
    """Whether the member CPTs ``theta`` already give the constraint's
    marginal exactly, where a step could only add rounding."""
    return np.array_equal(_marginal(plan, theta, w), plan.target)


def _local_visit(plan: _SubnetPlan, work: dict[str, np.ndarray]) -> None:
    """Fit one local constraint's target CPT in ``work``, in place, by one
    plain map; a constraint the tables already meet exactly leaves them
    untouched."""
    w = _outside_weight(plan.weight, plan.outside, work).ravel()
    theta = plan.layout.pack(work)
    if not _met(plan, theta, w):
        work.update(plan.layout.tables(_plain_map(plan, w)(theta)[0]))


SQUAREM_GATE = 1e-3
"""Plain-step size below which the non-local inner loop extrapolates.
Without a gate, visits of a contradictory set, which never settle, take
long steps from the start: the n=12 seed-7 set of the tests'
``contradictory_variant`` was flagged after 1,464 cycles instead of 40.
The step-length bound keeps a visit's first steps short, so the gate can
sit at 1e-3: there, unbounded steps moved the divergence of a 29-instance
batch by up to 2.1e-4 relative from the 1e-4 gate's, and bounded steps
move a 31-instance batch by at most 1.1e-5."""

SQUAREM_STEP_GROWTH = 4.0
"""Factor by which a non-local visit's bound on the SQUAREM step length
grows after an accepted step that reached it; the bound starts at 1 on
every visit.  Both are the defaults of the SQUAREM package, ``mstep = 4``
and ``step.max0 = 1`` (Du & Varadhan 2020, "SQUAREM: An R package for
off-the-shelf acceleration of EM, MM and other EM-like monotone
algorithms", J. Stat. Softw. 92(7)); the bound is Varadhan & Roland's
(2008, Scand. J. Stat. 35) rule for keeping SQUAREM's steps stable."""


def _nonlocal_visit(plan: _SubnetPlan, work: dict[str, np.ndarray],
                    inner_epsilon: float, inner_cap: int) -> int:
    """Fit one non-local constraint's member tables in ``work``, in place;
    returns plain maps used.

    The loop applies ``_plain_map``'s ``F`` until a plain step moves the
    conditional by at most ``inner_epsilon``, or ``inner_cap`` times.  The
    context weight is computed once, by the plan's compiled contraction;
    it only involves outside CPTs.  A constraint the tables already meet
    exactly leaves them untouched, after no map.

    ``F`` alone converges linearly and slowly, so once a plain step falls
    below ``SQUAREM_GATE`` the loop extrapolates with SQUAREM (Varadhan &
    Roland 2008, Scand. J. Stat. 35, scheme S3) on the member-CPT vector:
    two plain maps, the ``core._squarem`` candidate (step length clamped
    to at most ``core.SQUAREM_MAX_ALPHA``, rows renormalized), then one
    plain map on the candidate to stabilize it.  The step length is also
    bounded: the bound starts at 1 on every visit, where the candidate is
    the second plain map, and grows by ``SQUAREM_STEP_GROWTH`` after each
    accepted step that reached it.  As in e-ipfp, a candidate
    ``_squarem`` rejects (a negative entry or a row without mass), or whose
    stabilizing plain map raises ``DominanceError`` (no mass on a cell the
    constraint puts mass on), leaves the step on the second plain map; the
    failed map is not counted, and ``DominanceError`` escapes only from
    the map of a plain step.  A rejected step leaves the bound as it is.
    An extrapolation starts only when its maps fit under the cap, and the
    stop test is always a plain map's step.

    The loop also stops, with its own warning, when a plain map returns
    its input bit for bit while its step is still above ``inner_epsilon``:
    every further map would return the same vector.  That happens where
    the members' product cannot carry the target, as with two independent
    roots fitted to a dependent pair.
    """
    w = _outside_weight(plan.weight, plan.outside, work).ravel()
    theta = plan.layout.pack(work)
    if _met(plan, theta, w):
        return 0
    plain_map = _plain_map(plan, w)
    delta = float("inf")
    maps = 0
    bound = -SQUAREM_MAX_ALPHA
    while maps < inner_cap:
        theta_next, delta = plain_map(theta)
        maps += 1
        if delta > inner_epsilon and theta_next.tobytes() == theta.tobytes():
            logger.warning(
                "constraint over %s: a plain map left the member CPTs "
                "unchanged with step size %.3e; no further map can move "
                "them, the outer cycle will revisit it", plan.y, delta)
            break
        if inner_epsilon < delta < SQUAREM_GATE and maps + 2 <= inner_cap:
            t2, delta = plain_map(theta_next)
            maps += 1
            candidate, reached = (
                _squarem(theta, theta_next, t2, plan.layout.row, bound)
                if delta > inner_epsilon else (None, False))
            theta_next = t2
            if candidate is not None:
                try:
                    theta_next, delta = plain_map(candidate)
                except DominanceError:
                    pass  # the step ends on t2, as for a rejected candidate
                else:
                    maps += 1
                    if reached:
                        bound *= SQUAREM_STEP_GROWTH
        theta = theta_next
        if delta <= inner_epsilon:
            break
    else:
        logger.warning(
            "constraint over %s: inner loop hit its cap of %d iterations "
            "with step size %.3e; the outer cycle will revisit it",
            plan.y, inner_cap, delta,
        )
    work.update(plan.layout.tables(theta))
    return maps


def _divergence(net: NetworkSpec, work: Mapping[str, np.ndarray],
                plans: Sequence[_SubnetPlan],
                weights: Sequence[np.ndarray]) -> float:
    """I-divergence of the network with tables ``work`` from ``net``.

    The chain rule of ``elimination.network_divergence``, summed over the
    changed families in declaration order, with each family's mass read off
    the subnet of the last plan that has it as a member; ``weights`` are
    the plans' raveled context weights at ``work``.  Only a plan's members
    change, so every changed family has one.  Each family's term is
    ``core._kl(mass, a, b)``, the kernel of ``i_divergence`` and
    ``network_divergence``.
    """
    owner = {name: (plan, w) for plan, w in zip(plans, weights)
             for name in plan.y}
    mass: dict[str, np.ndarray] = {}
    total = 0.0
    for name in net.names:
        a, b = work[name], net.cpts[name].table
        if a is b or np.array_equal(a, b):
            continue
        if name not in mass:
            plan, w = owner[name]
            mass.update(_family_mass(plan, plan.layout.pack(work), w))
        total += _kl(mass[name], a, b)
    return total


def run_d_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy | None = None) -> tuple[NetworkSpec, RunReport]:
    """Structure-preserving fit that never materializes the joint.

    Each cycle visits the constraints in list order; a local constraint
    takes one plain map of its one-member subnet (``_local_visit``), which
    rescales rows of one CPT, and a non-local one iterates the map
    (``_nonlocal_visit``).  Convergence is judged on CPT entries (the state
    the solver actually moves) together with the true marginal residuals,
    each summed from its constraint's subnet (``_marginal``) under the
    context weight its plan contracts at the current tables, in the outer
    loop every solver runs (``dense._iterate``).  The report's
    divergence (``_divergence``) comes from the edited families alone, by
    the chain rule of ``network_divergence``, at any network size, with
    each family's mass ``P(pa, v)`` read off a subnet it belongs to.
    Its structural residual is ``None``: the result is a network on the
    input's DAG, so it factors over that DAG by construction.

    A non-local visit stops its inner loop at ``stop.epsilon`` or after
    ``INNER_MAX_ITERATIONS`` plain maps; a constraint whose subnet holds
    more than ``2 ** SUBNET_BUDGET`` cells raises ``SubnetSizeError``
    before any work.
    A family the run did not change keeps the input's ``Cpt`` object.
    """
    t0 = time.perf_counter()
    stop = stop or StopPolicy()
    constraints = _prepared(net, constraints)

    plans = [_SubnetPlan.build(net, r, classify_scope(net, r.scope))
             for r in constraints]
    work = {name: cpt.table for name, cpt in net.cpts.items()}

    weights: list[np.ndarray] = []

    def cycle(left: int) -> tuple[float, int]:
        """One visit to every constraint; returns the largest change it
        made to a CPT entry, and one cycle."""
        snapshot = dict(work)
        for plan in plans:
            # Only a local constraint's subnet has a single member.
            if len(plan.y) == 1:
                _local_visit(plan, work)
            else:
                _nonlocal_visit(plan, work, stop.epsilon,
                                inner_cap=INNER_MAX_ITERATIONS)
        delta = 0.0
        for name, table in work.items():
            before = snapshot[name]
            if table is not before:
                delta = max(delta, float(np.max(np.abs(table - before))))
        return delta, 1

    def measure() -> tuple[float, ...]:
        """Each constraint's residual, the largest distance of its
        marginal from its target over every cell of its scope; keeps each
        plan's raveled context weight at the current tables for the
        report's divergence.  Residuals come from variable elimination,
        which costs more than a whole cycle of CPT updates, so the loop
        asks for them only when it reads them."""
        weights[:] = [contract(plan.weight, [work[name] for name in plan.outside]
                               ).ravel() for plan in plans]
        return tuple(
            float(np.max(np.abs(
                _marginal(plan, plan.layout.pack(work), w) - plan.target)))
            for plan, w in zip(plans, weights))

    cycles, residuals, termination = _iterate(
        stop, constraints, cycle, measure,
        "cycle %d: CPT deltas plateaued near %.3e and max residual stuck "
        "near %.3e; constraints look contradictory, or out of reach of the "
        "CPTs they name; stopping as oscillating")

    # Each changed family is validated once, here; the rest keep their Cpt.
    result = net if not cycles else NetworkSpec(net.variables, net.parents, {
        name: cpt if work[name] is cpt.table
        else Cpt(name, cpt.parent_order, work[name])
        for name, cpt in net.cpts.items()})
    report = RunReport(
        algorithm="d-ipfp",
        cycles=cycles,
        wall_time=time.perf_counter() - t0,
        final_divergence=_divergence(net, work, plans, weights),
        per_constraint_residuals=residuals,
        structural_residual=None,
        termination=termination,
    )
    return result, report
