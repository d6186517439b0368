"""Dense-table solvers.

``run_ipfp`` is plain iterative proportional fitting: each step rescales
the joint so one constraint's marginal is met exactly, and cycling the
steps converges to the I-projection of the starting joint onto the
constraint set.  The fitted table generally no longer factors over the
network's DAG.  ``run_e_ipfp`` restores that factorization once per
cycle by re-extracting CPTs from the working table and replacing it with
their product, so its answer is again a network with the original
structure.

e-ipfp runs its loop on the joint of An(U), the variables some constraint
names and all their ancestors, as a sub-network declared in the input's
order.  Every other variable is barren: no constraint names it or a
descendant, so summing it out gives one (Shachter 1986, Oper. Res. 34),
and a projection of the full joint would hand its CPT back unchanged
wherever a parent row has mass.  The output keeps the input's ``Cpt``
object for it, rows without mass included: only rows of families inside
An(U) fall back to uniform.  A cell of the full joint is the
sub-joint's cell times the product of the barren CPTs, so the quantities
the loop reads are the full joint's: the residuals and the divergence
(by the chain rule) directly, and the joint step as the sub-joint's
change times ``M``, the largest value the barren product takes for each
state of the ancestral variables it names (``_barren_weight``, one
max-product contraction made once per run).  The dense ceiling then
applies to the ancestral joint and to the largest table of ``M``'s
contraction, which eliminates every barren variable, so e-ipfp answers on
networks whose full joint is far over it where both fit.  Plain ipfp
builds the full joint, since its fit need not factor, but its loop runs
on a marginal of it (below).

One plain cycle is a map on the joint: a proportional step per
constraint, in list order, then (for e-ipfp) the structural projection,
then renormalization.  Every step's ratio depends only on the variables
some constraint names, so the steps run on the joint's marginal over the
union of the constraint scopes (in declaration order), and the joint is
then rescaled by the fitted marginal over the one it started from
(Jirousek & Preucil 1995, Comput. Stat. Data Anal. 19).  When the union
is every variable the fitted table is the joint itself and no rescale is
needed.

ipfp's fitted joint is therefore always ``q0(x) f(u) / m0(u)``: the
starting joint ``q0`` times a factor over the union, where ``u`` is the
union's part of the cell ``x``, ``m0`` is ``q0``'s union marginal and
``f`` the fitted one.  Its loop carries ``f`` alone: a cycle is the steps
on ``f`` and its renormalization, the residuals are read off ``f``, and
the divergence is ``f``'s from ``m0``, which by the chain rule is the
joint's from ``q0``.  The stop test reads the joint's step, as each
cell's change of ``f`` times ``M(u)``, the largest ``q0(x) / m0(u)``
over the cells that extend ``u`` (``_union_weight``, once per run).  The
joint is rescaled once, when the loop ends, and the CPTs are read off it
once, for the structural residual and for the network ``run`` writes.
e-ipfp's projection reads the whole joint, so each of its maps sums the
joint down to the union once and multiplies it once.  When its loop reads
the residuals after a map, it reads them off that union marginal of its
result, and the next map starts from it instead of summing it again.

For e-ipfp the CPTs are the state the loop carries.  Every projected
joint is a ``_Projected`` table that also holds the conditional tables it
is the product of, the ones the projection read off the fitted joint, so
nothing reads them off a joint again: not an extrapolation, and not
``run_e_ipfp``, which builds its output network from the final joint's
tables.  The map converges linearly and can crawl for thousands of
cycles, so once a plain map's joint step, ``max|q_out - q_in|``, is at or
below ``SQUAREM_JOINT_GATE`` the loop extrapolates with SQUAREM
(Varadhan & Roland 2008, Scand. J. Stat. 35, scheme S3) on the vector of
all CPT entries, laid out by ``core._Layout`` as d-ipfp's member CPTs
are: two plain maps, the ``core._squarem`` candidate from the tables the
start joint and the two mapped joints carry (step length clamped to at
most ``core.SQUAREM_MAX_ALPHA``, rows renormalized), its product, then
one plain map on that product to stabilize it.  A candidate with a
negative entry or a row without mass is rejected; the step then ends on
the second plain map's joint.  So does one whose stabilizing map raises
``DominanceError``, by multiplying out the second map's tables again.
The gate is open after every step at or below ``SQUAREM_JOINT_GATE``,
whatever the epsilon.  At the default epsilon that includes the steps
already within epsilon while the residuals still lag behind.  An epsilon
above the gate does not widen it: a step within that epsilon but above
the gate is followed by a plain map.  The map's fixed points form a
continuum, and long steps taken early land elsewhere on it, so the gate
is narrow: extrapolation only does the final approach.  ``ipfp`` never
extrapolates.

Every run's ``cycles`` counts plain maps, an extrapolation's two or three
included, so ``max_cycles`` bounds the work; an extrapolation starts only
when all three of its maps fit in what is left of the budget.  The stop
test and the plateau rule read the step of the last plain map only,
never the jump of an extrapolation, and run before any extrapolation, so
a set that the input already meets ends after one cycle.

ipfp, e-ipfp and d-ipfp run one outer loop, ``_iterate``, with one stop
test and one plateau rule, and each has three outcomes: convergence (the
cycle's step, then every residual, within epsilon), a cycle budget
running out, and oscillation.  Contradictory constraints make the state
orbit instead of settle.  A cycle is flat once a window of
``OSCILLATION_WINDOW`` steps has been seen and its step is within epsilon
or has fallen by less than a tenth against the window's oldest; the run
is called oscillating when its worst residual has improved by less than
one percent over that many consecutive flat cycles.  A plateau in the
steps alone is not enough: slowly converging runs can crawl for
stretches, but their residuals keep shrinking, whereas a genuine orbit's
residuals do not.  Residuals are read only when the stop test or a flat
cycle needs them.  The event is logged, never silent.
"""

from __future__ import annotations

import enum
import logging
import math
import operator
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DENSE_CEILING,
    Constraint,
    Cpt,
    DenseCeilingError,
    DominanceError,
    JointTable,
    NetworkSpec,
    ValidationError,
    _BLOCK,
    _Layout,
    _block_shape,
    _blocked,
    _computed,
    _conditionals,
    _cpt_product,
    _divided,
    _kl,
    _max_gap,
    _placed,
    _power_of_two,
    _project,
    _ratio,
    _reextracted_product,
    _squarem,
    _sub_network,
    _sum_out,
    constraint_residual,
    i_divergence,
    joint_from_network,
    marginalize,
    validate_constraint,
)
from .elimination import _ancestral, contract, plan_contraction
# Unused here; perfbench/tracer.py wraps this name in this module.
from .core import extract_cpt

logger = logging.getLogger("bnrefit")


class Termination(enum.Enum):
    """How a solver run ended."""

    CONVERGED = "converged"
    MAX_CYCLES = "max-cycles"
    OSCILLATING = "oscillating"


OSCILLATION_WINDOW = 20
"""How many cycles the plateau rule of ``_iterate`` looks at, for every
solver.  A cycle is flat once this many steps have been seen and its step
is within epsilon or has fallen by less than a tenth against the oldest
of them; a run is declared oscillating when its worst residual has
improved by less than one percent over this many consecutive flat
cycles, so at the earliest after 39 cycles."""


@dataclass(frozen=True)
class StopPolicy:
    """Termination tuning shared by the solvers.

    ``epsilon`` bounds both constraint residuals and the cycle-to-cycle
    table change at convergence; ``max_cycles`` is the cycle budget.
    """

    epsilon: float = 1e-9
    max_cycles: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValidationError(
                f"epsilon must be positive and finite, got {self.epsilon}")
        try:
            valid = operator.index(self.max_cycles) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise ValidationError(
                f"max_cycles must be an integer >= 1, got {self.max_cycles!r}")


@dataclass
class RunReport:
    """What a solver run did and how it ended.

    ``cycles`` counts plain maps for ``ipfp`` and ``e-ipfp``, the maps an
    e-ipfp extrapolation runs included, and outer cycles (visits to every
    constraint) for ``d-ipfp``; either way it is at most the policy's
    ``max_cycles``.  ``final_divergence`` is the I-divergence of the
    result from the input network's joint, in natural log; ``ipfp``
    computes it on the two joints' marginals over the constrained
    variables, ``e-ipfp`` on the dense joints of the constrained
    variables and their ancestors, each of which by the chain rule gives
    the same value, and ``d-ipfp`` from the families it edited.
    ``structural_residual`` is the max-abs gap between the final joint
    and the product of its extracted CPTs; only ``ipfp``, whose fitted
    joint need not factor, reports it.  It is ``None`` for
    ``e-ipfp`` and ``d-ipfp``, whose results are networks on the input's
    DAG.
    """

    algorithm: str
    cycles: int
    wall_time: float
    final_divergence: float
    per_constraint_residuals: tuple[float, ...]
    structural_residual: float | None
    termination: Termination


def ipfp_step(q: JointTable, r: Constraint) -> JointTable:
    """One proportional-fitting step: after it, ``q``'s marginal over
    ``r.scope`` equals ``r.dist`` exactly (up to rounding).

    Cells where the current marginal and the target are both zero stay
    zero.  A target that is positive where the marginal is zero raises
    ``DominanceError`` naming the cell (see ``core._ratio``).  A scope
    variable that ``q`` lacks raises ``ScopeError``; ``r``'s scope is
    non-empty and repeats no variable since it was built, so the marginal
    is summed without ``marginalize``'s re-check of that.
    """
    current = _project(q.probs, q.names, r.scope)
    return _rescaled(q, _ratio(r.dist.probs, current, r.scope), r.scope)


def _rescaled(q: JointTable, ratio: np.ndarray,
              names: Sequence[str]) -> JointTable:
    """``q`` times ``ratio``, whose axes are ``q``'s axes ``names``.

    A table of at most ``_BLOCK`` cells, such as a union marginal, is a
    single block, so ``ratio`` is broadcast onto it as it is instead of
    materialized as a ``_blocked`` factor; either way each cell is
    multiplied once by its ratio, so the result is the same to the bit.
    """
    axes = [q.axis(n) for n in names]
    shape = q.probs.shape
    if q.probs.size <= _BLOCK:
        return _computed(q.scope, q.probs * _placed(ratio, axes, len(shape)))
    return _computed(q.scope, np.multiply(
        q.probs.reshape(_block_shape(shape)),
        _blocked(ratio, axes, shape)).reshape(shape))


class _Projected(JointTable):
    """A joint the structural projection multiplied out, with the
    conditional tables it is the product of.

    ``tables`` maps each family of the network, in declaration order, to
    its table with axes ``(parents..., child)``; ``probs`` is their
    product, divided by its total when the plain map renormalized it.
    Built by ``core._computed``, without validation.
    """

    tables: dict[str, np.ndarray]


class _Fitted(JointTable):
    """ipfp's fitted joint, with ``cpts``, the CPTs that the network's DAG
    reads off it (``extract_cpts``): the ones whose product its structural
    residual compares it with, and the ones ``run`` writes.  Built by
    ``core._computed``, without validation."""

    cpts: dict[str, Cpt]


def structural_projection(q: JointTable, net: NetworkSpec) -> JointTable:
    """Replace ``q`` with the product of the CPTs it induces on ``net``'s DAG.

    This is itself a proportional-fitting step whose target is the set of
    distributions factoring over the DAG; applying it at the end of each
    cycle is what turns plain fitting into the structure-preserving solver.
    The CPTs are read off ``q`` in one prefix walk (``core._conditionals``),
    and the result carries them, so e-ipfp's loop moves them and builds
    its output network from them without reading them off a joint again.
    """
    tables = _conditionals(q, net)
    return _computed(q.scope, _cpt_product(
        net.variables, tables, net.parents), _Projected, tables=tables)


def _prepared(net: NetworkSpec,
              constraints: Sequence[Constraint]) -> list[Constraint]:
    """``constraints`` as a list, each validated against ``net``."""
    constraints = list(constraints)
    for r in constraints:
        validate_constraint(net, r)
    return constraints


SQUAREM_JOINT_GATE = 1e-7
"""Plain-map joint step at or below which e-ipfp extrapolates.  Wider gates
take long steps while the map still sweeps along its continuum of fixed
points: at 1e-6 criterion-1 seed 9's divergence moved by 2.9e-3 relative,
at 1e-7 by 1.2e-5."""


def _union(net: NetworkSpec,
           constraints: Sequence[Constraint]) -> tuple[str, ...]:
    """The variables some constraint names, in declaration order."""
    named = {n for r in constraints for n in r.scope}
    return tuple(n for n in net.names if n in named)


def _stepped(table: JointTable,
             constraints: Sequence[Constraint]) -> JointTable:
    """``table`` after a proportional step per constraint, in list order."""
    for r in constraints:
        table = ipfp_step(table, r)
    return table


def _renormalized(probs: np.ndarray) -> np.ndarray:
    """``probs`` divided by its total, or ``probs`` itself when the total
    is exactly one."""
    total = float(probs.sum())
    if total == 1.0:
        return probs
    # Drift is a few ulp per cycle; correct it in the open.
    logger.debug("renormalizing, sum off by %.3e", total - 1.0)
    return probs / total


def _plain_map(q: JointTable, constraints: Sequence[Constraint],
               net: NetworkSpec, current: JointTable | None) -> _Projected:
    """One plain cycle of e-ipfp: a proportional step per constraint in
    list order, the structural projection, then renormalization.

    Every step's ratio lives on the union of the constraint scopes, so the
    steps run on ``current``, ``q``'s marginal over that union (summed here
    when not given), and ``q`` is rescaled once, by the ratio of the
    fitted marginal to ``current``, before it is projected.  When the
    union is every variable the fitted table is the joint itself and no
    rescale is needed."""
    union = _union(net, constraints)
    if current is None:
        current = marginalize(q, union)
    fitted = _stepped(current, constraints)
    if len(union) == len(q.scope):
        q = fitted
    else:
        q = _rescaled(q, _ratio(fitted.probs, current.probs, union), union)
    q = structural_projection(q, net)
    return _computed(q.scope, _renormalized(q.probs), _Projected,
                     tables=q.tables)


def _step(q: JointTable, previous: JointTable,
          weight: np.ndarray | None = None) -> float:
    """Max-abs cell change from ``previous`` to ``q``, each cell's change
    first multiplied by ``weight`` (see ``_barren_weight`` and
    ``_union_weight``) when given."""
    diff = q.probs - previous.probs
    np.abs(diff, out=diff)
    if weight is not None:
        diff *= weight
    return float(np.max(diff))


def _barren_weight(full: NetworkSpec,
                   kept: tuple[str, ...]) -> np.ndarray | None:
    """``M``, the step weight of a loop on the joint over ``kept``, or
    ``None`` when ``kept`` is every variable of ``full``.

    ``kept`` is ancestrally closed and in ``full``'s declaration order, so
    every other variable is barren: a cell of ``full``'s joint is the
    ``kept`` joint's cell times the product of the barren families' CPTs,
    which do not move.  The max-abs change of the full joint is therefore
    the max over the ``kept`` joint's cells of their change times ``M``,
    the largest value of that product over the barren variables' states,
    which depends only on the kept variables it names.  ``M`` is one
    max-product contraction of the barren CPTs onto those variables,
    returned placed on the axes of the ``kept`` joint.

    A max, unlike a sum, does not drop a barren variable's CPT, so the
    contraction eliminates every barren variable and its intermediates
    can be far larger than the ``kept`` joint; a plan whose largest
    product is over the dense ceiling raises ``DenseCeilingError``
    before anything is contracted.
    """
    inside = set(kept)
    barren = [n for n in full.names if n not in inside]
    if not barren:
        return None
    named = {p for n in barren for p in full.parents[n]}
    keep = tuple(n for n in kept if n in named)
    plan = plan_contraction([full.parents[n] + (n,) for n in barren], keep,
                            full.rank, full.cards)
    if plan.largest > 2 ** DENSE_CEILING:
        raise DenseCeilingError(
            f"its step weight M, a max-product over the {len(barren)} "
            f"other variables' CPTs, forms a table of "
            f"{_power_of_two(plan.largest)} cells, over the ceiling of "
            f"2^{DENSE_CEILING} cells")
    m = contract(plan, [full.cpts[n].table for n in barren], np.maximum)
    return _placed(m, [kept.index(n) for n in keep], len(kept))


def _union_weight(q0: JointTable, m0: JointTable) -> np.ndarray:
    """``M``, the step weight of ipfp's loop on ``m0``, the marginal of
    ``q0`` over some of its variables in ``q0``'s order: for each cell
    ``u`` of ``m0``, the largest ``q0(x) / m0(u)`` over the cells ``x`` of
    ``q0`` that extend it, or 0 where ``m0(u)`` is 0.

    The fitted joint is ``q0(x) f(u) / m0(u)`` for the marginal ``f`` the
    loop moves, so its max-abs change is the max over ``u`` of the change
    of ``f(u)`` times ``M(u)``, as with e-ipfp's ``_barren_weight``.  A
    divide by a positive number is monotone, so ``M`` is the max of ``q0``
    over the other variables, divided by ``m0``.
    """
    kept = set(m0.names)
    other = [i for i, n in enumerate(q0.names) if n not in kept]
    return _divided(_sum_out(q0.probs, other, np.maximum), m0.probs, 0.0)


def _iterate(stop: StopPolicy, constraints: Sequence[Constraint],
             cycle: Callable[[int], tuple[float, int]],
             measure: Callable[[], tuple[float, ...]], warning: str
             ) -> tuple[int, tuple[float, ...], Termination]:
    """The outer loop of every solver: returns the cycles charged, the
    final residuals and how the run ended.

    ``cycle(left)`` advances the solver's state once, with ``left`` of the
    budget unspent, and returns the step it made and the cycles to charge
    for it.  ``measure()`` returns the residuals of the current state; the
    loop calls it only when the stop test or the plateau rule reads them,
    and once at the end if the last cycle did not.  The run converges when
    the step and then the worst residual are within epsilon.  A cycle is
    flat once ``OSCILLATION_WINDOW`` steps have been seen and its step is
    within epsilon or has fallen by less than a tenth against the oldest
    of them.  The worst residuals of consecutive flat cycles are kept, and
    a full window of them that improved by less than one percent stops
    the run as oscillating, logging ``warning`` with the cycles, the step
    and the worst residual.  An empty constraint list converges after no
    cycle.
    """
    if not constraints:
        return 0, (), Termination.CONVERGED
    eps = stop.epsilon
    deltas: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    worsts: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    residuals: tuple[float, ...] | None = None
    cycles = 0
    while cycles < stop.max_cycles:
        delta, maps = cycle(stop.max_cycles - cycles)
        cycles += maps
        residuals = measure() if delta <= eps else None
        if residuals is not None and max(residuals) <= eps:
            return cycles, residuals, Termination.CONVERGED
        deltas.append(delta)
        # A step at or below epsilon is rounding noise once the state sits
        # at a fixed point, so its cycle is flat whatever its ratio.
        if len(deltas) < deltas.maxlen or eps < delta < 0.9 * deltas[0]:
            worsts.clear()
            continue
        residuals = residuals or measure()
        worsts.append(max(residuals))
        if len(worsts) == worsts.maxlen and worsts[-1] >= 0.99 * worsts[0]:
            logger.warning(warning, cycles, delta, worsts[-1])
            return cycles, residuals, Termination.OSCILLATING
    return cycles, residuals or measure(), Termination.MAX_CYCLES


def _union_loop(q0: JointTable, net: NetworkSpec,
                constraints: list[Constraint]
                ) -> tuple[Callable, Callable, Callable]:
    """ipfp's loop from ``q0``, ``net``'s joint.

    The state is ``f``, the fitted joint's marginal over the union of the
    constraint scopes, and a cycle is a proportional step per constraint
    on it, then renormalization.  Each step is weighted by ``M``
    (``_union_weight``), so the stop test reads the joint's step.
    ``result()`` rescales ``q0`` once, by ``f`` over ``m0``, the marginal
    it started from, and reads the CPTs off that joint once; it returns
    them with it as a ``_Fitted`` table.  The divergence is ``f``'s from
    ``m0``, which by the chain rule is the joint's from ``q0``.  When the
    union is every variable, or empty because there is no constraint,
    ``f`` is the joint itself.
    """
    union = _union(net, constraints)
    whole = len(union) in (0, len(q0.scope))
    f = m0 = q0 if whole else marginalize(q0, union)
    weight = None if whole else _union_weight(q0, m0)

    def cycle(left: int) -> tuple[float, int]:
        nonlocal f
        previous, f = f, _stepped(f, constraints)
        f = _computed(f.scope, _renormalized(f.probs))
        return _step(f, previous, weight), 1

    def measure() -> tuple[float, ...]:
        return tuple(constraint_residual(f, r) for r in constraints)

    def result() -> tuple[JointTable, float, float]:
        q = f if whole else _rescaled(
            q0, _ratio(f.probs, m0.probs, union), union)
        cpts, product = _reextracted_product(q, net)
        return (_computed(q.scope, q.probs, _Fitted, cpts=cpts),
                _kl(f.probs, f.probs, m0.probs), _max_gap(product, q.probs))

    return cycle, measure, result


def _projected_loop(q0: JointTable, net: NetworkSpec,
                    constraints: list[Constraint], full: NetworkSpec
                    ) -> tuple[Callable, Callable, Callable]:
    """e-ipfp's loop from ``q0``, the joint of ``net``, which is the
    ancestral sub-network of ``full``: plain maps (``_plain_map``) and
    SQUAREM extrapolations.  Every step is weighted by ``_barren_weight``,
    so the stop test reads ``full``'s joint step.  ``result()`` returns
    the last projected joint, which carries its tables, and no structural
    residual."""
    # M's table spans some of net's axes, so it is contracted only once
    # the joint has passed the ceiling check.
    weight = _barren_weight(full, net.names)
    layout = _Layout.of(net, net.names)
    union = _union(net, constraints)
    q, current, gate_open = q0, None, False

    def product(theta: np.ndarray) -> _Projected:
        """The dense product of the CPTs laid out in ``theta``."""
        tables = layout.tables(theta)
        return _computed(net.variables, _cpt_product(
            net.variables, tables, net.parents), _Projected, tables=tables)

    def cycle(left: int) -> tuple[float, int]:
        """One plain map of ``q``, or an extrapolation when the gate is
        open and its three maps fit in the ``left`` of the budget."""
        nonlocal q, current, gate_open
        # An extrapolation maps q twice, packing the CPTs each projected
        # joint carries before dropping it, then maps the product of the
        # candidate.  The gate opens only after a map, so q is projected.
        extrapolate = gate_open and left >= 3
        if extrapolate:
            theta0 = layout.pack(q.tables)
            q, current = _plain_map(q, constraints, net, current), None
            theta1 = layout.pack(q.tables)
        previous, q = q, _plain_map(q, constraints, net, current)
        current = None
        delta, maps = _step(q, previous, weight), 2 if extrapolate else 1
        del previous
        if extrapolate:
            theta2 = layout.pack(q.tables)
            candidate, _ = _squarem(theta0, theta1, theta2, layout.row)
            if candidate is not None:
                q = product(candidate)
                try:
                    previous, q = q, _plain_map(q, constraints, net, None)
                except DominanceError:
                    q = product(theta2)
                else:
                    delta, maps = _step(q, previous, weight), 3
                    del previous
        gate_open = delta <= SQUAREM_JOINT_GATE
        return delta, maps

    def measure() -> tuple[float, ...]:
        """The residuals of ``q``, read off its union marginal, which the
        next map then starts from."""
        nonlocal current
        current = marginalize(q, union)
        return tuple(constraint_residual(current, r) for r in constraints)

    def result() -> tuple[JointTable, float, None]:
        return q, i_divergence(q, q0), None

    return cycle, measure, result


def _run_dense(net: NetworkSpec, constraints: list[Constraint],
               stop: StopPolicy, structural: bool,
               full: NetworkSpec | None = None
               ) -> tuple[JointTable, RunReport]:
    """The dense loop on ``net``'s joint, for ``constraints`` validated
    against it: e-ipfp's (``_projected_loop``) when ``structural``, with
    ``full`` the network ``net`` is the ancestral sub-network of, and
    ipfp's (``_union_loop``) otherwise.

    Each loop is built from the joint as three closures: ``cycle`` and
    ``measure``, as ``_iterate`` takes them, and ``result()``, which
    returns the fitted table, its divergence from the joint and its
    structural residual."""
    t0 = time.perf_counter()
    q0 = joint_from_network(net)
    cycle, measure, result = (
        _projected_loop(q0, net, constraints, full) if structural
        else _union_loop(q0, net, constraints))
    cycles, residuals, termination = _iterate(
        stop, constraints, cycle, measure,
        "cycle %d: deltas plateaued near %.3e and max residual stuck "
        "near %.3e; constraints look contradictory, stopping as "
        "oscillating")
    q, divergence, gap = result()
    return q, RunReport(
        algorithm="e-ipfp" if structural else "ipfp",
        cycles=cycles,
        wall_time=time.perf_counter() - t0,
        final_divergence=divergence,
        per_constraint_residuals=residuals,
        structural_residual=gap,
        termination=termination,
    )


def run_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
             stop: StopPolicy | None = None) -> tuple[JointTable, RunReport]:
    """Fit ``net``'s joint to ``constraints`` by cycling proportional steps.

    The steps run on the joint's marginal over the variables some
    constraint names, and the joint is rescaled once, at the end (see the
    module docstring).  Returns the fitted joint table and a report.  On
    convergence the table is the I-projection of the starting joint onto
    the constraint set; it usually does not factor over the network's DAG
    any more, and the report's ``structural_residual`` says by how much.
    The table's ``cpts`` are the CPTs the DAG reads off it, as
    ``extract_cpts`` reads them.
    """
    return _run_dense(net, _prepared(net, constraints), stop or StopPolicy(),
                      structural=False)


def run_e_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy | None = None) -> tuple[NetworkSpec, RunReport]:
    """Structure-preserving fit: proportional steps plus a per-cycle
    re-extraction of CPTs, so the result is a network on the same DAG.

    The loop runs on the dense joint of An(U), the constrained variables
    and their ancestors, and weighs each joint step by ``M`` so that it
    stops as a loop on the full joint would (see the module docstring).
    That joint, not the full one, must fit under the dense ceiling, and
    so must the largest table ``M``'s contraction forms; either refusal
    raises ``DenseCeilingError`` before its table is allocated.

    Returns the refitted network and a report.  The CPTs of An(U) are the
    tables the final sub-joint carries, the ones it was multiplied out
    from, so the network's joint is the loop's last joint times the
    barren CPTs, up to renormalization; a parent row of An(U) without
    mass there is uniform, as ``extract_cpts`` would read it.  Every other
    family is the input's own ``Cpt``, rows without mass included.  An
    empty constraint set returns the input after 0 cycles, building no
    joint.  The network's joint meets every constraint within
    ``stop.epsilon`` when the report says ``CONVERGED``.
    """
    t0 = time.perf_counter()
    constraints = _prepared(net, constraints)
    if not constraints:
        return net, RunReport("e-ipfp", 0, time.perf_counter() - t0, 0.0, (),
                              None, Termination.CONVERGED)
    kept = _ancestral(net.parents, _union(net, constraints), net.rank)
    sub = _sub_network(net, kept)
    try:
        q, report = _run_dense(sub, constraints, stop or StopPolicy(),
                               structural=True, full=net)
    except DenseCeilingError as e:
        raise DenseCeilingError(
            f"e-ipfp fits the joint of the constrained variables and their "
            f"ancestors, {len(kept)} of the {len(net.names)} variables: "
            f"{e}") from None
    report.wall_time = time.perf_counter() - t0
    return NetworkSpec(net.variables, net.parents, {
        name: Cpt(name, net.parents[name], q.tables[name]) if name in kept
        else net.cpts[name] for name in net.names}), report
