"""Dense-table solvers.

``run_ipfp`` is plain iterative proportional fitting on the explicit joint:
each step rescales the table so one constraint's marginal is met exactly,
and cycling the steps converges to the I-projection of the starting joint
onto the constraint set.  The fitted table generally no longer factors over
the network's DAG.  ``run_e_ipfp`` restores that factorization once per
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
stays on the full joint.

One plain cycle is a map on the joint: a proportional step per
constraint, in list order, then (for e-ipfp) the structural projection,
then renormalization.  Every step's ratio depends only on the variables
some constraint names, so the steps run on the joint's marginal over the
union of the constraint scopes (in declaration order), and the joint is
then rescaled once, by the fitted marginal over the one it started from
(Jirousek & Preucil 1995, Comput. Stat. Data Anal. 19).  A map thus sums
the joint down to the union once and multiplies it once, and the
residuals after it are read off that union marginal of its result, which
the next map starts from.  When the union is every variable the fitted
table is the joint itself and no rescale is needed.

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
The gate stays open once the step is at or below epsilon, because the
residuals lag behind it.  The map's fixed points form a continuum, and
long steps taken early land elsewhere on it, so the gate is narrow:
extrapolation only does the final approach.  ``ipfp`` never
extrapolates.

Every run's ``cycles`` counts plain maps, an extrapolation's two or three
included, so ``max_cycles`` bounds the work; an extrapolation starts only
when all three of its maps fit in what is left of the budget.  The stop
test and the oscillation window read the step of the last plain map only,
never the jump of an extrapolation, and run before any extrapolation, so
a set that the input already meets ends after one cycle.

Both solvers detect three outcomes: convergence (all residuals and the
cycle-to-cycle change within epsilon), a cycle budget running out, and
oscillation.  Contradictory constraints make the table orbit instead of
settle; the oscillation heuristic watches a window of recent cycle deltas
and worst residuals and fires only when both have stopped improving while
the residuals are still above epsilon.  A plateau in the deltas alone is
not enough: slowly converging runs can crawl for stretches, but their
residuals keep shrinking, whereas a genuine orbit's residuals do not.
The event is logged, never silent.
"""

from __future__ import annotations

import enum
import logging
import math
import operator
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

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
    VariableDecl,
    _BLOCK,
    _Layout,
    _block_shape,
    _blocked,
    _computed,
    _conditionals,
    _cpt_product,
    _max_gap,
    _placed,
    _power_of_two,
    _project,
    _ratio,
    _reextracted_product,
    _squarem,
    _sub_network,
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
"""How many recent cycles the plateau detectors look at; a run is declared
oscillating only when, over a full window, the newest delta fails to fall
below 0.9 times the oldest and the worst residual has also improved by
less than one percent.  d-ipfp also counts a delta at or below epsilon as
a plateau."""


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
    computes it on the dense joints, ``e-ipfp`` on the dense joints of
    the constrained variables and their ancestors, which by the chain
    rule gives the same value, and ``d-ipfp`` from the families it
    edited.  ``structural_residual`` is the max-abs gap between
    the final joint and the product of its extracted CPTs; only ``ipfp``,
    whose fitted joint need not factor, reports it.  It is ``None`` for
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
    Built by ``of`` through ``core._computed``, without validation.
    """

    tables: dict[str, np.ndarray]

    @staticmethod
    def of(scope: tuple[VariableDecl, ...], probs: np.ndarray,
           tables: dict[str, np.ndarray]) -> "_Projected":
        q = _computed(scope, probs, _Projected)
        object.__setattr__(q, "tables", tables)
        return q


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
    return _Projected.of(q.scope, _cpt_product(
        net.variables, tables, net.parents), tables)


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


def _plain_map(q: JointTable, constraints: Sequence[Constraint],
               net: NetworkSpec, structural: bool,
               current: JointTable | None) -> JointTable:
    """One plain cycle: a proportional step per constraint in list order,
    the structural projection when ``structural``, then renormalization.

    Every step's ratio lives on the union of the constraint scopes, so the
    steps run on ``current``, ``q``'s marginal over that union (summed here
    when not given), and ``q`` is rescaled once, by the ratio of the
    fitted marginal to ``current``.  When the union is every variable the
    fitted table is the joint itself and no rescale is needed."""
    union = _union(net, constraints)
    if current is None:
        current = marginalize(q, union)
    fitted = current
    for r in constraints:
        fitted = ipfp_step(fitted, r)
    if len(union) == len(q.scope):
        q = fitted
    else:
        q = _rescaled(q, _ratio(fitted.probs, current.probs, union), union)
    if structural:
        q = structural_projection(q, net)
    total = float(q.probs.sum())
    if total != 1.0:
        # Drift is a few ulp per cycle; correct it in the open.
        logger.debug("renormalizing, sum off by %.3e", total - 1.0)
        probs = q.probs / total
        q = (_Projected.of(q.scope, probs, q.tables) if structural
             else _computed(q.scope, probs))
    return q


def _step(q: JointTable, previous: JointTable,
          weight: np.ndarray | None = None) -> float:
    """Max-abs cell change from ``previous`` to ``q``, each cell's change
    first multiplied by ``weight`` (see ``_barren_weight``) when given."""
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


def _run_dense(net: NetworkSpec, constraints: list[Constraint],
               stop: StopPolicy, structural: bool,
               full: NetworkSpec | None = None
               ) -> tuple[JointTable, RunReport]:
    """The dense loop on ``net``'s joint, for ``constraints`` validated
    against it.  ``full``, when given, is the network ``net`` is the
    ancestral sub-network of: every step is then weighted by
    ``_barren_weight``, so the stop test reads ``full``'s joint step."""
    t0 = time.perf_counter()
    q0 = q = joint_from_network(net)
    # M's table spans some of net's axes, so it is contracted only once
    # the joint has passed the ceiling check.
    weight = None if full is None else _barren_weight(full, net.names)
    layout = _Layout.of(net, net.names) if structural else None

    def product(theta: np.ndarray) -> _Projected:
        """The dense product of the CPTs laid out in ``theta``."""
        tables = layout.tables(theta)
        return _Projected.of(net.variables, _cpt_product(
            net.variables, tables, net.parents), tables)

    eps = stop.epsilon
    deltas: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    worsts: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    termination = Termination.MAX_CYCLES if constraints else Termination.CONVERGED
    budget = stop.max_cycles if constraints else 0
    residuals: tuple[float, ...] = ()
    cycles = 0
    gate_open = False
    union = _union(net, constraints)
    current = None

    while cycles < budget:
        # An extrapolation maps q twice, packing the CPTs each projected
        # joint carries before dropping it, then maps the product of the
        # candidate.  The gate opens only after a map, so q is projected.
        extrapolate = gate_open and cycles + 3 <= budget
        if extrapolate:
            theta0 = layout.pack(q.tables)
            q = _plain_map(q, constraints, net, True, current)
            theta1 = layout.pack(q.tables)
            current = None
        previous, q = q, _plain_map(q, constraints, net, structural, current)
        delta, maps = _step(q, previous, weight), 2 if extrapolate else 1
        del previous
        if extrapolate:
            theta2 = layout.pack(q.tables)
            candidate, _ = _squarem(theta0, theta1, theta2, layout.row)
            if candidate is not None:
                q = product(candidate)
                try:
                    previous, q = q, _plain_map(q, constraints, net, True,
                                                None)
                except DominanceError:
                    q = product(theta2)
                else:
                    delta, maps = _step(q, previous, weight), 3
                    del previous
        cycles += maps

        current = marginalize(q, union)
        residuals = tuple(constraint_residual(current, r) for r in constraints)
        worst = max(residuals)
        if worst <= eps and delta <= eps:
            termination = Termination.CONVERGED
            break
        deltas.append(delta)
        worsts.append(worst)
        if (len(deltas) == deltas.maxlen
                and deltas[-1] >= 0.9 * deltas[0]
                and worsts[-1] >= 0.99 * worsts[0]):
            logger.warning(
                "cycle %d: deltas plateaued near %.3e and max residual stuck "
                "near %.3e; constraints look contradictory, stopping as "
                "oscillating",
                cycles, delta, worst,
            )
            termination = Termination.OSCILLATING
            break
        gate_open = structural and delta <= SQUAREM_JOINT_GATE

    report = RunReport(
        algorithm="e-ipfp" if structural else "ipfp",
        cycles=cycles,
        wall_time=time.perf_counter() - t0,
        final_divergence=i_divergence(q, q0),
        per_constraint_residuals=residuals,
        structural_residual=None if structural else _max_gap(
            _reextracted_product(q, net), q.probs),
        termination=termination,
    )
    return q, report


def run_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
             stop: StopPolicy | None = None) -> tuple[JointTable, RunReport]:
    """Fit ``net``'s joint to ``constraints`` by cycling proportional steps.

    Returns the fitted joint table and a report.  On convergence the table
    is the I-projection of the starting joint onto the constraint set; it
    usually does not factor over the network's DAG any more, and the
    report's ``structural_residual`` says by how much.
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
