"""Dense-table solvers.

``run_ipfp`` is plain iterative proportional fitting on the explicit joint:
each step rescales the table so one constraint's marginal is met exactly,
and cycling the steps converges to the I-projection of the starting joint
onto the constraint set.  The fitted table generally no longer factors over
the network's DAG.  ``run_e_ipfp`` restores that factorization once per
cycle by re-extracting CPTs from the working table and replacing it with
their product, so its answer is again a network with the original
structure.

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
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Constraint,
    JointTable,
    NetworkSpec,
    ValidationError,
    _computed,
    _conditionals,
    _cpt_product,
    _placed,
    _ratio,
    _reextracted_product,
    constraint_residual,
    extract_cpts,
    i_divergence,
    joint_from_network,
    marginalize,
    validate_constraint,
)
# Unused here; perfbench/tracer.py wraps this name in this module.
from .core import extract_cpt

logger = logging.getLogger("bnrefit")


class Termination(enum.Enum):
    """How a solver run ended."""

    CONVERGED = "converged"
    MAX_CYCLES = "max-cycles"
    OSCILLATING = "oscillating"


@dataclass(frozen=True)
class StopPolicy:
    """Termination tuning shared by the solvers.

    ``epsilon`` bounds both constraint residuals and the cycle-to-cycle
    table change at convergence.  ``oscillation_window`` is how many recent
    cycles the plateau detector looks at; a run is declared oscillating
    only when, over a full window, the newest delta fails to fall below
    0.9 times the oldest and the worst residual has also improved by less
    than one percent.
    """

    epsilon: float = 1e-9
    max_cycles: int = 10_000
    oscillation_window: int = 20

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_cycles < 1:
            raise ValidationError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.oscillation_window < 2:
            raise ValidationError(
                f"oscillation_window must be >= 2, got {self.oscillation_window}"
            )


@dataclass(frozen=True)
class Schedule:
    """Constraint visiting order within one cycle.

    ``order`` is a permutation of constraint indices.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(len(self.order))):
            raise ValidationError(
                f"schedule order {self.order} is not a permutation of "
                f"0..{len(self.order) - 1}"
            )

    @staticmethod
    def document_order(count: int) -> "Schedule":
        return Schedule(tuple(range(count)))

    @staticmethod
    def ancestors_first(net: NetworkSpec,
                        constraints: Sequence[Constraint]) -> "Schedule":
        """Visit constraints whose scopes sit higher in the DAG first.

        Scopes are ordered by the topological depth of their deepest
        member, the variable whose CPT region absorbs the constraint, so
        upstream constraints are applied before the downstream fits that
        must account for them.  Ties fall back to shallowest member, then
        to position in the input list, keeping the order deterministic.
        """

        def key(i: int):
            depths = [net.topo_depth(v) for v in constraints[i].scope]
            return (max(depths), min(depths), i)

        return Schedule(tuple(sorted(range(len(constraints)), key=key)))


@dataclass
class RunReport:
    """What a solver run did and how it ended.

    ``final_divergence`` is the I-divergence of the result from the input
    network's joint, in natural log (``log_base`` records this); ``ipfp``
    and ``e-ipfp`` compute it on the dense joints, ``d-ipfp`` from the
    families it edited.  ``structural_residual`` is the max-abs gap between
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
    log_base: str = "e"


def ipfp_step(q: JointTable, r: Constraint) -> JointTable:
    """One proportional-fitting step: after it, ``q``'s marginal over
    ``r.scope`` equals ``r.dist`` exactly (up to rounding).

    Cells where the current marginal and the target are both zero stay
    zero.  A target that is positive where the marginal is zero raises
    ``DominanceError`` naming the cell (see ``core._ratio``).
    """
    ratio = _ratio(r.dist.probs, marginalize(q, r.scope).probs, r.scope)
    axes = [q.axis(n) for n in r.scope]
    return _computed(q.scope, q.probs * _placed(ratio, axes, q.probs.ndim))


def structural_projection(q: JointTable, net: NetworkSpec) -> JointTable:
    """Replace ``q`` with the product of the CPTs it induces on ``net``'s DAG.

    This is itself a proportional-fitting step whose target is the set of
    distributions factoring over the DAG; applying it at the end of each
    cycle is what turns plain fitting into the structure-preserving solver.
    """
    return _computed(q.scope, _cpt_product(
        net.variables, _conditionals(q, net), net.parents))


def _prepared(net: NetworkSpec, constraints: Sequence[Constraint],
              schedule: Schedule | None) -> tuple[list[Constraint], Schedule]:
    """``constraints`` as a validated list, and ``schedule``, which defaults
    to document order and must cover every constraint."""
    constraints = list(constraints)
    for r in constraints:
        validate_constraint(net, r)
    if schedule is None:
        schedule = Schedule.document_order(len(constraints))
    if len(schedule.order) != len(constraints):
        raise ValidationError(
            f"schedule covers {len(schedule.order)} constraints, got "
            f"{len(constraints)}"
        )
    return constraints, schedule


def _run_dense(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy, schedule: Schedule | None,
               structural: bool, algorithm: str) -> tuple[JointTable, RunReport]:
    t0 = time.perf_counter()
    constraints, schedule = _prepared(net, constraints, schedule)
    q0 = q = joint_from_network(net)
    eps = stop.epsilon
    deltas: deque[float] = deque(maxlen=stop.oscillation_window)
    worsts: deque[float] = deque(maxlen=stop.oscillation_window)
    termination = Termination.MAX_CYCLES if constraints else Termination.CONVERGED
    cycles = stop.max_cycles if constraints else 0
    residuals: tuple[float, ...] = ()

    for cycle in range(1, cycles + 1):
        previous = q.probs
        for i in schedule.order:
            q = ipfp_step(q, constraints[i])
        if structural:
            q = structural_projection(q, net)
        total = float(q.probs.sum())
        if total != 1.0:
            # Drift is a few ulp per cycle; correct it in the open.
            logger.debug("cycle %d: renormalizing, sum off by %.3e",
                         cycle, total - 1.0)
            q = _computed(q.scope, q.probs / total)

        delta = float(np.max(np.abs(q.probs - previous)))
        residuals = tuple(constraint_residual(q, r) for r in constraints)
        worst = max(residuals)
        if worst <= eps and delta <= eps:
            termination = Termination.CONVERGED
            cycles = cycle
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
                cycle, delta, worst,
            )
            termination = Termination.OSCILLATING
            cycles = cycle
            break

    report = RunReport(
        algorithm=algorithm,
        cycles=cycles,
        wall_time=time.perf_counter() - t0,
        final_divergence=i_divergence(q, q0),
        per_constraint_residuals=residuals,
        structural_residual=None if structural else float(
            np.max(np.abs(q.probs - _reextracted_product(q, net)))),
        termination=termination,
    )
    return q, report


def run_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
             stop: StopPolicy | None = None,
             schedule: Schedule | None = None) -> tuple[JointTable, RunReport]:
    """Fit ``net``'s joint to ``constraints`` by cycling proportional steps.

    Returns the fitted joint table and a report.  On convergence the table
    is the I-projection of the starting joint onto the constraint set; it
    usually does not factor over the network's DAG any more, and the
    report's ``structural_residual`` says by how much.
    """
    return _run_dense(net, constraints, stop or StopPolicy(), schedule,
                      structural=False, algorithm="ipfp")


def run_e_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy | None = None,
               schedule: Schedule | None = None) -> tuple[NetworkSpec, RunReport]:
    """Structure-preserving fit: proportional steps plus a per-cycle
    re-extraction of CPTs, so the result is a network on the same DAG.

    Returns the refitted network and a report.  The network's joint meets
    every constraint within ``stop.epsilon`` when the report says
    ``CONVERGED``.
    """
    q, report = _run_dense(net, constraints, stop or StopPolicy(), schedule,
                           structural=True, algorithm="e-ipfp")
    if report.cycles == 0:
        return net, report
    return NetworkSpec(net.variables, net.parents, extract_cpts(q, net)), report
