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
import math
import operator
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
    _block_shape,
    _blocked,
    _computed,
    _conditionals,
    _cpt_product,
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


OSCILLATION_WINDOW = 20
"""How many recent cycles the plateau detectors look at; a run is declared
oscillating only when, over a full window, the newest delta fails to fall
below 0.9 times the oldest and the worst residual has also improved by
less than one percent."""


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

    ``final_divergence`` is the I-divergence of the result from the input
    network's joint, in natural log; ``ipfp``
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


def ipfp_step(q: JointTable, r: Constraint) -> JointTable:
    """One proportional-fitting step: after it, ``q``'s marginal over
    ``r.scope`` equals ``r.dist`` exactly (up to rounding).

    Cells where the current marginal and the target are both zero stay
    zero.  A target that is positive where the marginal is zero raises
    ``DominanceError`` naming the cell (see ``core._ratio``).
    """
    ratio = _ratio(r.dist.probs, marginalize(q, r.scope).probs, r.scope)
    axes = [q.axis(n) for n in r.scope]
    shape = q.probs.shape
    return _computed(q.scope, np.multiply(
        q.probs.reshape(_block_shape(shape)),
        _blocked(ratio, axes, shape)).reshape(shape))


def structural_projection(q: JointTable, net: NetworkSpec) -> JointTable:
    """Replace ``q`` with the product of the CPTs it induces on ``net``'s DAG.

    This is itself a proportional-fitting step whose target is the set of
    distributions factoring over the DAG; applying it at the end of each
    cycle is what turns plain fitting into the structure-preserving solver.
    """
    return _computed(q.scope, _cpt_product(
        net.variables, _conditionals(q, net), net.parents))


def _prepared(net: NetworkSpec,
              constraints: Sequence[Constraint]) -> list[Constraint]:
    """``constraints`` as a list, each validated against ``net``."""
    constraints = list(constraints)
    for r in constraints:
        validate_constraint(net, r)
    return constraints


def _run_dense(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy, structural: bool,
               algorithm: str) -> tuple[JointTable, RunReport]:
    t0 = time.perf_counter()
    constraints = _prepared(net, constraints)
    q0 = q = joint_from_network(net)
    eps = stop.epsilon
    deltas: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    worsts: deque[float] = deque(maxlen=OSCILLATION_WINDOW)
    termination = Termination.MAX_CYCLES if constraints else Termination.CONVERGED
    cycles = stop.max_cycles if constraints else 0
    residuals: tuple[float, ...] = ()

    for cycle in range(1, cycles + 1):
        previous = q.probs
        for r in constraints:
            q = ipfp_step(q, r)
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
             stop: StopPolicy | None = None) -> tuple[JointTable, RunReport]:
    """Fit ``net``'s joint to ``constraints`` by cycling proportional steps.

    Returns the fitted joint table and a report.  On convergence the table
    is the I-projection of the starting joint onto the constraint set; it
    usually does not factor over the network's DAG any more, and the
    report's ``structural_residual`` says by how much.
    """
    return _run_dense(net, constraints, stop or StopPolicy(),
                      structural=False, algorithm="ipfp")


def run_e_ipfp(net: NetworkSpec, constraints: Sequence[Constraint],
               stop: StopPolicy | None = None) -> tuple[NetworkSpec, RunReport]:
    """Structure-preserving fit: proportional steps plus a per-cycle
    re-extraction of CPTs, so the result is a network on the same DAG.

    Returns the refitted network and a report.  The network's joint meets
    every constraint within ``stop.epsilon`` when the report says
    ``CONVERGED``.
    """
    q, report = _run_dense(net, constraints, stop or StopPolicy(),
                           structural=True, algorithm="e-ipfp")
    if report.cycles == 0:
        return net, report
    return NetworkSpec(net.variables, net.parents, extract_cpts(q, net)), report
