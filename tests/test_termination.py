"""Termination table: how each solver ends on sets a twin perturbed in
every CPT supplies (``nets.every_cpt_instance``).

Every set here is met by a network on the input's DAG, yet d-ipfp, which
edits only the CPTs the constraints name, ends oscillating on the even
seeds: their sets are out of its local reach.  The rows are today's
outcomes, recorded as they are; a change that moves one states it.
Each set is also solved on its network declared children first, which
changes how the dense product orders each cell's factors but not the
problem, so the rows must not move.

The non-binary rows (8 variables, 4 constraints, 3 or 4 states each) are
pinned for the topological declaration only: there the children-first
re-solve moves some of them (at 4 states, seed 2's d-ipfp takes 8 cycles
instead of 5, and e-ipfp 445 maps instead of 478).  e-ipfp's oscillation
at 4 states on seed 4, a set a network on the same DAG meets, is a stop on
a crawl the plateau rule cannot tell from an orbit, not proof that the
constraints contradict each other.

The contradictory rows add a perturbed copy of each set's first non-local
constraint (``nets.contradictory_variant``), so no network meets the set,
and pin how soon the dense solvers say so.  All three solvers share one
plateau rule (``dense._iterate``); d-ipfp stays out of these rows because
it crawls on some of them for seconds.
"""

import pytest

import nets
from bnrefit import (NetworkSpec, NonLocal, Termination, classify_scope,
                     run_d_ipfp, run_e_ipfp, run_ipfp)

CONVERGED, OSCILLATING = Termination.CONVERGED, Termination.OSCILLATING

# seed: (d-ipfp, e-ipfp, ipfp), each (termination, cycles)
TABLE = {
    0: ((OSCILLATING, 39), (CONVERGED, 143), (CONVERGED, 14)),
    1: ((CONVERGED, 3), (CONVERGED, 21), (CONVERGED, 8)),
    2: ((OSCILLATING, 39), (CONVERGED, 87), (CONVERGED, 4)),
    3: ((CONVERGED, 3), (CONVERGED, 108), (CONVERGED, 4)),
    4: ((OSCILLATING, 39), (CONVERGED, 98), (CONVERGED, 10)),
    5: ((CONVERGED, 3), (CONVERGED, 70), (CONVERGED, 4)),
    6: ((OSCILLATING, 39), (CONVERGED, 27), (CONVERGED, 4)),
    7: ((CONVERGED, 3), (CONVERGED, 31), (CONVERGED, 4)),
    8: ((OSCILLATING, 39), (CONVERGED, 78), (CONVERGED, 4)),
    9: ((CONVERGED, 3), (CONVERGED, 131), (CONVERGED, 13)),
}


@pytest.mark.parametrize("seed", sorted(TABLE))
def test_termination_table(seed):
    net, constraints = nets.every_cpt_instance(seed)
    reverse = NetworkSpec(net.variables[::-1], net.parents, net.cpts)
    got = []
    for solve in (run_d_ipfp, run_e_ipfp, run_ipfp):
        _, report = solve(net, constraints)
        _, children_first = solve(reverse, constraints)
        got.append((report.termination, report.cycles))
        assert (children_first.termination, children_first.cycles) == got[-1]
        assert children_first.final_divergence == pytest.approx(
            report.final_divergence, rel=1e-9, abs=0.0)
    assert tuple(got) == TABLE[seed]


# cardinality: {seed: (d-ipfp, e-ipfp, ipfp)} at n=8 with 4 constraints.
# Seed 9 at 4 states stays out: there d-ipfp runs 453 cycles, about 6 s,
# to end oscillating ((OSCILLATING, 453), (OSCILLATING, 184),
# (CONVERGED, 2)); e-ipfp's stop there is a crawl, not an orbit.
NON_BINARY = {
    3: {
        0: ((OSCILLATING, 39), (CONVERGED, 91), (CONVERGED, 5)),
        1: ((CONVERGED, 3), (CONVERGED, 82), (CONVERGED, 4)),
        2: ((OSCILLATING, 39), (CONVERGED, 340), (CONVERGED, 6)),
        3: ((CONVERGED, 3), (CONVERGED, 102), (CONVERGED, 7)),
        4: ((CONVERGED, 3), (CONVERGED, 639), (CONVERGED, 7)),
        5: ((OSCILLATING, 39), (CONVERGED, 73), (CONVERGED, 11)),
        6: ((CONVERGED, 3), (CONVERGED, 89), (CONVERGED, 7)),
        7: ((OSCILLATING, 39), (CONVERGED, 69), (CONVERGED, 7)),
        8: ((OSCILLATING, 39), (CONVERGED, 94), (CONVERGED, 8)),
        9: ((CONVERGED, 3), (CONVERGED, 39), (CONVERGED, 12)),
    },
    4: {
        0: ((CONVERGED, 3), (CONVERGED, 93), (CONVERGED, 5)),
        1: ((CONVERGED, 3), (CONVERGED, 99), (CONVERGED, 9)),
        2: ((CONVERGED, 5), (CONVERGED, 478), (CONVERGED, 5)),
        3: ((CONVERGED, 3), (CONVERGED, 218), (CONVERGED, 8)),
        4: ((OSCILLATING, 39), (OSCILLATING, 315), (CONVERGED, 2)),
        5: ((CONVERGED, 3), (CONVERGED, 101), (CONVERGED, 5)),
        6: ((CONVERGED, 3), (CONVERGED, 283), (CONVERGED, 7)),
        7: ((CONVERGED, 3), (CONVERGED, 41), (CONVERGED, 7)),
        8: ((CONVERGED, 14), (CONVERGED, 256), (CONVERGED, 7)),
    },
}


@pytest.mark.parametrize("cardinality, seed", [
    (c, seed) for c, rows in sorted(NON_BINARY.items()) for seed in sorted(rows)])
def test_non_binary_termination_table(cardinality, seed):
    net, constraints = nets.every_cpt_instance(seed, n_nodes=8,
                                               num_constraints=4,
                                               cardinality=cardinality)
    got = tuple((report.termination, report.cycles)
                for _, report in (solve(net, constraints)
                                  for solve in (run_d_ipfp, run_e_ipfp,
                                                run_ipfp)))
    assert got == NON_BINARY[cardinality][seed]


# seed: the maps after which e-ipfp stops oscillating on
# every_cpt_instance(seed) plus a perturbed copy of its first non-local
# constraint; ipfp stops oscillating after 39 on every seed.
CONTRADICTORY = {0: 138, 1: 86, 2: 103, 3: 117, 4: 119, 5: 109, 6: 88,
                 7: 90, 8: 225, 9: 117}


@pytest.mark.parametrize("seed", sorted(CONTRADICTORY))
def test_contradictory_variants_oscillate(seed):
    net, constraints = nets.every_cpt_instance(seed)
    scope = next(r.scope for r in constraints
                 if isinstance(classify_scope(net, r.scope), NonLocal))
    contradictory = nets.contradictory_variant(constraints, scope, seed)
    got = tuple((report.termination, report.cycles)
                for _, report in (solve(net, contradictory)
                                  for solve in (run_e_ipfp, run_ipfp)))
    assert got == ((OSCILLATING, CONTRADICTORY[seed]), (OSCILLATING, 39))
