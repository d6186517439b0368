"""Termination table: how each solver ends on sets a twin perturbed in
every CPT supplies (``nets.every_cpt_instance``).

Every set here is met by a network on the input's DAG, yet d-ipfp, which
edits only the CPTs the constraints name, ends oscillating on the even
seeds: their sets are out of its local reach.  The rows are today's
outcomes, recorded as they are; a change that moves one states it.
Each set is also solved on its network declared children first, which
changes how the dense product orders each cell's factors but not the
problem, so the rows must not move.
"""

import pytest

import nets
from bnrefit import NetworkSpec, Termination, run_d_ipfp, run_e_ipfp, run_ipfp

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
