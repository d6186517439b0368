"""Termination table: how each solver ends on sets a twin perturbed in
every CPT supplies (``nets.every_cpt_instance``).

Every set here is met by a network on the input's DAG, yet d-ipfp, which
edits only the CPTs the constraints name, ends oscillating on the even
seeds: their sets are out of its local reach.  The rows are today's
outcomes, recorded as they are; a change that moves one states it.
"""

import pytest

import nets
from bnrefit import Termination, run_d_ipfp, run_e_ipfp, run_ipfp

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
    got = []
    for solve in (run_d_ipfp, run_e_ipfp, run_ipfp):
        _, report = solve(net, constraints)
        got.append((report.termination, report.cycles))
    assert tuple(got) == TABLE[seed]
