"""
A non-local constraint on the diamond network.

The network is a diamond:

    A -> B, A -> C, B -> D, C -> D

and the constraint pins the joint marginal of (A, D), two variables with
no edge between them.  This is where the three algorithms separate:

- ipfp satisfies the constraint but its fitted joint no longer factors
  over the DAG; rebuilding a network from it changes the distribution.
- e-ipfp satisfies the constraint and stays a network, at the price of
  a larger move away from the prior.
- d-ipfp also stays a network and touches only the CPTs of A and D, at
  the price of a still larger move.

The divergence ordering ipfp <= e-ipfp <= d-ipfp holds here, and for the
optima it is no accident: each algorithm's feasible set lies inside the
one before it.  The solvers' outputs are only partly bound by it.  ipfp's
converged I-projection is below both others on every instance, but
e-ipfp and d-ipfp each stop on one of a continuum of fixed points, so on
other instances d-ipfp can land slightly below e-ipfp.
"""

import numpy as np

from bnrefit import (
    Constraint,
    constraint_residual,
    is_structurally_consistent,
    joint_from_network,
    run_d_ipfp,
    run_e_ipfp,
    run_ipfp,
)
from bnrefit.fileio import parse_network

DIAMOND = b"""{
  "format_version": 1,
  "variables": [
    {"name": "A", "cardinality": 2, "parents": [], "cpt": [0.6, 0.4]},
    {"name": "B", "cardinality": 2, "parents": ["A"],
     "cpt": [0.3, 0.7, 0.7, 0.3]},
    {"name": "C", "cardinality": 2, "parents": ["A"],
     "cpt": [0.5, 0.5, 0.3, 0.7]},
    {"name": "D", "cardinality": 2, "parents": ["B", "C"],
     "cpt": [0.5, 0.5, 0.7, 0.3, 0.4, 0.6, 0.9, 0.1]}
  ]
}"""


def main():
    net = parse_network(DIAMOND)
    r = Constraint.over(net, ("A", "D"),
                        [[0.4686, 0.1314], [0.2132, 0.1868]])
    print("constraint on (A, D):")
    print(r.dist.probs)

    q, rep_p = run_ipfp(net, [r])
    print(f"\nipfp:   converged in {rep_p.cycles} cycles, "
          f"divergence {rep_p.final_divergence:.6f}")
    print("  residual:", f"{constraint_residual(q, r):.2e}")
    print("  still a network over the diamond:",
          is_structurally_consistent(q, net))
    print("  structural residual:", f"{rep_p.structural_residual:.4f}")

    net_e, rep_e = run_e_ipfp(net, [r])
    q_e = joint_from_network(net_e)
    print(f"\ne-ipfp: converged in {rep_e.cycles} cycles, "
          f"divergence {rep_e.final_divergence:.6f}")
    print("  residual:", f"{constraint_residual(q_e, r):.2e}")
    print("  still a network over the diamond:",
          is_structurally_consistent(q_e, net))

    net_d, rep_d = run_d_ipfp(net, [r])
    q_d = joint_from_network(net_d)
    print(f"\nd-ipfp: converged in {rep_d.cycles} cycles, "
          f"divergence {rep_d.final_divergence:.6f}")
    print("  residual:", f"{constraint_residual(q_d, r):.2e}")
    print("  still a network over the diamond:",
          is_structurally_consistent(q_d, net))
    print("  CPTs touched:",
          [n for n in net.names
           if not np.array_equal(net_d.cpts[n].table, net.cpts[n].table)])

    print("\ndivergence ordering: "
          f"{rep_p.final_divergence:.4f} <= {rep_e.final_divergence:.4f} "
          f"<= {rep_d.final_divergence:.4f}")


if __name__ == "__main__":
    main()
