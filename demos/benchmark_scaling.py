"""
Where the decomposed algorithm earns its keep.

e-ipfp touches a dense joint every cycle, over the constrained variables
and all their ancestors (the other families are barren and keep their
CPTs), so its cost doubles with each variable in that set; on these
instances that is 8 to 12 of the n.  d-ipfp only ever materializes the
subnet of each constraint, so its cost tracks the constraint scopes and
barely notices n.

This script generates one instance per size (same recipe as `bnrefit
gen`: binary variables, mixed local and non-local constraints whose
targets are exact marginals of a perturbed twin, so every instance is
satisfiable), solves it with both algorithms, and prints the wall times
side by side.  Past n = 25 the full joint is refused outright, and the
last instance is timed with d-ipfp only; its report still carries the
divergence, summed over the families it edited.

A stiff pair constraint may log that its inner loop hit the iteration
cap; that is expected, the next outer cycle revisits and converges it.
"""

import numpy as np

from bnrefit import Termination, run_d_ipfp, run_e_ipfp
from bnrefit.generate import generate_instance


def main():
    print(f"{'n':>4} {'m':>3} {'e-ipfp':>10} {'d-ipfp':>10} "
          f"{'ratio':>7}  termination")
    for n in (10, 12, 14, 16, 18):
        net, constraints = generate_instance(0, n_nodes=n,
                                             num_constraints=6)
        _, rep_e = run_e_ipfp(net, constraints)
        _, rep_d = run_d_ipfp(net, constraints)
        ratio = rep_e.wall_time / max(rep_d.wall_time, 1e-9)
        print(f"{n:>4} {len(constraints):>3} "
              f"{rep_e.wall_time:>9.3f}s {rep_d.wall_time:>9.3f}s "
              f"{ratio:>6.1f}x  {rep_e.termination.value}/"
              f"{rep_d.termination.value}")

    # Past the dense ceiling of the full joint, d-ipfp alone.
    net, constraints = generate_instance(2, n_nodes=30, num_constraints=6)
    _, rep = run_d_ipfp(net, constraints)
    assert rep.termination is Termination.CONVERGED
    worst = max(rep.per_constraint_residuals)
    print(f"\n  30 {len(constraints):>3} {'-':>10} "
          f"{rep.wall_time:>9.3f}s      -  {rep.termination.value}")
    print(f"\nat n=30 the report carries residuals (worst {worst:.1e}) "
          f"and the divergence {rep.final_divergence:.6g}")


if __name__ == "__main__":
    main()
