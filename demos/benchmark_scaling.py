"""
Where the decomposed algorithm earns its keep.

e-ipfp touches a dense joint every cycle, over the constrained variables
and all their ancestors (the other families are barren and keep their
CPTs), so its cost doubles with each variable in that set; on the first
five instances that is 8 to 12 of the n, and on the n = 30 one 14 of 30.
d-ipfp only ever materializes the subnet of each constraint, so its cost
tracks the constraint scopes and barely notices n.

This script generates one instance per size (same recipe as `bnrefit
gen`: binary variables, mixed local and non-local constraints whose
targets are exact marginals of a perturbed twin, so every instance is
satisfiable), solves it with both algorithms, and prints the wall times
side by side, from n = 10 to 30.  The last instance, n = 120 with 24
constraints, puts 62 of its 120 variables in that set: e-ipfp refuses its
2^62-cell joint before allocating anything, and the script prints the
refusal and times d-ipfp alone, whose report still carries the
divergence, summed over the families it edited.

A stiff pair constraint may log that its inner loop hit the iteration
cap; that is expected, the next outer cycle revisits and converges it.
"""

from bnrefit import DenseCeilingError, Termination, run_d_ipfp, run_e_ipfp
from bnrefit.generate import generate_instance


def main():
    print(f"{'n':>4} {'m':>3} {'e-ipfp':>10} {'d-ipfp':>10} "
          f"{'ratio':>7}  termination")
    for seed, n in ((0, 10), (0, 12), (0, 14), (0, 16), (0, 18), (2, 30)):
        net, constraints = generate_instance(seed, n_nodes=n,
                                             num_constraints=6)
        _, rep_e = run_e_ipfp(net, constraints)
        _, rep_d = run_d_ipfp(net, constraints)
        ratio = rep_e.wall_time / max(rep_d.wall_time, 1e-9)
        print(f"{n:>4} {len(constraints):>3} "
              f"{rep_e.wall_time:>9.3f}s {rep_d.wall_time:>9.3f}s "
              f"{ratio:>6.1f}x  {rep_e.termination.value}/"
              f"{rep_d.termination.value}")

    # Past e-ipfp's dense ceiling, d-ipfp alone.
    net, constraints = generate_instance(0, n_nodes=120, num_constraints=24)
    try:
        run_e_ipfp(net, constraints)
    except DenseCeilingError as refusal:
        print(f"\ne-ipfp at n=120: {refusal}")
    else:
        raise AssertionError("e-ipfp fitted a joint over the ceiling")
    _, rep = run_d_ipfp(net, constraints)
    assert rep.termination is Termination.CONVERGED
    worst = max(rep.per_constraint_residuals)
    print(f"\n 120 {len(constraints):>3} {'-':>10} "
          f"{rep.wall_time:>9.3f}s      -  {rep.termination.value}")
    print(f"\nat n=120 the report carries residuals (worst {worst:.1e}) "
          f"and the divergence {rep.final_divergence:.6g}")


if __name__ == "__main__":
    main()
