"""Command line interface.

Four subcommands: ``run`` fits a network to constraints and writes the
refitted network (plus an optional report), ``check`` measures how far a
network is from a constraint set, ``divergence`` compares two networks,
and ``gen`` writes a seeded random instance.  Set ``BNREFIT_LOG`` to
``debug`` or ``info`` to see solver internals on stderr.

Exit codes:

  0  success; for run, the solver converged
  1  check found violated constraints
  2  usage error
  3  unreadable or invalid input (syntax, schema, validation)
  4  run ended oscillating (constraints look contradictory, or out of
     reach of the CPTs they name)
  5  run hit the cycle budget before converging
  6  a constraint demands mass where the distribution has none
  7  a constraint's subnet exceeds the size budget
  8  a table too large: a dense joint over the ceiling (for e-ipfp, the
     joint of the constrained variables and their ancestors; for
     divergence, that of the variables whose families differ and their
     ancestors), a table of e-ipfp's max-product over the other
     variables, or an allocation that failed
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    BnError,
    DenseCeilingError,
    DominanceError,
    NetworkSpec,
    ValidationError,
    _max_gap,
    _reextracted_product,
    _sub_network,
    i_divergence,
    joint_from_network,
)
# Unused here; perfbench/tracer.py wraps this name in this module.
from .core import extract_cpt
from .decomposed import SubnetSizeError, run_d_ipfp
from .dense import RunReport, StopPolicy, Termination, run_e_ipfp, run_ipfp
from .elimination import _ancestral, marginal
from .fileio import (
    parse_constraints,
    parse_network,
    report_to_bytes,
    serialize_constraints,
    serialize_network,
    write_atomic,
)
from .generate import generate_instance

logger = logging.getLogger("bnrefit")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3
EXIT_OSCILLATING = 4
EXIT_MAX_CYCLES = 5
EXIT_DOMINANCE = 6
EXIT_SUBNET_BUDGET = 7
EXIT_DENSE_CEILING = 8

_TERMINATION_EXIT = {
    Termination.CONVERGED: EXIT_OK,
    Termination.OSCILLATING: EXIT_OSCILLATING,
    Termination.MAX_CYCLES: EXIT_MAX_CYCLES,
}


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnrefit",
        description="Refit Bayesian-network probability tables to marginal "
                    "constraints while keeping the structure fixed.",
        epilog=__doc__.split("Exit codes:")[1].join(["Exit codes:", ""]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="fit a network to constraints and write the result",
        description="Fit a network to constraints and write the refitted "
                    "network. With --algorithm ipfp the joint is fitted "
                    "without preserving structure; the written network then "
                    "carries the CPTs extracted from that joint (its closest "
                    "structured reading) and the report's structural_residual "
                    "says how far the raw joint is from factoring.",
    )
    run.add_argument("--network", required=True, help="input network file")
    run.add_argument("--constraints", required=True, help="input constraint file")
    run.add_argument("--algorithm", choices=["ipfp", "e-ipfp", "d-ipfp"],
                     default="e-ipfp")
    run.add_argument("--epsilon", type=_positive_float,
                     default=StopPolicy.epsilon,
                     help="convergence tolerance (default %(default)s)")
    run.add_argument("--max-cycles", type=_positive_int,
                     default=StopPolicy.max_cycles, dest="max_cycles",
                     help="cycle budget (default %(default)s)")
    run.add_argument("--out", required=True, help="output network file")
    run.add_argument("--report", help="optional run report file")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser(
        "check",
        help="measure a network against constraints",
        description="Print the residual of every constraint and the "
                    "structural residual of the joint of the constrained "
                    "variables and their ancestors; exit 1 if any "
                    "constraint is off by more than epsilon.",
    )
    check.add_argument("--network", required=True)
    check.add_argument("--constraints", required=True)
    check.add_argument("--epsilon", type=_positive_float,
                       default=StopPolicy.epsilon,
                       help="residual tolerance (default %(default)s)")
    check.set_defaults(func=cmd_check)

    div = sub.add_parser(
        "divergence",
        help="I-divergence between the joints of two networks",
        description="Print the I-divergence (natural log) of the first "
                    "network's joint from the second's. The declarations "
                    "must match. Only the joint of the variables whose "
                    "families differ and their ancestors is built: every "
                    "other family is the same in both networks and cancels.",
    )
    div.add_argument("first", help="network file whose joint is P")
    div.add_argument("second", help="network file whose joint is Q")
    div.set_defaults(func=cmd_divergence)

    gen = sub.add_parser(
        "gen",
        help="write a seeded random instance",
        description="Generate a sparse random network and a satisfiable "
                    "constraint set for it, deterministically from the seed, "
                    "and write both files.",
    )
    gen.add_argument("--seed", type=_nonnegative_int, required=True)
    gen.add_argument("--nodes", type=_positive_int, default=15)
    gen.add_argument("--num-constraints", type=_positive_int, default=8,
                     dest="num_constraints")
    gen.add_argument("--network", required=True, help="output network file")
    gen.add_argument("--constraints", required=True, help="output constraint file")
    gen.set_defaults(func=cmd_gen)

    return parser


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def cmd_run(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network))
    constraints = parse_constraints(_read(args.constraints), net)
    stop = StopPolicy(epsilon=args.epsilon, max_cycles=args.max_cycles)

    report: RunReport
    if args.algorithm == "d-ipfp":
        out_net, report = run_d_ipfp(net, constraints, stop)
    elif args.algorithm == "e-ipfp":
        out_net, report = run_e_ipfp(net, constraints, stop)
    else:
        q, report = run_ipfp(net, constraints, stop)
        out_net = net if report.cycles == 0 else NetworkSpec(
            net.variables, net.parents, q.cpts)

    write_atomic(args.out, serialize_network(out_net))
    if args.report:
        write_atomic(args.report, report_to_bytes(report))

    worst = max(report.per_constraint_residuals, default=0.0)
    print(f"{args.algorithm}: {report.termination.value} after "
          f"{report.cycles} cycles; max residual {worst:.3e}; "
          f"divergence {report.final_divergence:.6g}; wrote {args.out}")
    return _TERMINATION_EXIT[report.termination]


def cmd_check(args: argparse.Namespace) -> int:
    net = parse_network(_read(args.network))
    constraints = parse_constraints(_read(args.constraints), net)
    violations = 0
    for i, r in enumerate(constraints, start=1):
        m = marginal(net, r.scope)
        residual = float(np.max(np.abs(m - r.dist.probs)))
        ok = residual <= args.epsilon
        violations += 0 if ok else 1
        scope = ", ".join(r.scope)
        print(f"constraint {i} over ({scope}): residual {residual:.3e} "
              f"{'ok' if ok else 'VIOLATED'}")
    kept = _ancestral(net.parents, {n for r in constraints for n in r.scope},
                      net.rank)
    if not kept:
        print("structural residual: skipped (no constraint names a variable)")
    else:
        sub = _sub_network(net, kept)
        try:
            q = joint_from_network(sub)
        except DenseCeilingError as e:
            print(f"structural residual: skipped ({e}; check reads it off "
                  f"the joint of the constrained variables and their "
                  f"ancestors, {len(kept)} of the {len(net.names)} "
                  f"variables); a network's own joint factors by "
                  f"construction")
        else:
            gap = _max_gap(_reextracted_product(q, sub)[1], q.probs)
            print(f"structural residual: {gap:.3e}")
    if violations:
        print(f"result: {violations} of {len(constraints)} constraints "
              f"violated at epsilon {args.epsilon:g}")
        return EXIT_CHECK_FAILED
    print(f"result: all {len(constraints)} constraints met at epsilon "
          f"{args.epsilon:g}")
    return EXIT_OK


def cmd_divergence(args: argparse.Namespace) -> int:
    first = parse_network(_read(args.first))
    second = parse_network(_read(args.second))
    if first.variables != second.variables:
        raise ValidationError(
            "the two networks declare different variables; divergence needs "
            "identical declarations"
        )
    # Every family outside the ancestral closure of the differing ones is
    # the same in both networks, so it cancels from log P/Q.  What is left
    # is the divergence of the two marginals over the closure, and each
    # marginal is the product of the closure's own CPTs.
    differ = [n for n in first.names
              if first.parents[n] != second.parents[n]
              or not np.array_equal(first.cpts[n].table, second.cpts[n].table)]
    kept = _ancestral({n: first.parents[n] + second.parents[n]
                       for n in first.names}, differ, first.rank)
    value = 0.0
    if kept:
        try:
            p = joint_from_network(_sub_network(first, kept))
            q = joint_from_network(_sub_network(second, kept))
        except DenseCeilingError as e:
            raise DenseCeilingError(
                f"divergence compares the joints of the variables whose "
                f"families differ and their ancestors, {len(kept)} of the "
                f"{len(first.names)} variables: {e}") from None
        value = i_divergence(p, q)
    print(format(value, ".17g"))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    net, constraints = generate_instance(args.seed, n_nodes=args.nodes,
                                         num_constraints=args.num_constraints)
    write_atomic(args.network, serialize_network(net))
    write_atomic(args.constraints, serialize_constraints(constraints))
    print(f"wrote {args.network} ({args.nodes} variables) and "
          f"{args.constraints} ({len(constraints)} constraints)")
    return EXIT_OK


def _configure_logging() -> None:
    level_name = os.environ.get("BNREFIT_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging()
    try:
        return args.func(args)
    except SubnetSizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SUBNET_BUDGET
    except DominanceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMINANCE
    except DenseCeilingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DENSE_CEILING
    except MemoryError as e:
        print(f"error: allocation failed: {str(e) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_DENSE_CEILING
    except (BnError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
