"""Acceptance gate: one test per shipping criterion.

Each test prints a single verdict line (visible with ``pytest -s``) and
asserts it, so ``pytest -v`` shows one pass or fail row per criterion.
Criteria 1 and 2 share one batch of twenty generated instances.
"""

import importlib
import time

import numpy as np
import pytest

import nets
import oracle
from bnrefit import (
    Constraint,
    StopPolicy,
    Termination,
    build_local_subnet,
    constraint_residual,
    i_divergence,
    is_structurally_consistent,
    joint_from_network,
    run_d_ipfp,
    run_e_ipfp,
    run_ipfp,
)
from bnrefit.generate import generate_instance, random_network


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {state}: {name}{tail}")
    assert ok, f"criterion {number}: {name}{tail}"


@pytest.fixture(scope="module")
def batch():
    """Twenty seeded instances solved with both structural algorithms."""
    started = time.perf_counter()
    runs = []
    for seed in range(20):
        n = 10 + seed % 6
        m = 4 + seed % 3
        net, constraints = generate_instance(seed, n_nodes=n,
                                             num_constraints=m)
        e_net, e_rep = run_e_ipfp(net, constraints)
        d_net, d_rep = run_d_ipfp(net, constraints)
        runs.append((net, constraints, e_net, e_rep, d_net, d_rep))
    return runs, time.perf_counter() - started


def test_criterion_1_batch_convergence(batch):
    runs, elapsed = batch
    ok = elapsed < 60.0
    worst = 0.0
    for _, _, _, e_rep, _, d_rep in runs:
        for rep in (e_rep, d_rep):
            ok = ok and rep.termination is Termination.CONVERGED
            worst = max(worst, max(rep.per_constraint_residuals))
    ok = ok and worst <= 1e-9
    _verdict(1, "20 seeded instances converge for e-ipfp and d-ipfp",
             ok, f"worst residual {worst:.2e}, total {elapsed:.1f}s")


def test_criterion_2_structural_consistency(batch):
    runs, _ = batch
    ok = True
    for net, _, e_net, _, d_net, _ in runs:
        for out in (e_net, d_net):
            q = joint_from_network(out)
            ok = ok and is_structurally_consistent(q, net)
    # The contrast case: plain IPFP's fitted joint loses the factorization.
    diamond = nets.make_diamond()
    q, _ = run_ipfp(diamond, [nets.diamond_r3(diamond)])
    ok = ok and not is_structurally_consistent(q, diamond)
    _verdict(2, "structural outputs reconstruct consistently, plain ipfp "
                "does not", ok)


def test_criterion_3_divergence_ordering():
    net = nets.make_diamond()
    r = nets.diamond_r3(net)
    stop = StopPolicy(epsilon=1e-10)
    _, plain = run_ipfp(net, [r], stop)
    _, structured = run_e_ipfp(net, [r], stop)
    _, restricted = run_d_ipfp(net, [r], stop)
    i_p = plain.final_divergence
    i_e = structured.final_divergence
    i_d = restricted.final_divergence
    margin_e = i_e - i_p
    margin_d = i_d - i_e
    ok = i_p <= i_e <= i_d and margin_e > 1e-6 and margin_d > 1e-6
    _verdict(3, "divergence ordering ipfp <= e-ipfp <= d-ipfp with strict "
                "margins", ok,
             f"{i_p:.6f} + {margin_e:.6f} -> {i_e:.6f} + {margin_d:.6f} "
             f"-> {i_d:.6f}")


def test_ipfp_bounds_both_structural_fits_from_below(batch):
    # Criterion 3's full ordering is for the optima: each feasible set lies
    # inside the one before it.  e-ipfp and d-ipfp each stop on one of a
    # continuum of fixed points, so their outputs can swap order, but
    # ipfp's converged I-projection is the optimum over the largest set
    # and bounds both from below.
    runs, _ = batch
    for net, constraints, _, e_rep, _, d_rep in runs:
        _, plain = run_ipfp(net, constraints)
        assert plain.termination is Termination.CONVERGED
        assert plain.final_divergence <= e_rep.final_divergence
        assert plain.final_divergence <= d_rep.final_divergence


def test_criterion_4_unconstrained_projection():
    started = time.perf_counter()
    ok = True
    detail = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = random_network(rng, 3, 2, 2)
        q0 = joint_from_network(net)
        scope = (net.names[0], net.names[2])
        if seed == 0:
            target = np.asarray([[0.3, 0.2], [0.1, 0.4]])
        else:
            target = rng.dirichlet(np.ones(4)).reshape(2, 2)
        r = nets.constraint_over(net, scope, target)
        _, report = run_ipfp(net, [r])
        names, cards, parents, tables = nets.as_plain(net)
        enum = oracle.oracle_joint(names, cards, parents, tables)
        goal = {(i, j): float(target[i, j]) for i in range(2)
                for j in range(2)}
        samples = oracle.oracle_feasible_sample(enum, scope, goal, 10_000,
                                                seed=seed + 40)
        best = min(oracle.oracle_divergence(s, enum) for s in samples)
        ok = ok and report.final_divergence <= best + 1e-9
        detail.append(f"{report.final_divergence:.4f}<={best:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(4, "ipfp divergence lower-bounds 10,000 feasible samples",
             ok, "; ".join(detail) + f"; {elapsed:.1f}s")


def test_criterion_5_subnet_cell():
    net = nets.make_diamond()
    sub = build_local_subnet(net, ("A", "D"))
    cell = float(sub.cond_table[1, 1, 1, 0])
    ok = cell == 0.4 * 0.9 and abs(cell - 0.36) < 1e-15
    _verdict(5, "subnet conditional cell Q'(A=1,D=0|B=1,C=1) = 0.36",
             ok, f"cell {cell!r}")


def test_criterion_6_decomposed_speedup():
    net, constraints = generate_instance(0)
    _, e_rep = run_e_ipfp(net, constraints)
    _, d_rep = run_d_ipfp(net, constraints)
    ok = (e_rep.termination is Termination.CONVERGED
          and d_rep.termination is Termination.CONVERGED
          and d_rep.wall_time * 10.0 <= e_rep.wall_time)
    _verdict(6, "d-ipfp at least 10x faster on the 15-node mixed instance",
             ok, f"e {e_rep.wall_time:.2f}s vs d {d_rep.wall_time:.3f}s")


def test_criterion_7_contradiction_oscillates():
    net = nets.make_chain()
    rs = [
        nets.constraint_over(net, ("B",), [0.8, 0.2]),
        nets.constraint_over(net, ("B",), [0.1, 0.9]),
    ]
    ok = True
    for runner in (run_e_ipfp, run_d_ipfp):
        _, rep = runner(net, rs)
        ok = (ok and rep.termination is Termination.OSCILLATING
              and rep.cycles <= StopPolicy().max_cycles)
    _verdict(7, "contradictory constraints terminate as oscillating", ok)


def test_generated_contradiction_oscillates():
    # A generated instance plus a perturbed copy of its constraint on X02:
    # the two targets disagree, and every solver must say so rather than
    # run out its cycle budget or claim convergence.
    net, constraints = generate_instance(17, n_nodes=10, num_constraints=3)
    r = next(c for c in constraints if c.scope == ("X02",))
    target = r.dist.probs * np.random.default_rng(17).uniform(
        0.5, 1.5, r.dist.probs.shape)
    constraints.append(Constraint.over(net, r.scope, target / target.sum()))
    for runner in (run_ipfp, run_e_ipfp, run_d_ipfp):
        _, rep = runner(net, constraints)
        assert rep.termination is Termination.OSCILLATING, runner.__name__


# Criterion 8: every stated invariant has an automated test.  The registry
# maps each one to the functions that exercise it; existence is asserted so
# a renamed or deleted test breaks the gate.

INVARIANT_TESTS = {
    "core: joint normalization on random networks": [
        ("test_core", "test_joint_sums_to_one_random_nets"),
        ("test_core", "test_joint_properties_randomized"),
    ],
    "core: extract after joint recovers CPTs": [
        ("test_core", "test_extract_joint_roundtrip"),
    ],
    "core: marginalization commutes": [
        ("test_core", "test_marginalize_commutes"),
    ],
    "core: divergence nonnegative, zero iff equal": [
        ("test_core", "test_divergence_nonnegative_zero_iff_equal"),
    ],
    "core: network joints are structurally consistent": [
        ("test_core", "test_network_joint_is_structurally_consistent"),
    ],
    "core: blocked dense product equals the oracle joint": [
        ("test_oracle", "test_random_networks_match_vectorized_joint"),
        ("test_oracle", "test_oracle_divergence_matches_vectorized"),
        ("test_dense", "test_step_on_blocked_and_transposed_tables"),
    ],
    "core: single-variable scopes classify local": [
        ("test_core", "test_every_single_variable_scope_is_local"),
    ],
    "dense: post-step residual vanishes": [
        ("test_dense", "test_step_fits_own_constraint_exactly"),
    ],
    "dense: steps preserve normalization": [
        ("test_dense", "test_step_preserves_normalization"),
    ],
    "dense: steps are idempotent": [
        ("test_dense", "test_step_is_idempotent"),
    ],
    "dense: structural projection equals per-family extraction": [
        ("test_dense", "test_structural_projection_matches_per_family_extraction"),
    ],
    "dense: e-ipfp and ipfp trajectories are pinned": [
        ("test_dense", "test_dense_fit_trajectories_are_pinned"),
    ],
    "dense: tables built inside the package are read-only": [
        ("test_dense", "test_computed_tables_are_read_only"),
    ],
    "dense: e-ipfp outputs are valid networks on the same DAG": [
        ("test_dense", "test_run_e_ipfp_output_network_invariants"),
    ],
    "dense: residuals vanish at fit time and at convergence": [
        ("test_dense", "test_monotone_residual_at_fit_time"),
    ],
    "dense: projection beats sampled feasible tables": [
        ("test_dense", "test_run_ipfp_chain_divergence_minimal_on_grid"),
        ("test_oracle", "test_sampled_divergence_never_beats_the_solver"),
        ("test_acceptance", "test_criterion_4_unconstrained_projection"),
    ],
    "solvers: ipfp, e-ipfp and d-ipfp take the same arguments": [
        ("test_dense", "test_solvers_take_the_same_arguments"),
    ],
    "solvers: constraints are visited in list order": [
        ("test_dense", "test_constraints_visited_in_list_order"),
    ],
    "solvers: a contradictory generated instance oscillates": [
        ("test_acceptance", "test_generated_contradiction_oscillates"),
    ],
    "decomposed: d-ipfp's subnet-large trajectory and output are pinned": [
        ("test_decomposed", "test_subnet_large_trajectory_is_pinned"),
    ],
    "decomposed: local update moves the joint by ratio over alpha": [
        ("test_decomposed", "test_local_update_moves_joint_by_ratio_over_alpha"),
    ],
    "decomposed: converged runs meet every constraint": [
        ("test_decomposed", "test_d_ipfp_desk_instance"),
        ("test_decomposed", "test_d_ipfp_mixed_constraints_converge"),
    ],
    "decomposed: outputs reconstruct consistently": [
        ("test_decomposed", "test_d_ipfp_desk_instance"),
        ("test_acceptance", "test_criterion_2_structural_consistency"),
    ],
    "decomposed: restriction costs divergence on the desk instance": [
        ("test_decomposed", "test_d_ipfp_divergence_ordering"),
    ],
    "decomposed: edits stay inside constrained CPTs": [
        ("test_decomposed", "test_d_ipfp_local_constraint_edits_one_cpt"),
        ("test_decomposed", "test_d_ipfp_nonlocal_constraint_edits_only_y"),
    ],
    "decomposed: rescaled rows stay distributions": [
        ("test_decomposed", "test_d_ipfp_alpha_rows_normalize"),
    ],
    "decomposed: subnet tables bounded by scope size": [
        ("test_decomposed", "test_build_subnet_size_is_exponential_bound"),
    ],
    "decomposed: non-local kernel matches the subnet pipeline": [
        ("test_decomposed", "test_d_ipfp_visit_matches_manual_sequence"),
    ],
    "decomposed: accelerated visit lands on a fixed point of the plain map": [
        ("test_decomposed", "test_d_ipfp_lands_on_plain_fixed_point"),
    ],
    "decomposed: divergence does not depend on the inner tolerance": [
        ("test_decomposed",
         "test_d_ipfp_diamond_divergence_independent_of_inner_epsilon"),
    ],
    "elimination: factored divergence equals the dense one": [
        ("test_elimination", "test_network_divergence_matches_dense"),
    ],
    "io: mangled documents fail with located errors, never crash": [
        ("test_fileio", "test_fuzzed_network_documents_never_crash"),
        ("test_fileio", "test_fuzzed_structural_mutations_fail_cleanly"),
        ("test_fileio", "test_parse_names_bad_row"),
        ("test_fileio", "test_parse_rejects_bad_json"),
    ],
    "io: random networks round-trip byte-stably": [
        ("test_fileio", "test_random_network_round_trip"),
        ("test_fileio", "test_parse_serialize_parse_is_identity"),
    ],
    "cli: exit codes documented, writes atomic": [
        ("test_cli", "test_help_documents_exit_codes"),
        ("test_cli", "test_out_into_missing_directory"),
        ("test_cli", "test_exit_invalid_input"),
        ("test_cli", "test_usage_error_exits_2"),
        ("test_fileio", "test_write_atomic_failure_leaves_target_alone"),
    ],
    "cli: root-scope constraints give matching e and d outputs": [
        ("test_cli", "test_run_root_scope_e_and_d_agree"),
    ],
    "oracle: agrees with the array code on random networks": [
        ("test_oracle", "test_random_networks_match_vectorized_joint"),
    ],
    "oracle: feasible samples meet the constraint exactly": [
        ("test_oracle", "test_feasible_samples_meet_target_exactly"),
    ],
}


def test_criterion_8_invariants_have_tests():
    missing = []
    for label, witnesses in INVARIANT_TESTS.items():
        for module_name, func in witnesses:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, func, None)):
                missing.append(f"{label} -> {module_name}.{func}")
        print(f"  {label}: "
              + ", ".join(f"{m}.{f}" for m, f in witnesses))
    _verdict(8, "every stated invariant maps to an existing test",
             not missing, "; ".join(missing))
