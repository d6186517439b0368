"""One workload in one fresh process: generate, run passes, check, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP
threads pinned to 1.  The instance is generated before any timing and
written as JSON files; every invocation then goes through the real CLI
entry point, ``bnrefit.cli.main``, in this process.  A pass is the
workload's fixed sequence of invocations, each started after the previous
one returns (a closed loop with one client).  Passes repeat for about
``--seconds``.  Every invocation's output is checked after
its pass, outside the timed region.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bnrefit.cli import main
from bnrefit.core import (
    BnError,
    Constraint,
    Cpt,
    JointTable,
    Local,
    NetworkSpec,
    VariableDecl,
    classify_constraint,
)
from bnrefit.elimination import marginal
from bnrefit.fileio import parse_network, serialize_constraints, serialize_network
from bnrefit.generate import generate_instance

import tracer

EPSILON = 1e-9
"""The CLI's default convergence tolerance; every residual must meet it."""

KL_RTOL = 1e-9
"""Relative agreement required between the benchmark's factored KL and the
report's dense divergence, or the value ``divergence`` prints."""


@dataclass(frozen=True)
class Workload:
    n_nodes: int
    num_constraints: int
    steps: tuple[tuple[str, ...], ...]
    dense_report: bool
    """Whether d-ipfp and e-ipfp reports carry the dense divergence."""
    exercised: tuple[str, ...]
    """Spans that must record at least one call in a traced pass."""
    dominant: tuple[str, ...]
    """Time metrics whose sum should dominate the traced pass."""


_FILEIO = ("fileio.parse", "fileio.serialize", "fileio.write")

WORKLOADS = {
    "subnet-large": Workload(
        120, 24, (("run", "d-ipfp"),), False,
        ("cli.run", "decomposed.solve", "decomposed.nonlocal_visit",
         "decomposed.local_visit", "decomposed.outside_weight",
         "elimination.contract") + _FILEIO,
        ("decomposed.nonlocal_visit_s",)),
    "dense-ceiling": Workload(
        20, 6, (("run", "d-ipfp"), ("check",), ("divergence",)), True,
        ("cli.run", "cli.check", "cli.divergence", "decomposed.solve",
         "decomposed.nonlocal_visit", "elimination.contract",
         "core.joint_from_network", "core.reextract", "core.i_divergence",
         "core.extract_cpt") + _FILEIO,
        ("report.dense_summary_s",)),
    "dense-fit": Workload(
        16, 6, (("run", "e-ipfp"), ("run", "ipfp")), True,
        ("cli.run", "dense.solve", "dense.ipfp_step",
         "dense.structural_projection", "dense.constraint_residual",
         "core.jointtable_validate", "core.extract_cpt",
         "core.joint_from_network", "core.i_divergence",
         "core.reextract") + _FILEIO,
        ("dense.structural_projection_s", "dense.ipfp_step_s")),
}


def relabel(net: NetworkSpec, constraints: list[Constraint], seed: int
            ) -> tuple[NetworkSpec, list[Constraint]]:
    """The same instance with its variable names permuted by ``seed``.

    Declaration order, structure and tables are untouched, and the program
    orders variables by declaration, never by name, so every seed poses
    the same numerical problem in different bytes.
    """
    names = list(net.names)
    perm = np.random.default_rng(seed).permutation(len(names))
    new = {old: names[i] for old, i in zip(names, perm)}
    decls = tuple(VariableDecl(new[v.name], v.cardinality, v.states)
                  for v in net.variables)
    parents = {new[c]: tuple(new[p] for p in ps)
               for c, ps in net.parents.items()}
    cpts = {new[c]: Cpt(new[c], parents[new[c]], cpt.table)
            for c, cpt in net.cpts.items()}
    out = NetworkSpec(decls, parents, cpts)
    return out, [
        Constraint(tuple(new[v] for v in r.scope),
                   JointTable(tuple(out.decl(new[v]) for v in r.scope),
                              r.dist.probs))
        for r in constraints
    ]


def factored_kl(p: NetworkSpec, q: NetworkSpec) -> float:
    """KL(P || Q) in nats for two networks on the same DAG.

    Chain rule over families: sum over variables whose CPT changed of
    ``sum_pa P(pa) * KL(P(. | pa) || Q(. | pa))``, with ``P(pa)`` from
    variable elimination on ``p``, so no dense joint is built.
    """
    total = 0.0
    for name in p.names:
        a, b = p.cpts[name].table, q.cpts[name].table
        if np.array_equal(a, b):
            continue
        if np.any((a > 0.0) & (b <= 0.0)):
            return float("inf")
        pos = a > 0.0
        ratio = np.divide(a, b, out=np.ones_like(a), where=pos)
        rows = np.where(pos, a * np.log(ratio), 0.0).sum(axis=-1)
        parents = p.parents[name]
        weight = marginal(p, parents) if parents else 1.0
        total += float(np.sum(weight * rows))
    return total


class ReferenceKernel:
    """Fixed work, independent of bnrefit, timed before every untraced pass.

    Other tenants of a shared machine slow every process on it by up to half,
    for stretches that outlast a run.  The kernel slows with the passes
    beside it, so pass time over kernel time stays steady where pass time
    alone does not (see README).  It mixes the kinds of work the workloads
    do: numpy calls on tiny arrays from a Python loop, plain Python, and
    numpy on arrays that fit in L2.  It needs about 2 MB, so
    ``peak_rss_mb`` stays the program's.
    """

    NOMINAL_S = 0.032
    """The kernel's median time on a 2-core Intel Xeon (Python 3.11.7,
    numpy 2.4.6) in a quiet stretch: ``wall_ref_s`` is the pass time
    rescaled to a machine on which the kernel takes this long."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = rng.random((2, 4, 8, 8))
        self.small = rng.random((2, 16, 64, 64))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        a, b = self.tiny
        for _ in range(1200):
            c = a * b
            float(np.max(np.abs(c / c.sum(axis=1, keepdims=True) - a)))
        acc = 0
        table: dict[int, int] = {}
        for i in range(100_000):
            table[i & 1023] = acc
            acc += i * i % 7
        x, y = self.small
        for _ in range(20):
            (x * y).sum(axis=1)
            np.log(y + 1.0)
        return time.perf_counter() - t0


@dataclass
class Invocation:
    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str
    error: str | None


class Cli:
    """Calls ``bnrefit.cli.main`` with captured output.

    One stderr buffer is reused for every call: the CLI configures logging
    once per process, bound to whatever ``sys.stderr`` was at that moment.
    """

    def __init__(self):
        self._err = io.StringIO()

    def __call__(self, argv: list[str]) -> Invocation:
        out = io.StringIO()
        self._err.seek(0)
        self._err.truncate()
        error = None
        rc: int | None = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(self._err):
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:
                error = traceback.format_exc()
        return Invocation(argv, rc, out.getvalue(), self._err.getvalue(),
                          error)


class Checker:
    """Checks of a written network: re-parse, row sums, residuals and KL.

    They are a pure function of the network's bytes, so they are cached by
    content hash: later passes that write identical bytes reuse the verdict
    and only the cheap per-invocation checks in ``check_pass`` repeat.
    """

    def __init__(self, net: NetworkSpec, constraints: list[Constraint]):
        self.net = net
        self.constraints = constraints
        self._networks: dict[str, tuple[list[str], float | None]] = {}

    def network(self, data: bytes, check_residuals: bool
                ) -> tuple[list[str], float | None]:
        key = hashlib.sha256(data).hexdigest() + str(check_residuals)
        if key not in self._networks:
            self._networks[key] = self._check_network(data, check_residuals)
        return self._networks[key]

    def _check_network(self, data: bytes, check_residuals: bool
                       ) -> tuple[list[str], float | None]:
        try:
            fitted = parse_network(data)
        except BnError as e:
            return [f"output does not re-parse: {e}"], None
        problems = []
        for name, cpt in fitted.cpts.items():
            sums = cpt.table.sum(axis=-1)
            if np.any(np.abs(sums - 1.0) > EPSILON):
                problems.append(f"CPT rows of {name} do not sum to 1")
        if check_residuals:
            for r in self.constraints:
                res = float(np.max(np.abs(marginal(fitted, r.scope)
                                          - r.dist.probs)))
                if res > EPSILON:
                    problems.append(f"constraint over {r.scope}: residual "
                                    f"{res:.3e} > {EPSILON:g}")
        return problems, factored_kl(fitted, self.net)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= KL_RTOL * max(abs(a), abs(b))


def run_pass(cli: Cli, steps, files: dict[str, Path]) -> tuple[float, list[Invocation]]:
    net, cons = str(files["net"]), str(files["cons"])
    done: list[Invocation] = []
    t0 = time.perf_counter()
    for step in steps:
        if step[0] == "run":
            algo = step[1]
            argv = ["run", "--algorithm", algo, "--network", net,
                    "--constraints", cons, "--out", str(files[algo]),
                    "--report", str(files[algo + ".report"])]
        elif step[0] == "check":
            argv = ["check", "--network", str(files["d-ipfp"]),
                    "--constraints", cons]
        else:
            argv = ["divergence", str(files["d-ipfp"]), net]
        done.append(cli(argv))
    return time.perf_counter() - t0, done


def check_pass(checker: Checker, steps, files, invocations, dense: bool
               ) -> tuple[list[list[str]], float, list[int]]:
    """Failure reasons per invocation, the pass's KL sum and run cycles."""
    reasons: list[list[str]] = []
    kl_sum = 0.0
    last_kl: float | None = None
    cycles: list[int] = []
    for step, inv in zip(steps, invocations):
        bad: list[str] = []
        if inv.error is not None:
            bad.append("raised: " + inv.error.strip().splitlines()[-1])
        elif inv.rc != 0:
            bad.append(f"exit code {inv.rc}")
        if "Traceback" in inv.stderr:
            bad.append("traceback on stderr")
        if step[0] == "run" and not bad:
            algo = step[1]
            try:
                report = json.loads(files[algo + ".report"].read_bytes())
                data = files[algo].read_bytes()
            except (OSError, ValueError) as e:
                report, data = None, None
                bad.append(f"unreadable output: {e}")
            if report is not None:
                cycles.append(int(report["cycles"]))
                if report["termination"] != "converged":
                    bad.append(f"termination {report['termination']}")
                # ipfp writes the structured reading of a joint that does
                # not factor; its residuals are the raw joint's, as reported.
                if algo == "ipfp" and max(report["per_constraint_residuals"],
                                          default=0.0) > EPSILON:
                    bad.append("reported residual above epsilon")
                problems, kl = checker.network(data, algo != "ipfp")
                bad += problems
                if kl is not None:
                    kl_sum += kl
                    last_kl = kl
                    reported = report["final_divergence"]
                    if algo != "ipfp" and dense:
                        if reported is None:
                            bad.append("report lacks the dense divergence")
                        elif not _close(kl, reported):
                            bad.append(f"factored KL {kl!r} != report "
                                       f"divergence {reported!r}")
        elif step[0] == "check" and not bad:
            if not re.search(r"^result: all \d+ constraints met",
                             inv.stdout, re.M):
                bad.append("check did not report all constraints met")
        elif step[0] == "divergence" and not bad:
            try:
                value = float(inv.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                value = None
            if value is None or last_kl is None or not _close(value, last_kl):
                bad.append(f"divergence printed {inv.stdout.strip()!r}, "
                           f"expected {last_kl!r}")
        reasons.append(bad)
    return reasons, kl_sum, cycles


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(workload: str, instance_seed: int, seed: int, net, constraints,
             net_bytes: bytes, cons_bytes: bytes) -> dict:
    local = sum(isinstance(classify_constraint(net, r), Local)
                for r in constraints)
    return {
        "workload": workload,
        "instance_seed": instance_seed,
        "seed": seed,
        "n": len(net.variables),
        "constraints_local": local,
        "constraints_nonlocal": len(constraints) - local,
        "network_sha256": hashlib.sha256(net_bytes).hexdigest(),
        "constraints_sha256": hashlib.sha256(cons_bytes).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def main_worker(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instance-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    net, constraints = generate_instance(
        args.instance_seed, n_nodes=wl.n_nodes,
        num_constraints=wl.num_constraints)
    net, constraints = relabel(net, constraints, args.seed)
    net_bytes = serialize_network(net)
    cons_bytes = serialize_constraints(constraints)
    work = Path(args.workdir)
    files = {"net": work / "net.json", "cons": work / "constraints.json"}
    for algo in ("ipfp", "e-ipfp", "d-ipfp"):
        files[algo] = work / f"{algo}.out.json"
        files[algo + ".report"] = work / f"{algo}.report.json"
    files["net"].write_bytes(net_bytes)
    files["cons"].write_bytes(cons_bytes)
    info = manifest(args.workload, args.instance_seed, args.seed, net,
                    constraints, net_bytes, cons_bytes)
    info["invocations"] = []

    cli = Cli()
    checker = Checker(net, constraints)
    kernel = ReferenceKernel()
    kernel_s: list[float] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    kls: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    traced_times: list[dict] = []
    traced_counts: list[dict] = []

    # Untraced passes only, or untraced and traced passes alternating, until
    # the time is up; at least three untraced, or two of each when tracing.
    # A pass that would end more than half a pass past the deadline is not
    # started, so a run lasts about ``--seconds`` whatever the pass length.
    need = 2 if args.trace else 3
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        if traced:
            with tracer.Tracer() as tr:
                wall, invocations = run_pass(cli, wl.steps, files)
            times, counts = tracer.layer_metrics(tr.spans)
            span_calls = Counter(span.name for span in tr.spans)
            traced_times.append(times)
            traced_counts.append(counts)
        else:
            kernel_s.append(kernel())
            wall, invocations = run_pass(cli, wl.steps, files)
        walls[traced].append(wall)
        reasons, kl_sum, cycles = check_pass(checker, wl.steps, files,
                                             invocations, wl.dense_report)
        kls.append(kl_sum)
        attempted += len(invocations)
        for inv, bad in zip(invocations, reasons):
            if bad:
                failed += 1
                failures.append(f"{' '.join(inv.argv[:3])}: {'; '.join(bad)}")
        elapsed = time.perf_counter() - start
        if (elapsed + wall / 2 >= args.seconds
                and min(len(walls[False]), len(walls[bool(args.trace)])) >= need):
            break

    run_cycles = iter(cycles)
    inner = (traced_counts[0]["decomposed.inner_iterations"]
             if traced_counts else None)
    for step in wl.steps:
        entry = {"command": " ".join(step)}
        if step[0] == "run":
            entry["cycles"] = next(run_cycles, None)
            if step[1] == "d-ipfp":
                entry["inner_iterations"] = inner
        info["invocations"].append(entry)

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "wall_s": walls[False],
        "kernel_s": kernel_s,
        "kernel_nominal_s": ReferenceKernel.NOMINAL_S,
        "kl_nats": kls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest": info,
    }
    if args.trace:
        result["traced_wall_s"] = walls[True]
        result["layers"] = {
            name: statistics.median(t[name] for t in traced_times)
            for name in traced_times[0]
        }
        result["layers"].update(traced_counts[0])
        result["trace_problems"] = trace_problems(wl, span_calls,
                                                  traced_counts)
        dominant = sum(result["layers"][m] for m in wl.dominant)
        result["dominant"] = {"metrics": list(wl.dominant),
                              "share": dominant / statistics.median(walls[True])}
    print(json.dumps(result))
    return 0


VARIABLE_COUNTS = {"fileio.bytes_written"}
"""Counts that may differ between passes: a report records its wall time."""


def trace_problems(wl: Workload, calls: Counter, counts: list[dict]) -> list[str]:
    problems = [f"span {span} recorded no calls"
                for span in wl.exercised if calls[span] == 0]
    for other in counts[1:]:
        for name, value in counts[0].items():
            if other[name] != value and name not in VARIABLE_COUNTS:
                problems.append(f"count {name} differs between traced "
                                f"passes: {value} vs {other[name]}")
    return problems


if __name__ == "__main__":
    sys.exit(main_worker())
