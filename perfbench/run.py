"""bnrefit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-fit --seed 0 --seconds 40 --trace 0

``--workload all`` runs every workload, one after another, each in its own
fresh worker process.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it give
every metric with its unit and sample count, the instance manifest and,
when traced, the tracing overhead.  The exit code is 0 only when every
output passed the correctness gate.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("subnet-large", "dense-ceiling", "dense-fit")
SETUP_SPAWNS = 7
WORKER_TIMEOUT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(SRC)
    env.pop("BNREFIT_LOG", None)
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from spawning a cold interpreter until ``import bnrefit.cli``
    returns, once per spawn.  The first spawn only warms the bytecode and
    file caches and is not counted."""
    code = "import time, bnrefit.cli; print(repr(time.perf_counter()))"
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("importing bnrefit.cli failed:\n" + proc.stderr)
        if i:
            samples.append(float(proc.stdout.strip()) - t0)
    return samples


def run_worker(workload: str, seed: int, instance_seed: int, seconds: float,
               trace: int, env: dict[str, str]) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--instance-seed", str(instance_seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", work]
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload}: worker exceeded "
                               f"{WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


def describe(name: str, unit: str, samples: list[float], value: float) -> str:
    line = f"  {name:<34} {value:>14.6g} {unit:<6} (n={len(samples)}"
    tail = tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]}={tail[1]:.6g}"
    return line + ")"


def one_workload(args, env) -> tuple[dict, dict, bool]:
    """Prints the report for one workload; returns its metrics, counts and
    whether every check passed."""
    # Half the spawns before the worker and half after it, so that the
    # median spans the run rather than one moment of a shared machine.
    setup = measure_setup(env)
    res = run_worker(args.workload, args.seed, args.instance_seed,
                     args.seconds, args.trace, env)
    setup += measure_setup(env)
    print(f"workload {args.workload}: seed {args.seed}, instance seed "
          f"{args.instance_seed}, {len(res['wall_s'])} untraced passes")
    print("manifest " + json.dumps(res["manifest"], sort_keys=True))
    # A shared machine slows every process on it for stretches that outlast
    # a run; the reference kernel timed before each pass slows with them, so
    # rescaling pass and set-up times by it removes the stretch (see README).
    walls = res["wall_s"]
    scale = res["kernel_nominal_s"] / statistics.median(res["kernel_s"])
    samples = {"wall_ref_s": [w * scale for w in walls],
               "setup_s": [t * scale for t in setup],
               "peak_rss_mb": [res["peak_rss_mb"]], "kl_nats": res["kl_nats"]}
    e2e = {name: statistics.median(v) for name, v in samples.items()}
    untraced_median = statistics.median(walls)
    units = metric_units("end_to_end")
    print("end-to-end (untraced medians):")
    for name, unit in units.items():
        print(describe(name, unit, samples[name], e2e[name]))
    print(f"raw times; wall_ref_s and setup_s rescale them by {scale:.4g}, "
          "the kernel's nominal time over its median:")
    print(describe("wall_s median", "s", walls, untraced_median))
    print(describe("wall_s fastest", "s", walls, min(walls)))
    print(describe("setup_s raw", "s", setup, statistics.median(setup)))
    print(describe("reference kernel median", "s", res["kernel_s"],
                   statistics.median(res["kernel_s"])))
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<34} {ratio:>14.6g} {'':<6} "
          f"({res['failed']} of {res['attempted']} invocations)")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    ok = res["failed"] == 0
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in units.items()}
        return metrics, res, ok

    units = metric_units("per_layer")
    traced = statistics.median(res["traced_wall_s"])
    layers = dict(res["layers"])
    layers["trace.wall_s"] = traced
    layers["trace.overhead_s"] = traced - untraced_median
    print(f"per-layer (traced; times are medians of "
          f"{len(res['traced_wall_s'])} traced passes, counts from one):")
    for name, unit in units.items():
        print(f"  {name:<40} {layers[name]:>14.6g} {unit}")
    dom = res["dominant"]
    print(f"dominant layer: {' + '.join(dom['metrics'])} = "
          f"{dom['share']:.1%} of traced wall time "
          f"({'at least' if dom['share'] >= 0.6 else 'BELOW'} 60%)")
    print(f"tracing overhead: {layers['trace.overhead_s']:.4g} s per pass "
          f"({traced:.4g} s traced vs {untraced_median:.4g} s untraced, "
          f"medians)")
    for problem in res["trace_problems"]:
        print(f"  TRACE CHECK FAILED {problem}")
    ok = ok and not res["trace_problems"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in units.items()}
    return metrics, res, ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes variable names in the generated files")
    ap.add_argument("--instance-seed", type=int, default=0,
                    help="generate_instance seed (see README for timings)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bnrefit" / "cli.py").is_file():
        print(f"error: no bnrefit sources under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name in names:
        try:
            metrics_one, res, ok = one_workload(
                argparse.Namespace(**{**vars(args), "workload": name}), env)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in metrics_one.items()})
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
