"""The benchmark's tracer still finds its wrap targets and spans.

``perfbench/tracer.py`` wraps functions of the program by name, and each
workload in ``perfbench/worker.py`` lists the spans a traced pass must
record.  A renamed function or a dropped call fails here, on a small
instance, as well as in the benchmark's own traced run.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from bnrefit import serialize_constraints, serialize_network
from bnrefit.generate import generate_instance

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
        import worker
    finally:
        sys.path.remove(PERFBENCH)
    return tracer, worker


def test_every_workload_records_its_spans(perfbench, tmp_path):
    tracer, worker = perfbench
    net, constraints = generate_instance(0, 12, 4)
    files = {"net": tmp_path / "net.json", "cons": tmp_path / "constraints.json"}
    for algo in ("ipfp", "e-ipfp", "d-ipfp"):
        files[algo] = tmp_path / f"{algo}.out.json"
        files[algo + ".report"] = tmp_path / f"{algo}.report.json"
    files["net"].write_bytes(serialize_network(net))
    files["cons"].write_bytes(serialize_constraints(constraints))

    problems = {}
    for name, wl in worker.WORKLOADS.items():
        with tracer.Tracer() as tr:
            _, invocations = worker.run_pass(worker.Cli(), wl.steps, files)
        calls = Counter(span.name for span in tr.spans)
        bad = [f"{' '.join(inv.argv[:3])}: exit {inv.rc}, {inv.error}"
               for inv in invocations if inv.rc != 0 or inv.error is not None]
        bad += [f"span {span} recorded no calls"
                for span in wl.exercised if calls[span] == 0]
        if bad:
            problems[name] = bad
    assert problems == {}
