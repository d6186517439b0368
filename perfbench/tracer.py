"""Spans and counts around the calls into each layer of ``bnrefit``.

The program has no trace hooks of its own, so this module wraps, from
outside, the module-level names the solvers and the CLI actually look up
at call time.  ``decomposed``, ``dense`` and ``cli`` import helpers such as
``contract`` or ``joint_from_network`` by name, so each wrapper is
installed in the caller's module, not only where the function is defined.
A wrapper records one span (name, parent span, start, end) per call and,
for a few functions, a count read off the arguments or the result.

``Tracer`` is a context manager: entering installs every wrapper, leaving
restores the original objects.  A wrap target that no longer exists
raises ``AttributeError`` on entry, so a rename in the program fails the
traced run instead of silently zeroing a layer.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import bnrefit.cli as cli
import bnrefit.core as core
import bnrefit.decomposed as decomposed
import bnrefit.dense as dense
import bnrefit.elimination as elimination


def _cycles(args, kwargs, result):
    return {"cycles": result[1].cycles}


def _inner(args, kwargs, result):
    cap = kwargs["inner_cap"] if "inner_cap" in kwargs else args[4]
    return {"iterations": result, "cap_hit": int(result == cap)}


def _cells(args, kwargs, result):
    return {"cells": int(result.probs.size)}


def _bytes(args, kwargs, result):
    data = kwargs["data"] if "data" in kwargs else args[1]
    return {"bytes": len(data)}


# (owner, attribute, span name, note).  ``owner`` is the namespace the
# caller resolves the name in; ``note`` turns (args, kwargs, result) into
# counts attached to the span.
TARGETS = (
    (cli, "cmd_run", "cli.run", None),
    (cli, "cmd_check", "cli.check", None),
    (cli, "cmd_divergence", "cli.divergence", None),
    (cli, "run_d_ipfp", "decomposed.solve", _cycles),
    (dense, "_run_dense", "dense.solve", _cycles),
    (decomposed, "_nonlocal_visit", "decomposed.nonlocal_visit", _inner),
    (decomposed, "_local_visit", "decomposed.local_visit", None),
    (decomposed, "_outside_weight", "decomposed.outside_weight", None),
    (decomposed, "contract", "elimination.contract", None),
    (elimination, "contract", "elimination.contract", None),
    (dense, "ipfp_step", "dense.ipfp_step", None),
    (dense, "structural_projection", "dense.structural_projection", None),
    (dense, "constraint_residual", "dense.constraint_residual", None),
    (core.JointTable, "__post_init__", "core.jointtable_validate", None),
    (core, "extract_cpt", "core.extract_cpt", None),
    (dense, "extract_cpt", "core.extract_cpt", None),
    (cli, "extract_cpt", "core.extract_cpt", None),
    (dense, "joint_from_network", "core.joint_from_network", _cells),
    (decomposed, "joint_from_network", "core.joint_from_network", _cells),
    (cli, "joint_from_network", "core.joint_from_network", _cells),
    (dense, "i_divergence", "core.i_divergence", None),
    (decomposed, "i_divergence", "core.i_divergence", None),
    (cli, "i_divergence", "core.i_divergence", None),
    (dense, "_reextracted_product", "core.reextract", None),
    (decomposed, "_reextracted_product", "core.reextract", None),
    (cli, "_reextracted_product", "core.reextract", None),
    (cli, "parse_network", "fileio.parse", None),
    (cli, "parse_constraints", "fileio.parse", None),
    (cli, "serialize_network", "fileio.serialize", None),
    (cli, "report_to_bytes", "fileio.serialize", None),
    (cli, "write_atomic", "fileio.write", _bytes),
)

COMMANDS = ("cli.run", "cli.check", "cli.divergence")
SOLVERS = ("decomposed.solve", "dense.solve")
DENSE_SUMMARIES = ("core.joint_from_network", "core.reextract",
                   "core.i_divergence")
CONTRACT_PARENTS = {
    "decomposed.outside_weight": "outside_weight",
    "decomposed.local_visit": "local_visit",
    "decomposed.solve": "residual",
    "cli.check": "check",
}


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if note is not None:
                span.counts = note(args, kwargs, result)
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, note in TARGETS:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note))
        except KeyError as e:
            self.__exit__(None, None, None)
            raise AttributeError(
                f"trace target {e.args[0]!r} is gone from the program; "
                f"update perfbench/tracer.py") from None
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer times (seconds) and counts for one traced pass."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1

    def total(name: str, key: str) -> int:
        return sum(s.counts[key] for s in spans if s.name == name)

    def t(name: str) -> float:
        return seconds.get(name, 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    def parent_of(s: Span) -> str | None:
        return s.parent.name if s.parent is not None else None

    def seconds_where(keep) -> float:
        return sum((s.seconds for s in spans if keep(s)), 0.0)

    visits = n("decomposed.nonlocal_visit")
    cap_hits = total("decomposed.nonlocal_visit", "cap_hit")
    times = {
        "decomposed.solve_s": t("decomposed.solve"),
        "decomposed.nonlocal_visit_s": t("decomposed.nonlocal_visit"),
        "decomposed.local_visit_s": t("decomposed.local_visit"),
        "decomposed.outside_weight_s": t("decomposed.outside_weight"),
        "elimination.contract_s": t("elimination.contract"),
        "dense.solve_s": t("dense.solve"),
        "dense.ipfp_step_s": t("dense.ipfp_step"),
        "dense.structural_projection_s": t("dense.structural_projection"),
        "dense.constraint_residual_s": t("dense.constraint_residual"),
        "core.jointtable_validate_s": t("core.jointtable_validate"),
        "core.extract_cpt_s": t("core.extract_cpt"),
        "core.joint_from_network_s": t("core.joint_from_network"),
        "core.i_divergence_s": t("core.i_divergence"),
        "core.reextract_s": seconds_where(
            lambda s: s.name == "core.reextract"
            and parent_of(s) != "dense.structural_projection"),
        "report.dense_summary_s": seconds_where(
            lambda s: s.name in DENSE_SUMMARIES
            and parent_of(s) in SOLVERS + COMMANDS),
        "fileio.parse_s": t("fileio.parse"),
        "fileio.serialize_s": t("fileio.serialize"),
        "fileio.write_s": t("fileio.write"),
        "cli.run_s": t("cli.run"),
        "cli.check_s": t("cli.check"),
        "cli.divergence_s": t("cli.divergence"),
    }
    counts = {
        "decomposed.cycles": total("decomposed.solve", "cycles"),
        "decomposed.nonlocal_visits": visits,
        "decomposed.inner_iterations":
            total("decomposed.nonlocal_visit", "iterations"),
        "decomposed.inner_cap_hits": cap_hits,
        "decomposed.local_visits": n("decomposed.local_visit"),
        "elimination.contract_calls": n("elimination.contract"),
        "dense.cycles": total("dense.solve", "cycles"),
        "dense.ipfp_steps": n("dense.ipfp_step"),
        "dense.structural_projections": n("dense.structural_projection"),
        "core.jointtable_validations": n("core.jointtable_validate"),
        "core.joints_built": n("core.joint_from_network"),
        "core.dense_cells": total("core.joint_from_network", "cells"),
        "fileio.bytes_written": total("fileio.write", "bytes"),
    }
    for parent, suffix in CONTRACT_PARENTS.items():
        under = [s for s in spans if s.name == "elimination.contract"
                 and parent_of(s) == parent]
        times[f"elimination.contract_s.{suffix}"] = sum(
            (s.seconds for s in under), 0.0)
        counts[f"elimination.contract_calls.{suffix}"] = len(under)
    times["cli.self_s"] = sum(t(c) for c in COMMANDS) - seconds_where(
        lambda s: parent_of(s) in COMMANDS)
    counts["decomposed.inner_cap_hit_ratio"] = (cap_hits / visits
                                                if visits else 0.0)
    return times, counts
