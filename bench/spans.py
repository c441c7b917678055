"""Spans around the public entry points of each k3batman module.

A traced pass wraps library functions from outside the library: every
attribute of a loaded ``k3batman`` module that is bound to a target function
(names imported with ``from .x import f`` included) is replaced by a wrapper.
Each wrapper records a span with name, start, end, parent and run id, plus
counts taken at the same boundary. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _file_bytes(args, result) -> dict[str, int]:
    return {"bytes": os.path.getsize(args[0])}


# (module, function) -> counter of (args, result), or None for no counts.
TARGETS = {
    ("field", "make_context"): None,
    ("clausen", "build_trace_table"): lambda args, table: {"traces": len(table)},
    ("clausen", "moment"): None,
    ("hurwitz", "build_hurwitz_table"): lambda args, table: {"entries": table.d_max + 1},
    ("hurwitz", "moment_rhs"): None,
    ("brackets", "class_sum_a"): None,
    ("brackets", "class_sum_b"): None,
    ("brackets", "coeff_side_a"): None,
    ("brackets", "coeff_side_b"): None,
    ("brackets", "pihol_coeff"): None,
    ("brackets", "deligne_audit"): None,
    ("stats", "discrepancy_report"): lambda args, report: {"rows": len(report.rows)},
    ("svg", "render_histogram"): None,
    ("svg", "histogram_counts"): None,
    ("measures", "mu_st"): None,
    ("measures", "mu_bat"): None,
    ("measures", "density_f"): None,
    ("selberg", "proof_bound_audit"): None,
    ("cache", "save_trace_table"): _file_bytes,
    ("cache", "save_hurwitz_table"): _file_bytes,
    ("cache", "load_trace_table"): _file_bytes,
    ("cache", "load_hurwitz_table"): _file_bytes,
}
CLI_COMMANDS = (
    "traces",
    "avalues",
    "hist",
    "verify_moments",
    "verify_brackets",
    "verify_distribution",
    "audit_constants",
)
TARGETS.update({("cli", f"cmd_{name}"): None for name in CLI_COMMANDS})

GENERATOR_SPAN = "fftgen.generate_trace_table"


class Tracer:
    """In-memory span recorder for one pass, identified by ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "counts": {},
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target the loaded k3batman still has; absent ones are skipped."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "k3batman" or name.startswith("k3batman.")
        ]
        for (module_name, attr), counter in TARGETS.items():
            original = getattr(sys.modules.get(f"k3batman.{module_name}"), attr, None)
            if original is None:
                continue
            traced = self._wrap(f"{module_name}.{attr}", original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def _summarise(spans: list[dict]):
    """Total time, self time, calls and summed counts per span name.

    A pass runs on one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    total, own = defaultdict(float), defaultdict(float)
    calls, counts = defaultdict(int), defaultdict(int)
    for span, child_time in zip(spans, covered):
        name, duration = span["name"], span["end"] - span["start"]
        total[name] += duration
        own[name] += duration - child_time
        calls[name] += 1
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] += value
    return total, own, calls, counts


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def pass_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass of a workload."""
    total, own, calls, counts = _summarise(spans)
    build, hbuild = total["clausen.build_trace_table"], total["hurwitz.build_hurwitz_table"]
    metrics = {
        "clausen.build_trace_table.s": build,
        "clausen.build_trace_table.calls": calls["clausen.build_trace_table"],
        "clausen.traces_per_s": _rate(counts["clausen.build_trace_table.traces"], build),
        "clausen.moment.s": total["clausen.moment"],
        "hurwitz.moment_rhs.s": total["hurwitz.moment_rhs"],
        "hurwitz.build_hurwitz_table.s": hbuild,
        "hurwitz.entries_per_s": _rate(counts["hurwitz.build_hurwitz_table.entries"], hbuild),
        "brackets.class_sum.s": total["brackets.class_sum_a"] + total["brackets.class_sum_b"],
        "brackets.coeff_side.s": total["brackets.coeff_side_a"] + total["brackets.coeff_side_b"],
        "brackets.pihol_coeff.s": total["brackets.pihol_coeff"],
        "brackets.deligne_audit.s": total["brackets.deligne_audit"],
        "stats.discrepancy_report.s": total["stats.discrepancy_report"],
        "stats.rows": counts["stats.discrepancy_report.rows"],
        "svg.render_histogram.s": total["svg.render_histogram"],
        "svg.histogram_counts.s": total["svg.histogram_counts"],
        "measures.s": sum(total[f"measures.{f}"] for f in ("mu_st", "mu_bat", "density_f")),
        "selberg.proof_bound_audit.s": total["selberg.proof_bound_audit"],
        "cache.save.s": total["cache.save_trace_table"] + total["cache.save_hurwitz_table"],
        "cache.save_bytes": counts["cache.save_trace_table.bytes"]
        + counts["cache.save_hurwitz_table.bytes"],
        "cache.load.s": total["cache.load_trace_table"] + total["cache.load_hurwitz_table"],
        "cache.load_bytes": counts["cache.load_trace_table.bytes"]
        + counts["cache.load_hurwitz_table.bytes"],
        # The CLI loads a table on a hit and saves the one it built on a miss.
        "cache.hits": calls["cache.load_trace_table"] + calls["cache.load_hurwitz_table"],
        "cache.misses": calls["cache.save_trace_table"] + calls["cache.save_hurwitz_table"],
        "field.make_context.s": total["field.make_context"],
        "field.make_context.calls": calls["field.make_context"],
    }
    for name in CLI_COMMANDS:
        metrics[f"cli.{name}.self_s"] = own[f"cli.cmd_{name}"]
    return metrics


def setup_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up of a workload."""
    total, _, _, _ = _summarise(spans)
    return {
        "setup.fftgen.s": total[GENERATOR_SPAN],
        "setup.hurwitz.build_hurwitz_table.s": total["hurwitz.build_hurwitz_table"],
    }


def unit_of(metric: str) -> str:
    """Units follow from the metric name's suffix."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"
