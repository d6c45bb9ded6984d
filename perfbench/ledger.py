"""Latency summaries, the modelled K40 clock, and the per-layer ledger
derived from a run's span file.

Every span in the file belongs to one layer.  Benchmark spans name
theirs in a ``layer`` tag; the program's spans are mapped by kind:
kernel spans to their stage (``msv``, ``p7viterbi``, ``forward``),
search and stage spans to ``pipeline``, job and schedule spans to
``service`` or ``scan``.  A span's self time is its duration minus its
children's, and a layer's self time is the sum over its spans.  The
self time of an ``op`` span itself is time no layer span covers.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from repro import KEPLER_K40, Stage, StageWork, best_gpu_stage_time

#: Operations that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least ten operations
    beyond it: the eleventh slowest operation, at percentile
    100 * (n - 10) / n.  With ten operations or fewer no percentile
    qualifies and the tail is the slowest operation."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": {"percentile": 100.0 * rank / n, "value": ordered[rank - 1],
                 "beyond": n - rank},
    }


def modelled_k40_seconds(stage_work: list) -> tuple[float, float]:
    """Modelled K40 seconds of the MSV and P7Viterbi launches described
    by ``[(M, [msv, p7viterbi, forward StageStats])]``."""
    totals = {Stage.MSV: 0.0, Stage.P7VITERBI: 0.0}
    for M, stages in stage_work:
        for stage, st in zip((Stage.MSV, Stage.P7VITERBI), stages):
            if st.n_in:
                work = StageWork(rows=st.rows, seqs=st.n_in, M=M)
                totals[stage] += best_gpu_stage_time(
                    stage, work, KEPLER_K40
                ).seconds
    return totals[Stage.MSV], totals[Stage.P7VITERBI]


def computed_padding(launches: list[list[int]]) -> float:
    """1 - sum(L) / sum(n * max L) over launches of sequence lengths."""
    grid = sum(len(ls) * max(ls) for ls in launches if ls)
    live = sum(sum(ls) for ls in launches)
    return 1.0 - live / grid if grid else 0.0


# -- span file ------------------------------------------------------------


def write_spans(path: Path, tracer) -> Path:
    """Write every span with its operation id (inherited from the
    enclosing ``op`` span; None for set-up spans) as JSON lines."""
    with path.open("w") as fh:
        def visit(sp, op):
            if sp.kind == "bench" and sp.name == "op":
                op = sp.tags["op"]
            fh.write(json.dumps({
                "span_id": sp.span_id, "parent_id": sp.parent_id,
                "name": sp.name, "kind": sp.kind,
                "start": sp.start, "end": sp.end, "op": op,
                "tags": sp.tags, "counters": sp.counters,
            }) + "\n")
            for child in sp.children:
                visit(child, op)

        for root in tracer.roots:
            visit(root, None)
    return path


def read_spans(path: Path) -> list[dict]:
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {s["span_id"]: s for s in spans}
    for s in spans:
        s["seconds"] = s["end"] - s["start"]
        s["child_seconds"] = 0.0
    for s in spans:  # parents precede children in the file
        parent = by_id.get(s["parent_id"])
        if parent is not None:
            parent["child_seconds"] += s["seconds"]
        s["layer"] = _layer(s, parent)
    for s in spans:
        s["self"] = s["seconds"] - s["child_seconds"]
    return spans


def _layer(s: dict, parent: dict | None) -> str | None:
    kind, name = s["kind"], s["name"]
    if kind == "bench":
        return s["tags"].get("layer")
    if kind == "kernel":
        return s["tags"].get("stage")
    if kind in ("search", "stage"):
        return "pipeline"
    if kind == "job":
        return "scan" if name.startswith("scan:") else "service"
    if kind == "schedule":
        return "scan" if name.startswith("bucket:") else "service"
    return parent["layer"] if parent is not None else None


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced run, from its span file."""
    ops = [s for s in spans if s["kind"] == "bench" and s["name"] == "op"]
    traced_ids = {s["op"] for s in ops if s["tags"]["traced"]}
    traced_ops = [s for s in ops if s["op"] in traced_ids]
    untraced = [s["seconds"] for s in ops
                if not (s["tags"]["traced"] or s["tags"]["warmup"])]
    n = len(traced_ops)
    in_ops = [s for s in spans if s["op"] in traced_ids]
    in_setup = [s for s in spans if s["op"] is None]

    def self_s(layer):
        return sum(s["self"] for s in in_ops if s["layer"] == layer) / n

    def setup_s(layer):
        return sum(s["seconds"] for s in in_setup if s["layer"] == layer)

    def stage(name, key):
        return sum(s["counters"].get(key, 0) for s in in_ops
                   if s["kind"] == "stage" and s["name"] == name)

    def kernel(name, key):
        return sum(s["counters"].get(key, 0) for s in in_ops
                   if s["kind"] == "kernel" and s["layer"] == name)

    def kernel_s(name):
        return sum(s["seconds"] for s in in_ops
                   if s["kind"] == "kernel" and s["layer"] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    ingest = [s for s in spans if s["layer"] == "ingest"]
    prepare = [s for s in in_ops
               if s["kind"] == "schedule" and s["name"] == "prepare"]
    m = {
        "calibrate.setup_calls": sum(
            1 if s["layer"] == "calibrate"
            else s["counters"].get("calibrations", 0)
            for s in in_setup if s["kind"] == "bench"
        ),
        "calibrate.setup_s": setup_s("calibrate"),
        "ingest.busy_s": self_s("ingest"),
        "ingest.setup_s": setup_s("ingest"),
        "ingest.mb_per_s": ratio(
            sum(s["counters"].get("bytes", 0) for s in ingest) / 1e6,
            sum(s["seconds"] for s in ingest),
        ),
        "pipeline.self_s": self_s("pipeline"),
        "service.self_s": self_s("service"),
        "service.cache_hit_ratio": ratio(
            sum(s["tags"].get("cache") == "hit" for s in prepare),
            len(prepare),
        ),
        "scan.self_s": self_s("scan"),
        "scan.press_s": setup_s("scan.press"),
        "scan.load_s": setup_s("scan.load"),
        "scan.launch_groups": sum(
            int(s["tags"].get("launches", 0)) for s in in_ops
            if s["kind"] == "schedule" and s["name"].startswith("bucket:")
        ) / n,
        "trace.unaccounted_frac": ratio(
            sum(s["self"] for s in traced_ops),
            sum(s["seconds"] for s in traced_ops),
        ),
        "trace.overhead_frac": (
            statistics.median(s["seconds"] for s in traced_ops)
            / statistics.median(untraced) - 1.0
        ),
    }
    for name in ("msv", "p7viterbi", "forward"):
        m[f"{name}.busy_s"] = self_s(name)
        m[f"{name}.survival"] = ratio(stage(name, "n_out"),
                                      stage(name, "n_in"))
        m[f"{name}.mcups"] = ratio(stage(name, "cells") / 1e6, kernel_s(name))
    # the lane-packed filter kernels count their padding; Forward's is
    # computed from survivor lengths by the caller
    for name in ("msv", "p7viterbi"):
        m[f"{name}.padding_frac"] = ratio(kernel(name, "padding_cells"),
                                          kernel(name, "grid_cells"))
    m["forward.sequences"] = kernel("forward", "sequences") / n
    return m
