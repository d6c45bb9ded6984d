#!/usr/bin/env python3
"""End-to-end benchmark of search, serving and scan.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload envnr_service --seed 1 \\
        --seconds 10 --trace 0

Workloads (sizes and reasons in ``perfbench/workloads.json``):
``envnr_service`` and ``pfam_scan``.  A run

1. draws its inputs from ``--seed`` and writes them under
   ``perfbench/out/`` (untimed);
2. runs the workload's set-up calls (``setup_s`` is the median over
   several set-ups; a traced run sets up once);
3. runs one untimed warm-up round, then operations in a closed loop,
   one client, for about ``--seconds``: whole rounds of one operation
   per model of the pool, stopping at the round boundary nearest to
   ``--seconds``;
4. scores every operation's inputs through the independent ``cpu_sse``
   engine and compares hits, E-values and per-stage survivor counts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``latency_p50_s`` (median operation time), ``latency_tail_s`` (the
highest percentile with at least ten operations beyond it; the printout
names the percentile and the count), ``mcups`` (sum of model length x
target residues over the timed operations, per second of their summed
time), ``peak_rss_mb`` and ``setup_s`` (wall seconds).  Operation
times are wall seconds scaled to a host of reference speed by the probe
of ``hostspeed.py``, run before every operation; the unscaled figures
are printed too and kept in the run's report.  The fraction of
operations that raised or disagreed with the reference is
``failed / attempted`` in the result line.
``--trace 1`` alternates untraced and traced rounds, writes every span
to ``perfbench/out/<workload>-seed<N>.spans.jsonl`` and reports the
per-layer metrics derived from that file.  Human-readable lines go
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import probe, scale_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())


@dataclass
class OpRecord:
    index: int
    traced: bool
    warmup: bool
    seconds: float
    probe_s: float
    raw: object = None
    digest: object = None
    fwd_lengths: list | None = None
    error: str | None = None


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_op(work, i: int, tracer, traced: bool, warmup: bool) -> OpRecord:
    span = (tracer.span("op", "bench", op=i, traced=int(traced),
                        warmup=int(warmup))
            if tracer is not None else contextlib.nullcontext())
    error = raw = None
    probe_s = probe()
    with span:
        t0 = time.perf_counter()
        try:
            raw = work.op(i, tracer if traced else None)
        except Exception:  # counted in failed; the loop keeps running
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    return OpRecord(i, traced, warmup, seconds, probe_s, raw=raw, error=error)


def timed_phase(work, seconds: float, tracer) -> tuple[list, float]:
    """One warm-up round, then a closed loop in rounds until the round
    boundary nearest to ``seconds`` (at least one round) or until the
    inputs run out.  A traced run's round is one untraced round then one
    traced round."""
    plan = (False,) if tracer is None else (False, True)
    records = [run_op(work, i, tracer, False, True)
               for i in range(work.round_size)]
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for traced in plan:
            for _ in range(work.round_size):
                if len(records) < work.capacity:
                    records.append(
                        run_op(work, len(records), tracer, traced, False))
        now = time.perf_counter()
        elapsed, last = now - t0, now - r0
        if len(records) >= work.capacity or elapsed + last / 2 >= seconds:
            return records, elapsed


def mcups(records: list[OpRecord], seconds: list[float]) -> float:
    """Millions of cells updated per second over ``records``, given
    each operation's time in ``seconds``; a failed operation counts its
    time but no cells."""
    cells = sum(r.digest.cells for r in records if r.error is None)
    return cells / sum(seconds) / 1e6



def check(work, records: list[OpRecord], corrupt_reference=None) -> None:
    """Digest every operation and compare it with the reference."""
    from workloads import compare, reference_outcomes

    done = []
    for rec in records:
        if rec.error is None:
            try:
                rec.digest = work.digest(rec.index, rec.raw)
                done.append(rec)
            except Exception:
                rec.error = traceback.format_exc(limit=3)
    reference = reference_outcomes(work, [(r.index, r.raw) for r in done])
    for rec in done:
        want, rec.fwd_lengths = reference[rec.index]
        if corrupt_reference is not None:
            want = corrupt_reference(want)
        rec.error = compare(rec.digest.outcome, want)
        rec.raw = None


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", out_dir: Path | None = None,
        corrupt_reference=None) -> dict:
    """One benchmark run; returns the result object and a report.
    ``scale="small"`` shrinks every input (the self-tests use it)."""
    # imported here, not at module level: without the program's source
    # the command must still start, and fail with a message
    from ledger import (computed_padding, latency_summary, layer_metrics,
                        modelled_k40_seconds, read_spans, write_spans)
    from repro import Tracer
    from workloads import WORKLOADS

    spec = SPEC["workloads"][workload]
    sizes = spec["sizes" if scale == "full" else "small_sizes"]
    e2e_units, layer_units = declared_metrics()
    out_dir = Path(out_dir) if out_dir is not None else HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    tracer = Tracer() if trace else None
    try:
        t0 = time.perf_counter()
        work = WORKLOADS[workload](sizes, seed, workdir, round(
            seconds * sizes["max_ops_per_s"]))
        phases = {"generate": time.perf_counter() - t0}
        t0 = time.perf_counter()
        setup_times = []
        for _ in range(1 if trace else sizes["setup_repeats"]):
            with (tracer.span("setup", "bench") if trace
                  else contextlib.nullcontext()):
                setup_times.append(work.setup(tracer))
        phases["setup"] = time.perf_counter() - t0
        records, phase_s = timed_phase(work, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t0 = time.perf_counter()
        check(work, records, corrupt_reference)
        phases["check"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.error is not None]
    probes = [r.probe_s for r in records]
    factors = scale_factors(probes)
    untraced = [r for r in records if not (r.traced or r.warmup)]
    wall = [r.seconds for r in untraced]
    scaled = [r.seconds * factors[r.index] for r in untraced]
    lat = latency_summary(scaled)
    wall_lat = latency_summary(wall)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale,
        "operations": len(records), "rounds_of": work.round_size,
        "phase_s": phase_s, "latency": lat,
        "failed_frac": len(failed) / len(records),
        "errors": [f"op {r.index}: {r.error}" for r in failed[:5]],
        "setup_times_s": setup_times,
        "wall": {
            "latency_p50_s": wall_lat["p50"],
            "latency_tail_s": wall_lat["tail"]["value"],
            "mcups": mcups(untraced, wall),
        },
        "phases_s": phases,
        "latencies_s": [(r.index, r.traced, r.seconds) for r in records],
        "probes_s": probes,
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_s": lat["p50"],
            "latency_tail_s": lat["tail"]["value"],
            "mcups": mcups(untraced, scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = e2e_units
    else:
        span_file = write_spans(out_dir / f"{workload}-seed{seed}.spans.jsonl",
                                tracer)
        values = layer_metrics(read_spans(span_file))
        # the second clock and the computed Forward padding are taken
        # over the first round, which every run executes, so they repeat
        # exactly for a seed
        first = [r for r in records[:work.round_size] if r.error is None]
        msv_k40, vit_k40 = modelled_k40_seconds(
            [w for r in first for w in r.digest.stages]
        )
        values["msv.modelled_k40_s"] = msv_k40 / max(len(first), 1)
        values["p7viterbi.modelled_k40_s"] = vit_k40 / max(len(first), 1)
        values["forward.padding_frac"] = computed_padding(
            [ls for r in first for ls in r.fwd_lengths]
        )
        report["span_file"] = str(span_file)
        units = layer_units
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    report["result"] = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "out" / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.report.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    lat = report["latency"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{report['operations']} operations in {report['phase_s']:.2f} s, "
          f"failed_frac {report['failed_frac']:.4f}")
    print(f"latency_tail_s is p{lat['tail']['percentile']:g} of "
          f"{lat['n']} untraced operations "
          f"({lat['tail']['beyond']} beyond it)")
    print("phases: " + ", ".join(
        f"{k} {v:.2f} s" for k, v in report["phases_s"].items()))
    for error in report["errors"]:
        print(f"FAILED {error}")
    for name, m in report["result"]["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print("unscaled wall-clock figures: " + ", ".join(
        f"{k} {v:.6g}" for k, v in report["wall"].items()))
    print(f"report: {out}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
