#!/usr/bin/env python
"""Perf-trajectory harness: run the pinned synthetic workload traced,
emit ``BENCH_pipeline.json``, and optionally gate against a baseline.

The workload is fixed (seeded model + databases, fixed job mix over the
batch service's default heterogeneous pool) so the emitted stage shares
are comparable across commits; CI runs::

    python benchmarks/bench_trajectory.py --out BENCH_pipeline.json \\
        --check BENCH_pipeline.json --normalize

and fails when any stage's share of total wall time regressed more than
the tolerance against the committed baseline.  Shares (not absolute
seconds) are the gated quantity, so the check is robust to runner speed.

The harness also measures the tracing overhead: the same direct search
is run tracer-on and tracer-off and the ratio lands in ``meta`` -
pinning the "tracing off costs <2%, tracing on stays cheap" claim.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import (
    BatchSearchService,
    HmmsearchPipeline,
    PressSettings,
    ScanOptions,
    SearchOptions,
    Tracer,
    compare_bench,
    envnr_like,
    load_bench,
    press_library,
    sample_hmm,
    scan,
    swissprot_like,
    write_bench_json,
)

#: The pinned workload: (model size, database maker, database size, engine).
#: The engine column exercises the registry's high-throughput engines:
#: ``gpu_warp_batched`` (cross-sequence lane packing) carries the bulk
#: and one job runs the process-parallel ``mp`` backend (its workers
#: default to the batched inner engine).  The pre-batching engine mix
#: (``gpu_warp``/``cpu_sse``) is frozen
#: in ``benchmarks/results/BENCH_prebatch_baseline.json`` for the
#: ``--speedup-baseline`` gate.
WORKLOAD_SEED = 2015  # the paper's year; never change, or shares shift
FULL_JOBS = (
    (120, "swissprot", 400, "gpu_warp_batched"),
    (200, "swissprot", 400, "gpu_warp_batched"),
    (200, "envnr", 300, "gpu_warp_batched"),
    (120, "swissprot", 400, "mp"),
)
QUICK_JOBS = ((60, "swissprot", 120, "gpu_warp_batched"),)

#: The pinned scan workload: (model sizes, database size, engine).  One
#: sequence set against a pressed model library, scheduled by the scan
#: service's memconfig bucketing - the hmmscan direction's stage spans
#: land in the same trajectory document as the hmmsearch jobs above.
FULL_SCAN = ((40, 70, 110), 120, "gpu_warp_batched")
QUICK_SCAN = ((30,), 40, "gpu_warp_batched")

_MAKERS = {"swissprot": swissprot_like, "envnr": envnr_like}


def build_jobs(quick: bool):
    """Materialize the pinned (hmm, database, engine) job list."""
    jobs = []
    for M, db_kind, n_seqs, engine in QUICK_JOBS if quick else FULL_JOBS:
        rng = np.random.default_rng(WORKLOAD_SEED + M + n_seqs)
        hmm = sample_hmm(M, rng)
        db = _MAKERS[db_kind](n_seqs, rng, hmm=hmm)
        jobs.append((hmm, db, engine))
    return jobs


def run_workload(quick: bool = False) -> Tracer:
    """Run the pinned job mix through the batch service, traced."""
    tracer = Tracer()
    service = BatchSearchService(options=SearchOptions(tracer=tracer))
    for hmm, db, engine in build_jobs(quick):
        service.submit(hmm, db, engine=engine)
    service.run()
    run_scan_workload(tracer, quick)
    return tracer


def run_scan_workload(tracer: Tracer, quick: bool = False) -> None:
    """Press the pinned model library and scan it, onto ``tracer``."""
    sizes, n_seqs, engine = QUICK_SCAN if quick else FULL_SCAN
    rng = np.random.default_rng(WORKLOAD_SEED + sum(sizes))
    models = [sample_hmm(M, rng, name=f"scanfam{M}") for M in sizes]
    db = swissprot_like(n_seqs, rng, hmm=models[0])
    catalog = press_library(
        models,
        settings=PressSettings(
            L=200, calibration_filter_sample=120,
            calibration_forward_sample=40,
        ),
        name="bench-scan",
    )
    scan(
        catalog, db,
        ScanOptions(search=SearchOptions(engine=engine, tracer=tracer)),
    )


def tracing_overhead(quick: bool = False, repeats: int = 3) -> dict:
    """Wall-time ratio of a traced vs untraced direct search.

    Interleaves the two variants and takes the per-variant minimum over
    ``repeats`` rounds, so a background-noise spike in one round cannot
    masquerade as tracing overhead.
    """
    M, db_kind, n_seqs, _ = (QUICK_JOBS if quick else FULL_JOBS)[0]
    rng = np.random.default_rng(WORKLOAD_SEED + M + n_seqs)
    hmm = sample_hmm(M, rng)
    db = _MAKERS[db_kind](n_seqs, rng, hmm=hmm)
    pipeline = HmmsearchPipeline(hmm)
    pipeline.search(db)  # warm-up: touch every code path once
    offs, ons = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        untraced = pipeline.search(db)
        t1 = time.perf_counter()
        traced = pipeline.search(db, SearchOptions(tracer=Tracer()))
        t2 = time.perf_counter()
        assert len(traced.hits) == len(untraced.hits)
        offs.append(t1 - t0)
        ons.append(t2 - t1)
    off, on = min(offs), min(ons)
    return {
        "untraced_seconds": off,
        "traced_seconds": on,
        "overhead_fraction": (on - off) / off if off > 0 else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_pipeline.json", metavar="FILE",
        help="where to write the perf-trajectory JSON",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare the fresh run against this committed baseline and "
             "exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="fractional regression tolerance for --check (default 0.25)",
    )
    parser.add_argument(
        "--normalize", action="store_true",
        help="gate on each stage's share of total wall time instead of "
             "absolute seconds (machine-independent; what CI uses)",
    )
    parser.add_argument(
        "--speedup-baseline", default=None, metavar="FILE",
        help="frozen pre-batching trajectory (e.g. benchmarks/results/"
             "BENCH_prebatch_baseline.json); the fresh run must beat its "
             "total wall time by --min-speedup and keep the P7Viterbi "
             "and Forward shares below the MSV share, else exit 1",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="minimum total-wall-time speedup vs --speedup-baseline "
             "(default 2.0; CI gate - run locally expecting ~5x)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one small job instead of the full mix (for tests)",
    )
    parser.add_argument(
        "--skip-overhead", action="store_true",
        help="skip the traced-vs-untraced overhead measurement",
    )
    args = parser.parse_args(argv)

    baseline = load_bench(args.check) if args.check else None

    tracer = run_workload(quick=args.quick)
    meta = {"quick": args.quick, "seed": WORKLOAD_SEED}
    if not args.skip_overhead:
        meta["tracing_overhead"] = tracing_overhead(quick=args.quick)
    jobs = QUICK_JOBS if args.quick else FULL_JOBS
    scan_sizes, scan_seqs, scan_engine = QUICK_SCAN if args.quick else FULL_SCAN
    workload = {
        "name": "bench-trajectory",
        "seed": WORKLOAD_SEED,
        "jobs": [
            {"M": M, "database": db, "n_seqs": n, "engine": e}
            for M, db, n, e in jobs
        ],
        "scan": {
            "models": list(scan_sizes),
            "n_seqs": scan_seqs,
            "engine": scan_engine,
        },
    }
    path = write_bench_json(args.out, tracer.roots, workload, meta)
    doc = load_bench(path)
    print(f"wrote {path}: {doc['spans']['total']} spans, "
          f"{doc['totals']['wall_seconds']:.3f}s staged wall time")
    for name, st in doc["stages"].items():
        print(f"  {name:10s} {st['wall_seconds']:8.4f}s "
              f"share={st['share']:.3f} "
              f"residues/s={st['residues_per_s']:,.0f} "
              f"survival={st['survival']:.4f}")
    overhead = meta.get("tracing_overhead")
    if overhead is not None:
        print(f"tracing overhead: {100 * overhead['overhead_fraction']:+.2f}%"
              f" ({overhead['untraced_seconds']:.3f}s -> "
              f"{overhead['traced_seconds']:.3f}s)")

    if args.speedup_baseline:
        pre = load_bench(args.speedup_baseline)
        speedup = (
            pre["totals"]["wall_seconds"] / doc["totals"]["wall_seconds"]
        )
        msv_share = doc["stages"]["msv"]["share"]
        vit_share = doc["stages"]["p7viterbi"]["share"]
        fwd_share = doc["stages"]["forward"]["share"]
        print(f"speedup vs {args.speedup_baseline}: {speedup:.2f}x "
              f"(gate {args.min_speedup:.1f}x); "
              f"msv share {msv_share:.3f}, p7viterbi share {vit_share:.3f}, "
              f"forward share {fwd_share:.3f}")
        failed = False
        if speedup < args.min_speedup:
            print(f"\nBENCH SPEEDUP GATE: {speedup:.2f}x < "
                  f"{args.min_speedup:.1f}x required vs "
                  f"{args.speedup_baseline}", file=sys.stderr)
            failed = True
        if vit_share >= msv_share:
            print(f"\nBENCH SHARE GATE: P7Viterbi share {vit_share:.3f} "
                  f">= MSV share {msv_share:.3f} - cross-sequence "
                  "batching should leave the narrow-survivor P7Viterbi "
                  "stage cheaper than the every-sequence MSV stage",
                  file=sys.stderr)
            failed = True
        if fwd_share >= msv_share:
            print(f"\nBENCH SHARE GATE: Forward share {fwd_share:.3f} "
                  f">= MSV share {msv_share:.3f} - the scaled odds-space "
                  "Forward over the ~0.1% survivors should cost less "
                  "than the every-sequence MSV stage",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1

    if baseline is not None:
        problems = compare_bench(
            baseline, doc,
            tolerance=args.tolerance, normalize=args.normalize,
        )
        if problems:
            print(f"\nBENCH REGRESSION vs {args.check}:", file=sys.stderr)
            for p in problems:
                print(f"  {p}", file=sys.stderr)
            return 1
        kind = "shares" if args.normalize else "wall times"
        print(f"bench check vs {args.check}: stage {kind} within "
              f"{100 * args.tolerance:.0f}% - OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
