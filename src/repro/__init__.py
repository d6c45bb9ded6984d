"""repro: a reproduction of "Fine-Grained Acceleration of HMMER 3.0 via
Architecture-Aware Optimization on Massively Parallel Processors"
(Jiang & Ganesan, IPDPSW 2015).

The package contains a from-scratch HMMER 3.0 ``hmmsearch`` engine
(Plan-7 profile HMMs, the quantized MSV and ViterbiFilter scoring
systems, striped SSE baselines, full-precision Forward/Backward, the
filter pipeline with Gumbel/exponential statistics) plus a simulated
SIMT GPU substrate on which the paper's warp-synchronous kernels run
with bit-identical scores, and a mechanistic performance model that
regenerates every figure of the paper's evaluation.

The supported import surface is the :mod:`repro.api` facade::

    import repro

    hmm = repro.load_hmm("globin.hmm")
    db = repro.load_fasta("swissprot.fa")
    results = repro.search(hmm, db, repro.SearchOptions(engine="gpu"))
    print(results.summary())

Internals are imported from their defining submodule.  The few that
examples, benchmarks and tools need (``HmmsearchPipeline``,
``sample_hmm``, ``msv_warp_kernel``, ...) also resolve lazily from
:mod:`repro`, because the facade lint rule (R002) lets code outside the
package import only top-level names.
"""

from __future__ import annotations

from importlib import import_module

from .api import (
    EngineSpec,
    ScanOptions,
    SearchOptions,
    SearchResults,
    batch_search,
    fsck_library,
    get_engine,
    list_engines,
    load_fasta,
    load_hmm,
    load_library,
    press_library,
    register_engine,
    scan,
    search,
    search_many,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "load_hmm",
    "load_fasta",
    "search",
    "search_many",
    "batch_search",
    "press_library",
    "load_library",
    "fsck_library",
    "scan",
    "SearchOptions",
    "ScanOptions",
    "SearchResults",
    "EngineSpec",
    "register_engine",
    "get_engine",
    "list_engines",
]

# -- tooling surface (PEP 562) -----------------------------------------------
# The names that code outside the package (examples, the benchmark
# suites, tools) imports from `repro`.  The repro-lint facade rule (R002)
# lets that code import only top-level `repro` names, so each resolves
# lazily to its defining submodule on first attribute access.  Package
# code and tests import from the defining submodule instead; __all__
# above intentionally lists only the facade.

_LEGACY = {
    # alphabet & sequences
    "AMINO": "repro.alphabet",
    "packed_stream_bytes": "repro.alphabet",
    "unpack_residues": "repro.alphabet",
    "DigitalSequence": "repro.sequence",
    "SequenceDatabase": "repro.sequence",
    "read_fasta": "repro.sequence",
    "write_fasta": "repro.sequence",
    "swissprot_like": "repro.sequence",
    "envnr_like": "repro.sequence",
    "homolog_database": "repro.sequence",
    "random_sequence_codes": "repro.sequence",
    # models & profiles
    "SearchProfile": "repro.hmm",
    "build_hmm_from_msa": "repro.hmm",
    "sample_hmm": "repro.hmm",
    "save_hmm": "repro.hmm",
    "PAPER_MODEL_SIZES": "repro.hmm",
    "pfam_band_fractions": "repro.hmm",
    "sample_pfam_size": "repro.hmm",
    "MSVByteProfile": "repro.scoring",
    "ViterbiWordProfile": "repro.scoring",
    # CPU engines
    "msv_score_batch": "repro.cpu",
    "viterbi_score_batch": "repro.cpu",
    "generic_forward_score": "repro.cpu",
    "posterior_decode": "repro.cpu.posterior",
    "domain_regions": "repro.cpu.posterior",
    # GPU substrate & kernels
    "KEPLER_K40": "repro.gpu",
    "FERMI_GTX580": "repro.gpu",
    "KernelCounters": "repro.gpu",
    "MemoryConfig": "repro.kernels",
    "Stage": "repro.kernels",
    "SYNCS_PER_ROW": "repro.kernels",
    "msv_warp_kernel": "repro.kernels",
    "msv_multiwarp_sync_kernel": "repro.kernels",
    "viterbi_warp_kernel": "repro.kernels",
    "stage_occupancy": "repro.kernels",
    # pipeline & model-library scanning
    "HmmsearchPipeline": "repro.pipeline",
    "PipelineThresholds": "repro.pipeline",
    "LibraryCatalog": "repro.scan",
    "PressSettings": "repro.scan",
    "ScanService": "repro.scan",
    # data-plane hardening
    "STRICT": "repro.hardening",
    "SALVAGE": "repro.hardening",
    "RecordQuarantine": "repro.hardening",
    # observability
    "Tracer": "repro.obs",
    "compare_bench": "repro.obs",
    "load_bench": "repro.obs",
    "write_bench_json": "repro.obs",
    # performance model
    "DEFAULT_COSTS": "repro.perf",
    "CostConstants": "repro.perf",
    "StageWork": "repro.perf",
    "gpu_stage_time": "repro.perf",
    "cpu_stage_time": "repro.perf",
    "cpu_forward_time": "repro.perf",
    "best_gpu_stage_time": "repro.perf",
    "transfer_time_s": "repro.perf",
    "stage_speedup": "repro.perf",
    "optimal_stage_speedup": "repro.perf",
    "overall_speedup": "repro.perf",
    "multi_gpu_speedup": "repro.perf",
    "hybrid_stage_split": "repro.perf",
    "SchedulePolicy": "repro.perf",
    "imbalance_factor": "repro.perf",
    "kernel_intensity": "repro.perf",
    "ridge_point": "repro.perf",
    "roofline_summary": "repro.perf",
    "paper_hmm": "repro.perf",
    "paper_database": "repro.perf",
    "experiment_workload": "repro.perf",
    "PAPER_RESIDUES": "repro.perf.workloads",
    # batch service, durability and overload protection
    "BatchSearchService": "repro.service",
    "DevicePool": "repro.service",
    "FaultPlan": "repro.service",
    "PipelineCache": "repro.service",
    "PipelineSettings": "repro.service",
    "DurableRunJournal": "repro.service",
    "CrashPoint": "repro.service",
    "result_digest": "repro.service",
    "AdmissionLimits": "repro.service",
    "VirtualClock": "repro.service",
    "JournalCorruptError": "repro.errors",
    "OverloadError": "repro.errors",
}


def __getattr__(name: str):
    module = _LEGACY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(_LEGACY))
