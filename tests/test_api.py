"""Public API surface: the repro.api facade, the lazily resolved
tooling names, and the README snippets."""

from importlib import import_module

import numpy as np
import pytest

import repro
import repro.api
from repro import engines


FACADE = [
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


def test_all_is_the_facade():
    assert repro.__all__ == ["__version__"] + FACADE
    assert repro.api.__all__ == FACADE
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_facade_names_are_the_api_objects():
    for name in FACADE:
        assert getattr(repro, name) is getattr(repro.api, name)


#: Names that once resolved lazily from ``repro`` and no longer do:
#: they are deleted, or imported only from their defining submodule.
DELETED_NAMES = [
    "Engine", "RunJournal", "ModelLibrary", "ScanHit", "ScanResults",
    "hmm_fingerprint", "content_seed", "AminoAlphabet", "pack_residues",
    "Plan7HMM", "NullModel", "msv_score_sequence", "viterbi_score_sequence",
    "generic_viterbi_score", "generic_backward_score", "DeviceSpec",
    "OracleReport", "Divergence", "GuardrailCounters", "PosteriorDecoding",
    "viterbi_traceback", "ViterbiAlignment", "align_to_profile",
    "CatalogEntry", "LibraryScanHit", "LibraryScanResults", "BucketPlan",
    "ModelBucket", "CoscheduleGroup", "build_bucket_plan",
    "coschedule_groups", "memconfig_crossover", "IngestPolicy",
    "PolicyMode", "QuarantinedRecord", "ReproError", "QuarantineError",
    "DivergenceError", "CatalogError", "UnknownEngineError", "FaultKind",
    "FaultSpec", "WriteAheadJournal", "ShardCheckpoint", "WAL_SCHEMA",
    "MetricsRegistry", "FsckReport", "FsckProblem", "fsck_store",
    "RetryPolicy", "Scheduler", "JobQueue", "submit_manifest",
    "AdmissionController", "CostEstimate", "DegradationState",
    "estimate_job_cost", "Deadline", "ShardWatchdog", "DeadlineExceeded",
    "SanitizerReport", "WarpSanitizer",
]


def test_legacy_names_still_resolve():
    for name in repro._LEGACY:
        assert getattr(repro, name) is not None, name
        assert name in dir(repro)


def test_legacy_names_are_the_defining_objects():
    for name, module in repro._LEGACY.items():
        assert getattr(repro, name) is getattr(import_module(module), name)


@pytest.mark.parametrize("name", DELETED_NAMES)
def test_deleted_names_raise(name):
    assert name not in repro._LEGACY
    with pytest.raises(AttributeError, match=name):
        getattr(repro, name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.options", "Engine"),
        ("repro.options", "UNSET"),
        ("repro.options", "resolve_search_options"),
        ("repro.service", "RunJournal"),
        ("repro.service.resilience", "RunJournal"),
        ("repro.service.cache", "hmm_fingerprint"),
        ("repro.service.job", "_job_fingerprint"),
        ("repro.pipeline", "ModelLibrary"),
        ("repro.pipeline", "Engine"),
    ],
)
def test_compatibility_layer_is_gone(module, name):
    assert not hasattr(import_module(module), name)


def test_removed_modules_and_methods():
    with pytest.raises(ModuleNotFoundError):
        import_module("repro.pipeline.hmmscan")
    assert not hasattr(repro.SearchOptions, "with_")


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="warp_speed"):
        repro.warp_speed


def test_version():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_facade_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    hmm = repro.sample_hmm(40, rng)
    db = repro.swissprot_like(50, rng, hmm=hmm)
    hmm_path, fa_path = tmp_path / "m.hmm", tmp_path / "db.fa"
    repro.save_hmm(hmm_path, hmm)
    repro.write_fasta(fa_path, db)
    loaded_hmm = repro.load_hmm(hmm_path)
    loaded_db = repro.load_fasta(fa_path)
    assert loaded_hmm.name == hmm.name
    assert len(loaded_db) == len(db)
    results = repro.search(loaded_hmm, loaded_db)
    assert isinstance(results, repro.SearchResults)
    assert results.n_targets == 50


def test_facade_search_matches_pipeline():
    rng = np.random.default_rng(0)
    hmm = repro.sample_hmm(50, rng)
    db = repro.swissprot_like(60, rng, hmm=hmm)
    direct = repro.HmmsearchPipeline(hmm).search(db)
    via_facade = repro.search(hmm, db)
    assert via_facade.hit_names() == direct.hit_names()


def test_facade_batch_search():
    rng = np.random.default_rng(2)
    hmm = repro.sample_hmm(40, rng)
    db = repro.envnr_like(50, rng, hmm=hmm)
    opts = repro.SearchOptions(engine="gpu")
    jobs, report = repro.batch_search(
        [(hmm, db), (hmm, db, repro.SearchOptions(engine="cpu"))],
        options=opts,
    )
    assert [j.state.value for j in jobs] == ["done", "done"]
    assert jobs[0].engine is engines.resolve("gpu_warp")
    assert jobs[1].engine is engines.resolve("cpu_sse")
    assert jobs[0].results.hit_names() == jobs[1].results.hit_names()
    assert "batch search service report" in report


def test_readme_quickstart():
    rng = np.random.default_rng(0)
    hmm = repro.sample_hmm(50, rng)
    db = repro.swissprot_like(60, rng, hmm=hmm)
    pipeline = repro.HmmsearchPipeline(
        hmm, calibration_filter_sample=80, calibration_forward_sample=25
    )
    results = pipeline.search(db)
    assert results.n_targets == 60
    assert "msv" in results.summary()


def test_readme_gpu_snippet():
    rng = np.random.default_rng(1)
    hmm = repro.sample_hmm(40, rng)
    db = repro.envnr_like(50, rng, hmm=hmm)
    pipeline = repro.HmmsearchPipeline(
        hmm, calibration_filter_sample=80, calibration_forward_sample=25
    )
    cpu = pipeline.search(db)
    gpu = pipeline.search(
        db,
        repro.SearchOptions(
            engine="gpu_warp",
            device=repro.KEPLER_K40,
            config=repro.MemoryConfig.SHARED,
        ),
    )
    assert gpu.hit_names() == cpu.hit_names()
    assert gpu.counters["msv"].syncthreads == 0


def test_error_hierarchy():
    from repro.errors import (
        AlphabetError,
        CalibrationError,
        FormatError,
        KernelError,
        LaunchError,
        ModelError,
        PipelineError,
        ProfileError,
        ReproError,
        SequenceError,
    )

    for exc in (
        AlphabetError,
        SequenceError,
        ModelError,
        ProfileError,
        FormatError,
        KernelError,
        LaunchError,
        PipelineError,
        CalibrationError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_constants_are_consistent():
    from repro import constants as c

    assert c.MSV_SCALE == pytest.approx(3.0 / c.LOG2)
    assert c.VF_SCALE == pytest.approx(500.0 / c.LOG2)
    assert c.GUMBEL_LAMBDA == c.EXP_LAMBDA == c.LOG2
    assert c.RESIDUE_BITS * c.RESIDUES_PER_WORD <= 32
    assert c.PACK_TERMINATOR < (1 << c.RESIDUE_BITS)
    assert c.DEFAULT_F1 > c.DEFAULT_F2 > c.DEFAULT_F3
