"""Every entry point reports the same hits for one seeded workload.

One (model, database) pair with planted homologs goes through each way
into the search engine: the pipeline itself, the ``repro.search`` /
``repro.search_many`` / ``repro.batch_search`` facade, the batch
service checkpointing into a durable journal and then resuming from
it, ``repro.scan`` over a one-model library, and the CLI ``search``
subcommand.  Each entry point's :func:`result_digest` is pinned as a
literal, so a refactor that changes any reported hit or E-value fails
here.  The entry points that share calibration settings (everything
but the scan, which calibrates with the pressed-library settings and
scales E-values by library size) must also agree with each other.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro import cli
from repro.hmm.hmmfile import save_hmm
from repro.hmm.sampler import sample_hmm
from repro.pipeline.pipeline import HmmsearchPipeline
from repro.sequence.fasta import write_fasta
from repro.sequence.synthetic import homolog_database
from repro.service import BatchSearchService, DurableRunJournal, result_digest

#: The digest every default-calibration entry point reports.
SEARCH_DIGEST = (
    "4e14d56483029e8f4742fda2ccf5c702863cae1513eec713765ca30b31cd0df2"
)
#: The digest of the one-model library scan.
SCAN_DIGEST = (
    "0cdb5e81bfa7e3a3d3d5411cd60f2c7d19bc345d9dd1da740209db5c9fc21fe7"
)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """The model and database as read back from disk, so the CLI (which
    only sees the files) scores exactly what the in-process calls do."""
    rng = np.random.default_rng(1305)
    hmm = sample_hmm(36, rng, name="digestfam")
    db = homolog_database(
        40, 150.0, rng, hmm=hmm, homolog_fraction=0.15, name="digestdb"
    )
    root = tmp_path_factory.mktemp("digests")
    model_path = root / "digestfam.hmm"
    db_path = root / "digestdb.fasta"
    save_hmm(model_path, hmm)
    write_fasta(db_path, db)
    return (
        model_path, db_path, repro.load_hmm(model_path),
        repro.load_fasta(db_path),
    )


@pytest.fixture(scope="module")
def pipeline(workload):
    _, _, hmm, _ = workload
    return HmmsearchPipeline(hmm)


def scan_digest(results) -> str:
    """:func:`result_digest` of a library scan, read as a search result."""
    return result_digest(
        SimpleNamespace(
            n_targets=results.n_sequences,
            hits=[
                SimpleNamespace(name=h.sequence_name, evalue=h.evalue)
                for h in results.hits
            ],
        )
    )


class TestPinnedDigests:
    def test_pipeline_search(self, workload, pipeline):
        results = pipeline.search(workload[3])
        assert results.hits, "the workload must report planted homologs"
        assert result_digest(results) == SEARCH_DIGEST

    def test_facade_search(self, workload):
        _, _, hmm, db = workload
        assert result_digest(repro.search(hmm, db)) == SEARCH_DIGEST

    def test_facade_search_many(self, workload):
        _, _, hmm, db = workload
        assert result_digest(repro.search_many(hmm, db)) == SEARCH_DIGEST
        assert result_digest(repro.search_many(hmm, list(db))) == SEARCH_DIGEST

    def test_facade_batch_search(self, workload):
        _, _, hmm, db = workload
        jobs, _ = repro.batch_search([(hmm, db)])
        assert [result_digest(j.results) for j in jobs] == [SEARCH_DIGEST]

    def test_service_journal_then_resume(self, workload, tmp_path):
        _, _, hmm, db = workload
        path = tmp_path / "run.wal"
        service = BatchSearchService(journal=DurableRunJournal(path))
        service.submit(hmm, db, job_id="digest-job")
        (job,) = service.run()
        service.journal.close()
        assert result_digest(job.results) == SEARCH_DIGEST

        journal = DurableRunJournal(path)
        resumed = BatchSearchService(journal=journal)
        resumed.submit(hmm, db, job_id="digest-job")
        (job,) = resumed.run()
        journal.close()
        assert job.resumed
        assert journal.completed("digest-job")["digest"] == SEARCH_DIGEST

    def test_scan_one_model_library(self, workload):
        _, _, hmm, db = workload
        results = repro.scan(repro.press_library([hmm]), db)
        assert results.hits
        assert scan_digest(results) == SCAN_DIGEST

    def test_cli_search(self, workload, monkeypatch, capsys):
        model_path, db_path, _, _ = workload
        seen = []
        search = HmmsearchPipeline.search

        def recording_search(self, *args, **kwargs):
            results = search(self, *args, **kwargs)
            seen.append(results)
            return results

        monkeypatch.setattr(HmmsearchPipeline, "search", recording_search)
        assert cli.main(["search", str(model_path), str(db_path)]) == 0
        assert "digestfam" in capsys.readouterr().out
        assert [result_digest(r) for r in seen] == [SEARCH_DIGEST]
