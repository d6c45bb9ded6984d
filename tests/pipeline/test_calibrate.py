"""Per-model statistical calibration."""

import numpy as np
import pytest

from repro.cpu import generic_forward_score, msv_score_batch, viterbi_score_batch
from repro.errors import CalibrationError
from repro.hmm import SearchProfile, sample_hmm
from repro.pipeline import HmmsearchPipeline, PipelineCalibration, calibrate_profile
from repro.pipeline.stats import ScoreDistribution, bits_from_nats
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.sequence import (
    DigitalSequence,
    SequenceDatabase,
    homolog_database,
    random_sequence_codes,
)


@pytest.fixture(scope="module")
def profile():
    return SearchProfile(sample_hmm(45, np.random.default_rng(8)), L=120)


@pytest.fixture(scope="module")
def calibration(profile):
    return calibrate_profile(
        profile, np.random.default_rng(0), n_filter=200, n_forward=50
    )


class TestCalibration:
    def test_kinds(self, calibration):
        assert calibration.msv.kind == "gumbel"
        assert calibration.vit.kind == "gumbel"
        assert calibration.fwd.kind == "exponential"

    def test_metadata(self, calibration, profile):
        assert calibration.L == profile.L
        assert calibration.sample_size == 200
        assert calibration.null_length_nats == pytest.approx(
            profile.null_length_correction(profile.L)
        )

    def test_reproducible(self, profile):
        a = calibrate_profile(
            profile, np.random.default_rng(0), n_filter=80, n_forward=25
        )
        b = calibrate_profile(
            profile, np.random.default_rng(0), n_filter=80, n_forward=25
        )
        assert a.msv.location == b.msv.location
        assert a.fwd.location == b.fwd.location

    def test_random_scores_get_large_pvalues(self, calibration):
        """A median random score must not look significant."""
        assert calibration.msv.pvalue(calibration.msv.location) > 0.2

    def test_high_scores_get_small_pvalues(self, calibration):
        assert calibration.msv.pvalue(calibration.msv.location + 30) < 1e-8
        assert calibration.fwd.pvalue(calibration.fwd.location + 30) < 1e-8

    def test_locations_are_negative_bits(self, calibration):
        """Random sequences score below zero bits against any real model."""
        assert calibration.msv.location < 0
        assert calibration.vit.location < 0

    def test_sample_size_validation(self, profile):
        with pytest.raises(CalibrationError):
            calibrate_profile(profile, np.random.default_rng(0), n_filter=5)
        with pytest.raises(CalibrationError):
            calibrate_profile(profile, np.random.default_rng(0), n_forward=5)

    def test_false_positive_rate_matches_threshold(self, profile):
        """Fresh random sequences pass the MSV gate at ~ the F1 rate -
        the property Figure 1's 2.2% rests on."""
        cal = calibrate_profile(
            profile, np.random.default_rng(0), n_filter=300, n_forward=50
        )
        rng = np.random.default_rng(999)  # disjoint from calibration
        db = SequenceDatabase(
            [
                DigitalSequence(f"r{i}", random_sequence_codes(profile.L, rng))
                for i in range(1500)
            ]
        )
        bp = MSVByteProfile.from_profile(profile)
        bits = bits_from_nats(
            msv_score_batch(bp, db).scores, cal.null_length_nats
        )
        rate = float((np.asarray(cal.msv.pvalue(bits)) < 0.02).mean())
        assert 0.005 < rate < 0.05


@pytest.fixture(scope="module")
def reference_calibration(profile):
    """The ``calibration`` fixture's fits, recomputed from the reference
    engines on the same seeded sample: ``msv_score_batch`` /
    ``viterbi_score_batch`` and per-sequence log-space Forward."""
    rng = np.random.default_rng(0)
    db = SequenceDatabase([
        DigitalSequence(f"calib/{i:05d}", random_sequence_codes(profile.L, rng))
        for i in range(200)
    ])
    null_len = profile.null_length_correction(profile.L)
    msv = msv_score_batch(MSVByteProfile.from_profile(profile), db).scores
    vit = viterbi_score_batch(ViterbiWordProfile.from_profile(profile), db).scores
    fwd = [generic_forward_score(profile, seq.codes) for seq in list(db)[:50]]
    return PipelineCalibration(
        msv=ScoreDistribution.fit("gumbel", bits_from_nats(msv, null_len)),
        vit=ScoreDistribution.fit("gumbel", bits_from_nats(vit, null_len)),
        fwd=ScoreDistribution.fit("exponential", bits_from_nats(fwd, null_len)),
        L=profile.L,
        null_length_nats=null_len,
        sample_size=200,
    )


class TestCalibrationMatchesReferenceEngines:
    """Calibration scores its sample through the batched kernels and the
    scaled odds-space Forward; the fits must not move."""

    def test_filter_fits_are_identical(self, calibration, reference_calibration):
        assert calibration.msv == reference_calibration.msv
        assert calibration.vit == reference_calibration.vit

    def test_forward_fit_matches_log_space(
        self, calibration, reference_calibration
    ):
        assert calibration.fwd.kind == reference_calibration.fwd.kind
        assert calibration.fwd.location == pytest.approx(
            reference_calibration.fwd.location, rel=1e-9
        )

    def test_search_reports_same_hits(
        self, profile, calibration, reference_calibration
    ):
        db = homolog_database(
            60, 150.0, np.random.default_rng(21), hmm=profile.hmm,
            homolog_fraction=0.2, name="pin",
        )
        runs = [
            HmmsearchPipeline(
                profile.hmm, L=profile.L, calibration=cal
            ).search(db)
            for cal in (calibration, reference_calibration)
        ]
        got, want = (run.hits for run in runs)
        assert want
        assert [h.name for h in got] == [h.name for h in want]
        for g, w in zip(got, want):
            assert g.evalue == pytest.approx(w.evalue, rel=1e-9)
