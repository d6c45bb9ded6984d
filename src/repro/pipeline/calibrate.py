"""Per-model statistical calibration of the three pipeline stages.

Like ``hmmbuild``'s calibration step, we score a sample of i.i.d.
background sequences with each stage's engine and fit the known-lambda
null distributions (:mod:`repro.pipeline.stats`).  The sample is scored
with the *same* quantized arithmetic the search uses, so quantization
biases cancel out of the P-values.  The filters run through the
cross-sequence batched kernels (:mod:`repro.kernels.batched`), which are
bit-identical to the reference engines, so the fits do not depend on
which engine a later search selects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cpu.forward_batch import forward_score_batch
from ..cpu.generic import GenericProfile
from ..errors import CalibrationError
from ..hmm.profile import SearchProfile
from ..kernels.batched import msv_batched_kernel, viterbi_batched_kernel
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import SequenceDatabase
from ..sequence.sequence import DigitalSequence
from ..sequence.synthetic import random_sequence_codes
from .stats import ScoreDistribution, bits_from_nats

__all__ = ["PipelineCalibration", "calibrate_profile"]


@dataclass(frozen=True)
class PipelineCalibration:
    """Fitted null distributions for the three stages, in bit-score space."""

    msv: ScoreDistribution
    vit: ScoreDistribution
    fwd: ScoreDistribution
    L: int              # length-model configuration the fits assume
    null_length_nats: float
    sample_size: int


def calibrate_profile(
    profile: SearchProfile,
    rng: np.random.Generator,
    n_filter: int = 400,
    n_forward: int = 120,
) -> PipelineCalibration:
    """Fit the stage null distributions for one configured profile.

    Parameters
    ----------
    n_filter:
        Background sample size for the MSV/Viterbi Gumbel fits.
    n_forward:
        Background sample size for the Forward exponential-tail fit
        (Forward is the expensive engine, so its sample is smaller).
    """
    if n_filter < 20 or n_forward < 20:
        raise CalibrationError("calibration samples must have at least 20 seqs")
    L = profile.L
    null_len = profile.null_length_correction(L)

    seqs = [
        DigitalSequence(f"calib/{i:05d}", random_sequence_codes(L, rng))
        for i in range(n_filter)
    ]
    db = SequenceDatabase(seqs, name="calibration")

    byte_prof = MSVByteProfile.from_profile(profile)
    word_prof = ViterbiWordProfile.from_profile(profile)
    msv_bits = bits_from_nats(msv_batched_kernel(byte_prof, db).scores, null_len)
    vit_bits = bits_from_nats(
        viterbi_batched_kernel(word_prof, db).scores, null_len
    )

    gp = GenericProfile.from_profile(profile)
    fwd_db = SequenceDatabase(seqs[:n_forward], name="calibration-fwd")
    fwd_nats = forward_score_batch(gp, fwd_db)
    fwd_bits = bits_from_nats(fwd_nats, null_len)

    return PipelineCalibration(
        msv=ScoreDistribution.fit("gumbel", np.asarray(msv_bits)),
        vit=ScoreDistribution.fit("gumbel", np.asarray(vit_bits)),
        fwd=ScoreDistribution.fit("exponential", np.asarray(fwd_bits)),
        L=L,
        null_length_nats=null_len,
        sample_size=n_filter,
    )
