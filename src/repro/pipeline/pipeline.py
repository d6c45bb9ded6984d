"""The hmmsearch task pipeline (paper Figure 1).

``MSV filter -> P7Viterbi filter -> Forward``, with P-value thresholds
between stages (HMMER 3.0 defaults: 0.02, 1e-3, 1e-5).  The two
accelerated stages dispatch through the engine registry
(:mod:`repro.engines`): ``cpu_sse`` (the vectorized golden reference,
bit-identical to the striped SSE simulation), ``gpu_warp`` (the paper's
warp-synchronous kernels), ``gpu_warp_batched`` (cross-sequence batched
kernels) and ``mp`` (process pool), selectable per stage via
``SearchOptions.engine``.

All produce *identical* results - the paper's accuracy-preservation
claim - which the test suite asserts; they differ in the hardware event
counters and in the stage times the performance model assigns.

:meth:`HmmsearchPipeline.search` takes a
:class:`~repro.options.SearchOptions`; the historical per-kwarg calling
convention (``engine=``, ``selfcheck=``, ``policy=``, ...) still works
through the deprecation shim.  When ``options.tracer`` is armed, the
search records a span tree (search -> stage -> kernel, with schedule
and shard levels added by the service executors) carrying stage
funnels, kernel counters, occupancy and memory-config choices; with the
tracer off, results are bit-identical and the instrumentation reduces
to one ``is None`` check per block.
"""

from __future__ import annotations

import numpy as np

from ..cpu.forward_batch import FORWARD_KERNEL, forward_score_batch
from ..cpu.generic import GenericProfile, generic_forward_score
from ..cpu.msv_reference import msv_score_sequence
from ..cpu.viterbi_reference import viterbi_score_sequence
from ..errors import DivergenceError, PipelineError
from ..gpu.counters import KernelCounters
from ..hardening import RecordQuarantine
from ..hmm.background import NullModel
from ..hmm.plan7 import Plan7HMM
from ..hmm.profile import SearchProfile
from ..obs.span import span
from ..options import (
    UNSET,
    Engine,
    PipelineThresholds,
    SearchOptions,
    resolve_search_options,
)
from ..scoring.guardrails import GuardrailCounters
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import SequenceDatabase
from .calibrate import PipelineCalibration, calibrate_profile
from .oracle import FORWARD_ABS_TOL, Divergence, OracleReport, sample_indices, scores_match
from .results import SearchHit, SearchResults, StageStats
from .stats import bits_from_nats

__all__ = ["Engine", "PipelineThresholds", "HmmsearchPipeline"]


class HmmsearchPipeline:
    """A query model prepared for searching sequence databases.

    Construction configures the search profile, quantizes the filter
    profiles and calibrates the stage statistics; :meth:`search` can then
    be run against any number of databases.

    Parameters
    ----------
    hmm:
        The query Plan-7 model.
    L:
        Length-model configuration used for scoring and calibration
        (HMMER reconfigures per target; we use a fixed representative
        length, which shifts all scores coherently and cancels in the
        calibrated P-values).
    seed:
        Seed of the calibration sample; fixed by default so results are
        reproducible.
    """

    def __init__(
        self,
        hmm: Plan7HMM,
        L: int = 400,
        multihit: bool = True,
        thresholds: PipelineThresholds | None = None,
        null: NullModel | None = None,
        seed: int = 42,
        calibration_filter_sample: int = 400,
        calibration_forward_sample: int = 120,
        calibration: PipelineCalibration | None = None,
    ) -> None:
        self.hmm = hmm
        self.thresholds = thresholds or PipelineThresholds()
        self.profile = SearchProfile(hmm, null=null, multihit=multihit, L=L)
        self.byte_profile = MSVByteProfile.from_profile(self.profile)
        self.word_profile = ViterbiWordProfile.from_profile(self.profile)
        self.generic_profile = GenericProfile.from_profile(self.profile)
        if calibration is not None and calibration.L != self.profile.L:
            raise PipelineError(
                f"supplied calibration was fitted at L={calibration.L}, "
                f"pipeline is configured with L={self.profile.L}"
            )
        # a pre-fitted calibration (e.g. from a pressed library catalog)
        # skips the expensive background-sample scoring entirely
        self.calibration: PipelineCalibration = (
            calibration
            if calibration is not None
            else calibrate_profile(
                self.profile,
                np.random.default_rng(seed),
                n_filter=calibration_filter_sample,
                n_forward=calibration_forward_sample,
            )
        )

    # -- stage engines ------------------------------------------------------

    def _score_filter(
        self, stage_name, profile, db, opts, counters,
        executor=None, guard=None,
    ):
        """Score one accelerated filter stage (MSV or P7Viterbi).

        Dispatch goes through the engine registry: the stage's resolved
        :class:`~repro.engines.EngineSpec` owns the scoring strategy
        (reference batch, warp kernel, cross-sequence batched kernel,
        process pool).  The device-pool ``executor`` is handed only to
        ``pooled`` engines - the others score in-process and the
        sharded-retry machinery never sees them.
        """
        spec = opts.engine.spec_for(stage_name)
        return spec.scorer(
            stage_name, profile, db,
            opts=opts, counters=counters, guard=guard,
            executor=executor if spec.pooled else None,
            M=self.profile.M,
        )

    # -- search ---------------------------------------------------------------

    def search(
        self,
        database: SequenceDatabase,
        options: SearchOptions | None = None,
        *,
        executor: object | None = None,
        engine=UNSET,
        device=UNSET,
        config=UNSET,
        alignments=UNSET,
        selfcheck=UNSET,
        policy=UNSET,
        quarantine=UNSET,
    ) -> SearchResults:
        """Run the three-stage pipeline over a database.

        All behaviour is configured by ``options``
        (:class:`~repro.options.SearchOptions`); the trailing keyword
        arguments are the deprecated pre-options calling convention and
        fold into ``options`` via the shim, emitting a
        ``DeprecationWarning``.

        With ``options.alignments`` every reported hit additionally
        carries its optimal Viterbi alignment (domains, coordinates,
        rendering) - the post-pipeline step real hmmsearch output
        includes.

        ``executor`` replaces the single-device GPU dispatch: any object
        with ``score_stage(name, kernel, profile, database, *, config,
        counters) -> FilterScores`` (the batch search service passes a
        device-pool executor here to spread each stage across several
        simulated devices).  Scores - and therefore hits - are identical
        either way; only the per-device accounting differs.

        ``options.selfcheck = N`` arms the runtime differential oracle:
        a deterministic sample of up to ``N`` sequences is shadow-scored
        through the scalar reference engines and compared against the
        pipeline's scores (bit-exact for the quantized filters, tiny
        absolute tolerance for Forward).  On divergence a strict
        ``options.policy`` raises
        :class:`~repro.errors.DivergenceError` naming the sequence and
        stage; a salvage policy drops the diverged sequences from the
        hit list and records them into ``options.quarantine`` (kind
        ``divergence``).  The full outcome is returned as
        ``SearchResults.oracle`` either way.

        ``options.tracer`` records a ``search`` span wrapping one
        ``stage`` span per pipeline stage (funnel counters attached) and
        a ``kernel`` span per kernel launch; tracing never changes
        scores, hits or stats - the invariant the test suite pins.
        """
        opts = resolve_search_options(
            options, "HmmsearchPipeline.search",
            engine=engine, device=device, config=config,
            alignments=alignments, selfcheck=selfcheck, policy=policy,
            quarantine=quarantine,
        )
        tracer = opts.tracer
        n = len(database)
        M = self.profile.M
        null_len = self.calibration.null_length_nats
        th = opts.thresholds or self.thresholds
        counters: dict[str, KernelCounters] = {}

        with span(
            tracer, f"search:{self.hmm.name}", "search",
            query=self.hmm.name, database=database.name,
            engine=opts.engine.value, M=M,
        ) as search_span:
            if search_span is not None:
                search_span.count(targets=n, residues=database.total_residues)

            # ---- stage 1: MSV filter over everything ----
            guard1 = GuardrailCounters() if opts.guard else None
            with span(tracer, "msv", "stage", stage="msv") as st_span:
                msv_scores = self._score_filter(
                    "msv", self.byte_profile,
                    database, opts, counters, executor, guard1,
                )
                if guard1 is not None:
                    guard1.overflows += int(
                        np.count_nonzero(msv_scores.overflowed)
                    )
                msv_bits = np.asarray(
                    bits_from_nats(msv_scores.scores, null_len)
                )
                msv_p = self.calibration.msv.pvalue(msv_bits)
                pass1 = np.flatnonzero(msv_p < th.f1)
                stage1 = StageStats(
                    name="msv",
                    n_in=n,
                    n_out=int(pass1.size),
                    rows=database.total_residues,
                    cells=database.total_residues * M,
                    guard=guard1,
                )
                if st_span is not None:
                    st_span.count(
                        n_in=stage1.n_in, n_out=stage1.n_out,
                        rows=stage1.rows, cells=stage1.cells,
                    )

            # ---- stage 2: P7Viterbi over MSV survivors ----
            vit_bits = np.full(n, np.nan)
            vit_p = np.full(n, np.nan)
            pass2 = np.array([], dtype=np.int64)
            rows2 = 0
            guard2 = GuardrailCounters() if opts.guard else None
            vit_nats: dict[int, float] = {}
            with span(tracer, "p7viterbi", "stage", stage="p7viterbi") as st_span:
                if pass1.size:
                    sub = database.subset(pass1.tolist())
                    rows2 = sub.total_residues
                    vit_scores = self._score_filter(
                        "p7viterbi", self.word_profile,
                        sub, opts, counters, executor, guard2,
                    )
                    if guard2 is not None:
                        guard2.overflows += int(
                            np.count_nonzero(vit_scores.overflowed)
                        )
                        guard2.underflows += int(
                            np.count_nonzero(np.isneginf(vit_scores.scores))
                        )
                    vit_nats = {
                        int(i): float(s)
                        for i, s in zip(pass1, vit_scores.scores)
                    }
                    vb = np.asarray(bits_from_nats(vit_scores.scores, null_len))
                    vit_bits[pass1] = vb
                    vp = self.calibration.vit.pvalue(vb)
                    vit_p[pass1] = vp
                    pass2 = pass1[vp < th.f2]
                stage2 = StageStats(
                    name="p7viterbi",
                    n_in=int(pass1.size),
                    n_out=int(pass2.size),
                    rows=rows2,
                    cells=rows2 * M,
                    guard=guard2,
                )
                if st_span is not None:
                    st_span.count(
                        n_in=stage2.n_in, n_out=stage2.n_out,
                        rows=stage2.rows, cells=stage2.cells,
                    )

            # ---- stage 3: Forward over Viterbi survivors (always CPU) ----
            fwd_bits = np.full(n, np.nan)
            fwd_p = np.full(n, np.nan)
            hits: list[SearchHit] = []
            rows3 = 0
            guard3 = GuardrailCounters() if opts.guard else None
            fwd_nats: dict[int, float] = {}
            with span(tracer, "forward", "stage", stage="forward") as st_span:
                if pass2.size:
                    sub3 = database.subset(pass2.tolist())
                    with span(
                        tracer, "forward_batch", "kernel",
                        stage="forward", engine=FORWARD_KERNEL,
                    ) as ks:
                        batch_nats = forward_score_batch(
                            self.generic_profile, sub3, guard=guard3
                        )
                        if ks is not None:
                            ks.count(
                                rows=sub3.total_residues, sequences=len(sub3)
                            )
                    fwd_nats = {
                        int(idx): float(v)
                        for idx, v in zip(pass2, batch_nats)
                    }
                for idx in pass2:
                    seq = database[int(idx)]
                    rows3 += len(seq)
                    nats = fwd_nats[int(idx)]
                    fb = float(bits_from_nats(nats, null_len))
                    fwd_bits[idx] = fb
                    fp = float(self.calibration.fwd.pvalue(fb))
                    fwd_p[idx] = fp
                    if fp < th.f3:
                        evalue = fp * n
                        if evalue <= th.report_evalue:
                            aln = None
                            if opts.alignments:
                                from ..cpu.traceback import viterbi_traceback

                                aln = viterbi_traceback(
                                    self.generic_profile, seq.codes
                                )
                            hits.append(
                                SearchHit(
                                    name=seq.name,
                                    index=int(idx),
                                    length=len(seq),
                                    msv_bits=float(msv_bits[idx]),
                                    msv_p=float(msv_p[idx]),
                                    vit_bits=float(vit_bits[idx]),
                                    vit_p=float(vit_p[idx]),
                                    fwd_bits=fb,
                                    fwd_p=fp,
                                    evalue=evalue,
                                    alignment=aln,
                                )
                            )
                n_pass3 = sum(1 for idx in pass2 if fwd_p[idx] < th.f3)
                stage3 = StageStats(
                    name="forward",
                    n_in=int(pass2.size),
                    n_out=int(n_pass3),
                    rows=rows3,
                    cells=rows3 * M,
                    guard=guard3,
                )
                if st_span is not None:
                    st_span.count(
                        n_in=stage3.n_in, n_out=stage3.n_out,
                        rows=stage3.rows, cells=stage3.cells,
                    )

            # ---- differential oracle over a deterministic sample ----
            oracle = None
            if opts.selfcheck > 0:
                oracle = self._run_oracle(
                    database, opts.selfcheck, msv_scores.scores,
                    vit_nats, fwd_nats,
                )
                if not oracle.ok:
                    if not opts.policy.salvage:
                        raise DivergenceError(
                            f"query {self.hmm.name!r} vs database "
                            f"{database.name!r}: engine scores diverged from "
                            "the scalar reference - "
                            + "; ".join(
                                d.describe() for d in oracle.divergences[:3]
                            )
                        )
                    q = (
                        opts.quarantine
                        if opts.quarantine is not None
                        else RecordQuarantine()
                    )
                    diverged = {d.index for d in oracle.divergences}
                    for d in oracle.divergences:
                        q.add(
                            database.name, 0, d.sequence, d.describe(),
                            kind="divergence",
                        )
                    hits = [h for h in hits if h.index not in diverged]

            hits.sort(key=lambda h: (h.evalue, h.name))
            if search_span is not None:
                search_span.count(hits=len(hits))
        return SearchResults(
            query_name=self.hmm.name,
            n_targets=n,
            hits=hits,
            stages=[stage1, stage2, stage3],
            msv_bits=msv_bits,
            vit_bits=vit_bits,
            fwd_bits=fwd_bits,
            counters=counters,
            oracle=oracle,
        )

    def _run_oracle(
        self,
        database: SequenceDatabase,
        selfcheck: int,
        msv_nats: np.ndarray,
        vit_nats: dict[int, float],
        fwd_nats: dict[int, float],
    ) -> OracleReport:
        """Shadow-score a deterministic sample through the scalar
        reference engines and compare against the pipeline's scores."""
        report = OracleReport()
        for idx in sample_indices(
            self.hmm.name, database.name, len(database), selfcheck
        ):
            idx = int(idx)
            seq = database[idx]
            report.checked += 1
            checks = [
                ("msv",
                 msv_score_sequence(self.byte_profile, seq.codes),
                 float(msv_nats[idx]), 0.0),
            ]
            if idx in vit_nats:
                checks.append(
                    ("p7viterbi",
                     viterbi_score_sequence(self.word_profile, seq.codes),
                     vit_nats[idx], 0.0)
                )
            if idx in fwd_nats:
                checks.append(
                    ("forward",
                     generic_forward_score(self.generic_profile, seq.codes),
                     fwd_nats[idx], FORWARD_ABS_TOL)
                )
            for stage, expected, observed, tol in checks:
                report.comparisons += 1
                if not scores_match(expected, observed, tol):
                    report.divergences.append(
                        Divergence(
                            sequence=seq.name,
                            index=idx,
                            stage=stage,
                            expected=expected,
                            observed=observed,
                        )
                    )
        return report

    def forward_all(self, database: SequenceDatabase) -> np.ndarray:
        """Forward bit scores of *every* sequence, bypassing the filters.

        The ground truth for filter-sensitivity studies: anything
        significant here but absent from :meth:`search`'s hits was lost
        to a filter.  Expensive by design - this is exactly the cost the
        MSV/Viterbi cascade exists to avoid.
        """
        nats = forward_score_batch(self.generic_profile, database)
        return np.asarray(
            bits_from_nats(nats, self.calibration.null_length_nats)
        )

    def filter_loss(
        self, database: SequenceDatabase, results: SearchResults | None = None
    ) -> tuple[int, int]:
        """(lost, total) significant sequences missed by the filter
        cascade, judged against the unfiltered Forward ground truth."""
        if results is None:
            results = self.search(database)
        fwd_bits = self.forward_all(database)
        fwd_p = np.asarray(self.calibration.fwd.pvalue(fwd_bits))
        significant = set(np.flatnonzero(fwd_p < self.thresholds.f3).tolist())
        found = {h.index for h in results.hits}
        return len(significant - found), len(significant)

    def __repr__(self) -> str:
        return (
            f"HmmsearchPipeline({self.hmm.name!r}, M={self.profile.M}, "
            f"L={self.profile.L})"
        )
