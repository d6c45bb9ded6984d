"""The benchmark's two workloads.

Each workload owns four steps, and only the program calls among them are
timed by the runner:

* construction draws every input from the seed and writes the files the
  program will read (benchmark work, untimed);
* ``setup`` makes the program calls a user pays before serving
  (reading the database FASTA, warming the pipeline cache, pressing and
  reloading a library) and returns their wall time;
* ``op(i, tracer)`` is one operation of the closed loop;
* ``reference_requests(i, raw)`` names the (model, targets) pairs the
  operation scored, which :func:`reference_outcomes` re-scores through
  the independent ``cpu_sse`` engine so every operation can be checked.

With a tracer, benchmark-side spans (kind ``bench``, tagged with the
layer they time) wrap each call into the program, and the program's own
spans nest under them.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro import (
    AMINO,
    BatchSearchService,
    HmmsearchPipeline,
    PipelineCache,
    PipelineSettings,
    PipelineThresholds,
    PressSettings,
    SequenceDatabase,
    sample_hmm,
)
from repro.sequence.synthetic import BACKGROUND_FREQUENCIES

ENGINE = "gpu_warp_batched"
REFERENCE_ENGINE = "cpu_sse"
#: Sequences per reference sub-search.  The reference scores all the
#: targets one model saw in a run in length-sorted slices, so its
#: lockstep padding stays small; per-sequence P-value filtering makes
#: the slices add up to each operation's funnel.
REFERENCE_SLICE = 256
#: Relative tolerance on E-values and absolute tolerance on Forward bit
#: scores when an operation's hits are compared with the reference
#: (Forward is float arithmetic over differently padded batches).
EVALUE_RTOL = 1e-6
FWD_BITS_ATOL = 1e-6
#: Lengths are gamma distributed (shape and cap set per workload), then
#: scaled so that every chunk holds the same number of residues:
#: operations of one kind do equal work.
MIN_LENGTH = 25

_SYMBOLS = np.frombuffer(AMINO.symbols.encode("ascii"), dtype=np.uint8)


def bench_span(tracer, name: str, layer: str | None, **tags):
    """A benchmark-side span around one call into the program."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, "bench", layer=layer, **tags)


@dataclass
class Outcome:
    """What an operation is checked on: hits and the per-model funnel."""

    hits: dict      # (model, target) -> (evalue, fwd_bits)
    funnels: dict   # model -> ((n_in, n_out) per stage)


@dataclass
class Digest:
    """An operation's result, reduced to what the metrics need."""

    outcome: Outcome
    cells: int      # sum over searched models of M x target residues
    stages: list    # [(M, [StageStats x 3])] - the measured funnel


def compare(got: Outcome, want: Outcome) -> str | None:
    """None when the outcomes agree, else the first difference."""
    for model in sorted(set(got.funnels) | set(want.funnels)):
        if got.funnels.get(model) != want.funnels.get(model):
            return (f"funnel of {model}: {got.funnels.get(model)} != "
                    f"reference {want.funnels.get(model)}")
    if set(got.hits) != set(want.hits):
        extra = sorted(set(got.hits) - set(want.hits))
        missing = sorted(set(want.hits) - set(got.hits))
        return f"hits differ: extra {extra[:3]}, missing {missing[:3]}"
    for key, (evalue, bits) in got.hits.items():
        ref_evalue, ref_bits = want.hits[key]
        if abs(evalue - ref_evalue) > EVALUE_RTOL * abs(ref_evalue) or \
                abs(bits - ref_bits) > FWD_BITS_ATOL:
            return (f"hit {key}: E={evalue!r} bits={bits!r} != reference "
                    f"E={ref_evalue!r} bits={ref_bits!r}")
    return None


def search_outcome(model: str, results) -> Outcome:
    return Outcome(
        hits={(model, h.name): (h.evalue, h.fwd_bits) for h in results.hits},
        funnels={model: tuple((s.n_in, s.n_out) for s in results.stages)},
    )


def _score_sequences(pipeline, seqs) -> dict:
    """``cpu_sse`` pipeline outcome per sequence name:
    (passed MSV, passed P7Viterbi, Forward P-value or None, Forward bits)."""
    opts = repro.SearchOptions(
        engine=REFERENCE_ENGINE,
        thresholds=PipelineThresholds(report_evalue=float("inf")),
    )
    seqs = sorted(seqs, key=len)
    scores = {}
    for k in range(0, len(seqs), REFERENCE_SLICE):
        sub = SequenceDatabase(seqs[k:k + REFERENCE_SLICE], name="reference")
        res = pipeline.search(sub, opts)
        hits = {h.name: h for h in res.hits}
        for j, seq in enumerate(sub):
            hit = hits.get(seq.name)
            scores[seq.name] = (
                not np.isnan(res.vit_bits[j]),
                not np.isnan(res.fwd_bits[j]),
                None if hit is None else hit.fwd_p,
                None if hit is None else hit.fwd_bits,
            )
    return scores


def reference_outcomes(work, ops: list) -> dict:
    """``{op: (Outcome, [Forward survivor lengths per model])}`` for
    ``ops`` (pairs of index and raw result), from one reference pass per
    model over every target that model saw.

    E-values are Forward P-values times the request's scale (the
    database size for a search, the library size for a scan), gated at
    the default reporting cutoff, as the program does.
    """
    report = PipelineThresholds().report_evalue
    by_model = defaultdict(list)
    for i, raw in ops:
        for model, db, scale in work.reference_requests(i, raw):
            by_model[model].append((i, db, scale))
    out = {i: (Outcome(hits={}, funnels={}), []) for i, _ in ops}
    for model, requests in by_model.items():
        scores = _score_sequences(
            work.reference_pipeline(model),
            [seq for _, db, _ in requests for seq in db],
        )
        for i, db, scale in requests:
            outcome, lengths = out[i]
            rows = [scores[seq.name] for seq in db]
            msv = sum(r[0] for r in rows)
            vit = sum(r[1] for r in rows)
            fwd = sum(r[2] is not None for r in rows)
            outcome.funnels[model] = ((len(db), msv), (msv, vit), (vit, fwd))
            lengths.append([len(s) for s, r in zip(db, rows) if r[1]])
            for seq, (_, _, fwd_p, bits) in zip(db, rows):
                if fwd_p is not None and fwd_p * scale <= report:
                    outcome.hits[(model, seq.name)] = (fwd_p * scale, bits)
    return out


def make_sequences(rng, prefix: str, n: int, sizes: dict, plant):
    """``n`` named background code arrays holding about
    ``n * mean_length`` residues; one domain emitted by each model in
    ``plant`` is embedded in a distinct sequence."""
    lengths = rng.gamma(sizes["length_shape"], 1.0, size=n)
    lengths = np.clip(
        np.round(lengths * (n * sizes["mean_length"] / lengths.sum())),
        MIN_LENGTH, sizes["max_length"],
    ).astype(np.int64)
    codes = rng.choice(
        20, size=int(lengths.sum()), p=BACKGROUND_FREQUENCIES
    ).astype(np.uint8)
    ends = np.cumsum(lengths)
    seqs = [codes[e - length:e] for e, length in zip(ends, lengths)]
    for pos, hmm in zip(rng.choice(n, size=len(plant), replace=False), plant):
        seq = seqs[pos]
        domain = hmm.sample_sequence(rng)[: seq.size]
        start = int(rng.integers(0, seq.size - domain.size + 1))
        seq[start:start + domain.size] = domain
    return [(f"{prefix}/{j:05d}", seq) for j, seq in enumerate(seqs)]


def write_fasta(path: Path, records) -> None:
    """FASTA of ``(name, codes)`` records, 60 residues a line."""
    with path.open("wb") as fh:
        for name, codes in records:
            text = _SYMBOLS[codes].tobytes()
            fh.write(b">" + name.encode("ascii") + b"\n")
            for k in range(0, len(text), 60):
                fh.write(text[k:k + 60] + b"\n")


def split_chunks(db, count: int, name: str) -> list:
    """Group a loaded database back into its ``cNNN/`` chunks."""
    groups = [[] for _ in range(count)]
    for seq in db:
        groups[int(seq.name[1:seq.name.index("/")])].append(seq)
    return [SequenceDatabase(g, name=f"{name}/c{i:03d}")
            for i, g in enumerate(groups)]


def whole_rounds(ops: int, round_size: int) -> int:
    """``ops`` rounded up to whole rounds, and to at least two (a traced
    run needs an untraced and a traced round)."""
    return max(2, -(-ops // round_size)) * round_size


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def load_fasta_spanned(tracer, path: Path):
    with bench_span(tracer, "load_fasta", "ingest") as sp:
        db = repro.load_fasta(path)
        if sp is not None:
            sp.count(bytes=path.stat().st_size)
    return db


class EnvnrService:
    """One long-lived BatchSearchService; one request per operation.

    A model pool is cycled one model per operation, and one database
    FASTA holds the per-operation chunks, each with homologs of the
    model that will search it."""

    def __init__(self, sizes: dict, seed: int, workdir: Path, capacity: int):
        rng = np.random.default_rng(seed)
        self.models = [
            sample_hmm(M, rng, name=f"envnr_q{j}_M{M}")
            for j, M in enumerate(sizes["models_M"])
        ]
        self.round_size = len(self.models)
        self.capacity = whole_rounds(capacity, self.round_size)
        self.fasta = workdir / "envnr.fasta"
        write_fasta(self.fasta, [
            record
            for i in range(self.capacity)
            for record in make_sequences(
                rng, f"c{i:03d}", sizes["chunk_seqs"], sizes,
                [self.model(i)] * sizes["homologs_per_chunk"],
            )
        ])
        self.settings = PipelineSettings(**sizes["pipeline_settings"])
        self.engine = repro.SearchOptions(engine=ENGINE).engine
        self.reference_pipelines = {}

    def model(self, i: int):
        return self.models[i % self.round_size]

    def setup(self, tracer) -> float:
        db, t_read = timed(load_fasta_spanned, tracer, self.fasta)
        self.chunks = split_chunks(db, self.capacity, "envnr")
        t0 = time.perf_counter()
        cache = PipelineCache(max_entries=len(self.models))
        self.calibrations = {}
        for hmm in self.models:
            with bench_span(tracer, f"warm:{hmm.name}", "calibrate"):
                pipeline = cache.get(hmm, self.settings)
            self.calibrations[hmm.name] = pipeline.calibration
        self.services = {
            traced: BatchSearchService(
                cache=cache,
                options=repro.SearchOptions(
                    engine=ENGINE, tracer=tracer if traced else None
                ),
            )
            for traced in (False, True)
        }
        return t_read + time.perf_counter() - t0

    def op(self, i: int, tracer):
        service = self.services[tracer is not None]
        with bench_span(tracer, "service", "service"):
            service.submit(self.model(i), self.chunks[i], engine=self.engine,
                           settings=self.settings)
            job = service.run()[-1]
        return job

    def digest(self, i: int, job) -> Digest:
        if job.results is None:
            raise RuntimeError(f"job {job.job_id} {job.state.value}: {job.error}")
        hmm = self.model(i)
        return Digest(
            outcome=search_outcome(hmm.name, job.results),
            cells=hmm.M * self.chunks[i].total_residues,
            stages=[(hmm.M, job.results.stages)],
        )

    def reference_requests(self, i: int, raw) -> list:
        chunk = self.chunks[i]
        return [(self.model(i).name, chunk, len(chunk))]

    def reference_pipeline(self, name: str):
        if name not in self.reference_pipelines:
            hmm = next(h for h in self.models if h.name == name)
            self.reference_pipelines[name] = HmmsearchPipeline(
                hmm, L=self.settings.L, multihit=self.settings.multihit,
                calibration=self.calibrations[hmm.name],
            )
        return self.reference_pipelines[name]


class PfamScan:
    """A pressed, reloaded library; each operation reads a fresh query
    FASTA and scans it."""

    def __init__(self, sizes: dict, seed: int, workdir: Path, capacity: int):
        rng = np.random.default_rng(seed)
        self.models = [
            sample_hmm(M, rng, name=f"fam{j}_M{M}")
            for j, M in enumerate(sizes["models_M"])
        ]
        self.press_settings = PressSettings(**sizes["press_settings"])
        self.workdir = workdir
        # each query set plants homologs of the smaller members, rotating
        # so that every one of them is hit once per round
        planted = sorted(self.models, key=lambda h: h.M)
        planted = planted[:sizes["plant_from_smallest"]]
        per_set = sizes["homologs_per_query_set"]
        self.round_size = len(planted) // per_set
        self.capacity = whole_rounds(capacity, self.round_size)
        self.queries = []
        for i in range(self.capacity):
            plant = [planted[(i * per_set + k) % len(planted)]
                     for k in range(per_set)]
            path = workdir / f"queries{i:03d}.fasta"
            write_fasta(path, make_sequences(
                rng, f"q{i:03d}", sizes["query_seqs"], sizes, plant,
            ))
            self.queries.append(path)
        self.setups = 0

    def setup(self, tracer) -> float:
        store = self.workdir / f"library{self.setups}"
        self.setups += 1
        with bench_span(tracer, "press_library", "scan.press") as sp:
            catalog, t_press = timed(
                repro.press_library, self.models, store=store,
                settings=self.press_settings, name="pfam",
            )
            if sp is not None:
                sp.count(calibrations=catalog.stats()["calibrations"])
        with bench_span(tracer, "load_library", "scan.load"):
            self.catalog, t_load = timed(repro.load_library, store)
        self.reference_pipelines = {}
        return t_press + t_load

    def op(self, i: int, tracer):
        queries = load_fasta_spanned(tracer, self.queries[i])
        with bench_span(tracer, "scan", "scan"):
            results = repro.scan(
                self.catalog, queries,
                repro.ScanOptions(
                    search=repro.SearchOptions(engine=ENGINE, tracer=tracer)
                ),
            )
        return queries, results

    def digest(self, i: int, raw) -> Digest:
        queries, results = raw
        return Digest(
            outcome=Outcome(
                hits={(h.model_name, h.sequence_name): (h.evalue, h.fwd_bits)
                      for h in results.hits},
                funnels={name: tuple((s.n_in, s.n_out) for s in stages)
                         for name, stages in results.model_stages.items()},
            ),
            cells=sum(e.M for e in self.catalog) * queries.total_residues,
            stages=[(self.catalog.get(name).M, stages)
                    for name, stages in results.model_stages.items()],
        )

    def reference_requests(self, i: int, raw) -> list:
        queries, _ = raw
        return [(e.name, queries, len(self.catalog)) for e in self.catalog]

    def reference_pipeline(self, name: str):
        if name not in self.reference_pipelines:
            entry, s = self.catalog.get(name), self.catalog.settings
            self.reference_pipelines[name] = HmmsearchPipeline(
                entry.hmm, L=s.L, multihit=s.multihit,
                calibration=entry.calibration,
            )
        return self.reference_pipelines[name]


WORKLOADS = {
    "envnr_service": EnvnrService,
    "pfam_scan": PfamScan,
}
