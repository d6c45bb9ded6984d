"""Cross-sequence batched MSV and P7Viterbi kernels.

The warp kernels in :mod:`repro.kernels.msv_warp` /
:mod:`repro.kernels.viterbi_warp` score **one sequence per kernel
invocation pattern**: a warp's 32 lanes sweep the model dimension, and
the Python row loop runs once per residue of every sequence - 725k
residues means 725k vectorized row steps.  That inverts the paper's
Figure 1 profile (P7Viterbi at 58% of wall time instead of 14.5%)
because the NumPy vector units idle across the warp dimension.

These kernels batch *across sequences* instead (AnySeq/GPU-style
cross-alignment batching): each warp lane owns one whole sequence, all
lanes advance one residue per lockstep row, and one vectorized NumPy
invocation per row scores every lane still live.

Two schedules are kept apart:

* **The host sweep** (what the host wall clock measures).  All lanes of
  a launch run in one length-sorted lockstep sweep, cut only into
  groups of at most ``_GROUP_CELLS // (M + 1)`` lanes to bound memory.
  The row loop runs ``max_len`` times per sweep, not once per bucket
  and not ``total_residues`` times: the widest tile the host can take,
  because NumPy's cost is per call, and live-prefix slicing already
  skips every padded cell.
* **The modelled launch** (what :class:`KernelCounters`, the kernel
  spans and their padding fraction report).  The GPU launch is the
  length buckets of :func:`pack_length_buckets` over 32-lane warps;
  after the sweep, rows, strips, cells, shared and global traffic and
  padding are charged per bucket from each lane's charged row count,
  exactly as if each bucket had run on its own.  The modelled device
  clock (:mod:`repro.perf.cost_model`) prices the stage's rows and
  sequences, so it does not move with the host schedule either.

Architecture-aware structure, observable through the counters:

* **Length-sorted lane packing.**  Sequences are sorted by length
  (descending), so the lanes still live at row ``i`` always form a
  contiguous prefix - the inner loop slices views instead of masking,
  exactly like a GPU retiring trailing lanes.
* **Length bucketing bounds padding waste.**  A bucket closes when the
  next sequence is shorter than ``(1 - max_waste)`` of the bucket's
  first (longest) sequence, so the fraction of launched lane-rows that
  hold no residue is bounded by ``max_waste`` plus the final
  warp-rounding term.  The realized fraction is reported as
  ``KernelCounters.padding_fraction`` (``grid_cells`` /
  ``padding_cells``).
* **Lane retirement on overflow.**  A lane whose score overflows the
  quantized range is deleted from the working arrays (rare), keeping
  the hot loop branch-free.
* **No reduction, no barriers.**  Each lane reduces its own row maximum
  serially in registers; the cross-lane shuffle of the per-warp kernels
  disappears (``shuffles == 0``, ``syncthreads == 0``).
* **Conflict-free lane-major layout.**  Lane ``l``'s DP row lives at
  stride :func:`~repro.gpu.warp.conflict_free_lane_stride`, so a
  warp-wide access to cell ``j`` across lanes touches 32 distinct
  banks; the WarpSanitizer certifies one representative warp-wide
  access per sweep row.

Scores are bit-identical to :mod:`repro.cpu.msv_reference` and
:mod:`repro.cpu.viterbi_reference` - the paper's accuracy-preservation
claim, pinned per-sequence by a hypothesis property test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet.packing import packed_stream_bytes
from ..analysis.sanitizer import resolve_sanitizer
from ..constants import MSV_BYTE_MAX, VF_WORD_MAX, VF_WORD_MIN, WARP_SIZE
from ..cpu.results import FilterScores
from ..errors import KernelError
from ..gpu.counters import KernelCounters
from ..gpu.device import KEPLER_K40, DeviceSpec
from ..gpu.warp import conflict_free_lane_stride
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.quantized import clip_i16
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import PaddedBatch, SequenceDatabase
from .memconfig import MemoryConfig

__all__ = [
    "LaneBucket",
    "pack_length_buckets",
    "msv_batched_kernel",
    "viterbi_batched_kernel",
    "DEFAULT_MAX_WASTE",
]

#: Default padding-waste bound for length bucketing.
DEFAULT_MAX_WASTE = 0.25
#: Lanes per host sweep are capped so one state row array holds at most
#: this many cells (2 MiB of float64 in the Forward kernel); shared with
#: :mod:`repro.cpu.forward_batch`.
_GROUP_CELLS = 1 << 18


@dataclass(frozen=True)
class LaneBucket:
    """One modelled launch group: length-sorted sequences packed across
    lanes.

    Attributes
    ----------
    indices:
        Original batch positions of the member sequences, length-sorted
        descending (stable).
    width:
        The bucket's row count = its longest member's length.
    lanes_padded:
        Lane count rounded up to a whole number of 32-lane warps - the
        launched grid width.
    """

    indices: np.ndarray
    width: int

    @property
    def lanes(self) -> int:
        return int(self.indices.size)

    @property
    def lanes_padded(self) -> int:
        return -(-self.lanes // WARP_SIZE) * WARP_SIZE

    def grid_cells(self) -> int:
        """Lane-rows launched for this bucket (live + padding)."""
        return self.lanes_padded * self.width


def _check_waste(max_waste: float) -> None:
    if not 0.0 <= max_waste < 1.0:
        raise KernelError("max_waste must be in [0, 1)")


def pack_length_buckets(
    lengths: np.ndarray, max_waste: float = DEFAULT_MAX_WASTE
) -> list[LaneBucket]:
    """Length bucketing of a batch for cross-sequence lane packing.

    Sequences are sorted by length descending (stable, so equal lengths
    keep batch order) and split into buckets by a shortest-path dynamic
    program that minimizes the total launched grid
    (``sum of lanes_padded * width`` over buckets).  A split is
    *admissible* when every lane covers at least ``1 - max_waste`` of
    its bucket's rows - that bounds the per-lane length padding - with
    one relaxation: a bucket may always absorb up to a full warp of 32
    lanes, because splitting below warp granularity only trades length
    padding for strictly-larger warp-rounding padding.  The greedy
    pure-threshold split is admissible, so the DP's total padding never
    exceeds it; the realized fraction is reported as
    ``KernelCounters.padding_fraction``.  Zero-length sequences never
    join a bucket - they have no DP rows.
    """
    _check_waste(max_waste)
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_lens = lengths[order]
    n = int(np.searchsorted(-sorted_lens, 0, side="left"))  # drop zero tail
    if n == 0:
        return []
    # best[i]: minimal grid cells to pack lanes i..n-1; split[i]: its cut
    best = np.zeros(n + 1, dtype=np.int64)
    split = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        width = int(sorted_lens[i])
        floor = (1.0 - max_waste) * width
        last = int(np.searchsorted(-sorted_lens[i:], -floor, side="right"))
        last = min(n - i, max(last, WARP_SIZE))
        k = np.arange(1, last + 1)
        cost = (-(-k // WARP_SIZE)) * WARP_SIZE * width + best[i + k]
        j = int(np.argmin(cost))
        best[i] = cost[j]
        split[i] = i + j + 1
    buckets: list[LaneBucket] = []
    start = 0
    while start < n:
        end = int(split[start])
        buckets.append(
            LaneBucket(indices=order[start:end], width=int(sorted_lens[start]))
        )
        start = end
    return buckets


def _as_batch(database: SequenceDatabase | PaddedBatch) -> PaddedBatch:
    if isinstance(database, SequenceDatabase):
        return database.padded_batch()
    return database


def _live_prefix_counts(lengths: np.ndarray, width: int) -> np.ndarray:
    """``live[i]`` = number of lanes with length > ``i`` (descending
    sort makes them a prefix)."""
    counts = np.bincount(lengths.astype(np.int64), minlength=width + 1)
    return lengths.size - np.cumsum(counts)[:width]


def _lane_groups(lengths: np.ndarray, M: int) -> list[np.ndarray]:
    """The host execution schedule: batch positions of the non-empty
    lanes, sorted by length descending (stable), cut into sweeps of at
    most ``_GROUP_CELLS // (M + 1)`` lanes."""
    order = np.argsort(-lengths, kind="stable")
    n_live = int(np.count_nonzero(lengths > 0))
    cap = max(1, _GROUP_CELLS // (M + 1))
    return [order[start:start + cap] for start in range(0, n_live, cap)]


def _charge_launch(counters: KernelCounters, batch: PaddedBatch,
                   max_waste: float, charged: np.ndarray, M: int,
                   config: MemoryConfig) -> None:
    """Event tally of the modelled launch: the length buckets of
    :func:`pack_length_buckets`, whatever the host sweep looked like.

    ``charged[s]`` is the number of lockstep rows sequence ``s`` was
    live for: its length, or ``retire_row + 1`` when it retired on
    overflow.  In a bucket, row ``i`` runs ``ceil(live_i / 32)`` warps
    over the ``live_i`` lanes with ``charged > i``; summed over rows,
    warp ``w`` contributes the ``(32 w + 1)``-th largest charged count.
    Per warp the lanes sweep the model serially: one conflict-free
    warp-wide load + store per cell (the lane-major DP row), plus the
    emission fetch from shared or global memory - the same convention
    the per-warp kernels charge, transposed to lane-per-sequence.
    """
    buckets = pack_length_buckets(batch.lengths, max_waste=max_waste)
    counters.sequences += batch.n_seqs
    counters.global_bytes += int(
        sum(packed_stream_bytes(int(L)) for L in batch.lengths)
    )
    if not buckets:
        return
    idx = np.concatenate([b.indices for b in buckets])
    lanes = np.array([b.lanes for b in buckets])
    bucket_of = np.repeat(np.arange(lanes.size), lanes)
    grid = sum(b.grid_cells() for b in buckets)
    counters.grid_cells += grid
    counters.padding_cells += grid - int(batch.lengths[idx].sum())
    rows_of = charged[idx]
    # bucket_of is already grouped, so the lexsort only reorders lanes
    # inside their bucket: charged rows, largest first
    ranked = rows_of[np.lexsort((-rows_of, bucket_of))]
    rank = np.arange(idx.size) - (np.cumsum(lanes) - lanes)[bucket_of]
    rows = int(rows_of.sum())
    strips = int(ranked[rank % WARP_SIZE == 0].sum())
    counters.rows += rows
    counters.strips += strips
    counters.cells += rows * M
    counters.shared_loads += strips * M
    counters.shared_stores += strips * M
    if config is MemoryConfig.SHARED:
        counters.shared_loads += strips * M  # emission fetch
    else:
        counters.global_bytes += rows * M  # emission fetch


def msv_batched_kernel(
    profile: MSVByteProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    sanitize: bool | None = None,
    max_waste: float = DEFAULT_MAX_WASTE,
) -> FilterScores:
    """Score a database with the cross-sequence batched MSV kernel.

    Bit-identical to :func:`repro.cpu.msv_reference.msv_score_batch`
    (and therefore to per-sequence scoring); the u8 state is carried
    natively with the wraparound-repair saturation trick, so each row
    costs ~6 one-byte passes over the live prefix instead of the
    reference's four-byte clip chains.
    """
    batch = _as_batch(database)
    n, M = batch.n_seqs, profile.M
    _check_waste(max_waste)
    san = resolve_sanitizer(sanitize)

    # zero-length sequences process no rows: final xJ stays 0
    scores = np.full(n, profile.final_score_nats(0), dtype=np.float64)
    overflowed = np.zeros(n, dtype=bool)
    charged = batch.lengths.astype(np.int64)

    rbv_u8 = profile.rbv.astype(np.uint8)  # biased costs all fit u8
    bias = np.uint8(profile.bias)
    # sv + bias saturates at 255 exactly when sv >= 255 - bias; compare
    # *before* the wrapped add, repair the wrapped cells after
    sat_floor = np.uint8(MSV_BYTE_MAX - profile.bias)
    overflow_at = np.uint8(min(MSV_BYTE_MAX, profile.overflow_threshold))
    stride = conflict_free_lane_stride(M + 1)  # u8 row, cell 0 = -inf

    for idx in _lane_groups(batch.lengths, M):
        lens = batch.lengths[idx]
        width = int(lens[0])
        codes = batch.codes[idx, :width]
        live = _live_prefix_counts(lens, width)
        k = idx.size
        rows = np.zeros((k, M + 1), dtype=np.uint8)
        xJ = np.zeros(k, dtype=np.int32)
        xB = np.full(k, profile.init_xB, dtype=np.int32)

        for i in range(width):
            p = int(live[i])
            if p == 0:
                break
            sub = rows[:p]
            rb = rbv_u8[codes[:p, i]]
            if san is not None:
                # one representative warp-wide access per row: the
                # pattern is identical for every warp and cell
                san.begin_row(f"msv_batched:row{i}")
                lanes = np.arange(min(WARP_SIZE, p), dtype=np.int64) * stride
                j = i % M
                san.shared_load(lanes + j, "msv_batched:dep-load",
                                dependency=True)
            xBv = np.maximum(xB[:p] - profile.tbm, 0).astype(np.uint8)
            sv = np.maximum(sub[:, :M], xBv[:, None])
            sat = sv >= sat_floor
            if counters is not None:
                # guardrail: cells at the u8 ceiling after the biased
                # add - matches the reference engine's guard tally
                counters.saturations += int(np.count_nonzero(sat))
            sv += bias  # u8 wraps where sat; repaired next line
            sv[sat] = MSV_BYTE_MAX
            under = rb > sv
            sv -= rb  # u8 wraps where under; repaired next line
            sv[under] = 0
            sub[:, 1:] = sv
            if san is not None:
                san.shared_store(lanes + (i % M) + 1, "msv_batched:store")
            xE = sv.max(axis=1)

            bad = xE >= overflow_at
            if bad.any():
                good = np.flatnonzero(~bad)
                xE_g = xE[good].astype(np.int32)
                xJ[good] = np.maximum(
                    xJ[good], np.maximum(0, xE_g - profile.tec)
                )
                xB[good] = np.maximum(
                    0, np.maximum(profile.base, xJ[good]) - profile.tjb
                )
                retire = np.flatnonzero(bad)
                scores[idx[retire]] = float("inf")
                overflowed[idx[retire]] = True
                charged[idx[retire]] = i + 1
                keep = np.ones(k, dtype=bool)
                keep[retire] = False
                rows, codes, xJ, xB = rows[keep], codes[keep], xJ[keep], xB[keep]
                lens, idx = lens[keep], idx[keep]
                k = idx.size
                live = _live_prefix_counts(lens, width)
            else:
                xE_i = xE.astype(np.int32)
                xJ[:p] = np.maximum(xJ[:p], np.maximum(0, xE_i - profile.tec))
                xB[:p] = np.maximum(
                    0, np.maximum(profile.base, xJ[:p]) - profile.tjb
                )

        scores[idx] = ((xJ - profile.tjb) - profile.base) / profile.scale - 3.0

    if counters is not None:
        _charge_launch(counters, batch, max_waste, charged, M, config)
        if san is not None:
            report = san.report()
            counters.attach_sanitizer(report)
            counters.bank_conflict_extra += report.conflict_extra
    return FilterScores(scores=scores, overflowed=overflowed)


def viterbi_batched_kernel(
    profile: ViterbiWordProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    sanitize: bool | None = None,
    max_waste: float = DEFAULT_MAX_WASTE,
) -> FilterScores:
    """Score a database with the cross-sequence batched P7Viterbi kernel.

    Bit-identical to
    :func:`repro.cpu.viterbi_reference.viterbi_score_batch`.  Exactness
    arguments for the fused arithmetic: saturating clips commute with
    ``max`` over a common interval, so the entry and insert terms are
    maxed unclipped in int32 and clipped once (the entry needs no clip
    before the emission add at all, see ``floor_tbm``); the Delete-chain
    prefix scan's ``cumsum(tdd)`` is profile-constant and hoisted out of
    the row loop; the ``(M+1)``-wide state rows carry a permanent -inf
    column 0 so the node shift is a view, not a concatenate.  The M/I/D
    rows are one stacked array, double-buffered across rows, so the
    three entry adds are one call, the two insert adds another, and
    every row-sized result lands in scratch or in place.
    """
    batch = _as_batch(database)
    n, M = batch.n_seqs, profile.M
    _check_waste(max_waste)
    san = resolve_sanitizer(sanitize)

    # zero-length sequences process no rows: xC stays -inf
    scores = np.full(n, float("-inf"), dtype=np.float64)
    overflowed = np.zeros(n, dtype=bool)
    charged = batch.lengths.astype(np.int64)

    # (3, 1, M) entry into node j from node j - 1 (M, I, D) and (2, 1, M)
    # stay-on-node moves into I (from M, I), broadcast over lanes
    enter = np.stack(
        (profile.enter_mm, profile.enter_im, profile.enter_dm)
    ).astype(np.int32)[:, None, :]
    stay = np.stack((profile.tmi, profile.tii)).astype(np.int32)[:, None, :]
    # xB = max(base, xJ) + N/J -> B is carried with the B -> M entry
    # cost and the i16 floor folded in: max(floor_tbm, xJ + nj_tbm).  The
    # floor makes every entry max >= VF_WORD_MIN, and entries never
    # exceed VF_WORD_MAX (transition words are <= 0, xE < VF_WORD_MAX),
    # so the entry needs no clip of its own; the prover checks that
    # range where the entry is stored.
    nj_tbm = profile.xNJ_move + profile.tbm
    floor_tbm = max(profile.base + nj_tbm, VF_WORD_MIN)
    # hoisted Delete-chain scan constants (see cpu.viterbi_reference
    # .exact_d_chain): c[j] = sum of tdd[t] for t < j, so the scan seed
    # max(M + tmd, -inf) - c[j + 1] is max(M + chain_add, chain_floor).
    # Every tdd cost is <= 0, so the scan stays within
    # [VF_WORD_MIN + c[M], VF_WORD_MAX - c[M]]: int32 unless the model
    # has ~65k nodes of -inf D->D links.
    c = np.concatenate(([0], np.cumsum(profile.tdd.astype(np.int64))))
    i32_ok = c[-1] >= np.iinfo(np.int32).min - VF_WORD_MIN
    chain_dtype = np.int32 if i32_ok else np.int64
    c_tail = c[1 : M + 1]
    chain_add = (profile.tmd - c_tail).astype(chain_dtype)
    chain_floor = (VF_WORD_MIN - c_tail).astype(chain_dtype)
    c_body = c[1:M].astype(chain_dtype)
    # i16 rows for three matrices per lane: M, I, D
    stride = conflict_free_lane_stride(3 * 2 * (M + 1))
    base_i, base_d = 2 * (M + 1), 4 * (M + 1)

    for idx in _lane_groups(batch.lengths, M):
        lens = batch.lengths[idx]
        width = int(lens[0])
        codes = batch.codes[idx, :width]
        live = _live_prefix_counts(lens, width)
        k = idx.size
        # stacked M/I/D rows, previous and current; column 0 is the
        # permanent minus-infinity boundary (the "previous node" shift
        # is the view [..., :M]) and D column 1 is never entered
        prev = np.full((3, k, M + 1), VF_WORD_MIN, dtype=np.int32)
        cur = prev.copy()
        terms = np.empty((3, k, M), dtype=enter.dtype)
        chain = np.empty((k, M), dtype=chain_dtype)
        xC = np.full(k, VF_WORD_MIN, dtype=np.int32)
        xJ = xC.copy()
        xB = np.full(k, floor_tbm, dtype=np.int32)

        for i in range(width):
            p = int(live[i])
            if p == 0:
                break
            if san is not None:
                san.begin_row(f"vit_batched:row{i}")
                lanes = np.arange(min(WARP_SIZE, p), dtype=np.int64) * stride
                j2 = 2 * (i % M)
                for mat, base_b in (("m", 0), ("i", base_i), ("d", base_d)):
                    san.shared_load(lanes + base_b + j2,
                                    f"vit_batched:dep-load:{mat}",
                                    dependency=True)
            # the wide sums and maxima run in the terms scratch; only
            # clipped words are written into the state rows
            last, row = prev[:, :p], cur[:, :p]
            t3 = terms[:, :p]
            np.add(last[:, :, :M], enter, out=t3)
            sv = t3[0]
            np.maximum(sv, t3[1], out=sv)
            np.maximum(sv, t3[2], out=sv)
            mv = row[0, :, 1:]
            np.maximum(sv, xB[:p, None], out=mv)
            t2 = t3[1:]
            np.add(last[:2, :, 1:], stay, out=t2)
            ti = t3[1]
            np.maximum(ti, t3[2], out=ti)
            iv = row[1, :, 1:]
            clip_i16(ti, out=iv)
            np.add(mv, profile.rwv[codes[:p, i]], out=sv)
            clip_i16(sv, out=mv)
            if counters is not None and mv.min() == VF_WORD_MIN:
                # guardrail: M cells pinned at the i16 floor, the same
                # tally the reference engine keeps
                counters.saturations += int(
                    np.count_nonzero(mv == VF_WORD_MIN)
                )
            h = chain[:p]
            np.add(mv, chain_add, out=h)
            np.maximum(h, chain_floor, out=h)
            np.maximum.accumulate(h, axis=1, out=h)
            hb = h[:, :-1]
            hb += c_body
            # clip_i16 == np.maximum(., VF_WORD_MIN) here: every tdd
            # cost is <= 0, so c_body + h never exceeds the i16 ceiling;
            # the explicit ceiling makes the word range locally provable
            dv = row[2, :, 2:]
            clip_i16(hb, out=dv)
            if san is not None:
                for mat, base_b in (("m", 0), ("i", base_i), ("d", base_d)):
                    san.shared_store(lanes + base_b + 2 * (i % M) + 2,
                                     f"vit_batched:store:{mat}")
            xE = mv.max(axis=1)
            prev, cur = cur, prev

            if xE.max() >= VF_WORD_MAX:
                bad = xE >= VF_WORD_MAX
                good = np.flatnonzero(~bad)
                xE_g = xE[good]
                xC[good] = np.maximum(xC[good], xE_g + profile.xE_move)
                xJ[good] = np.maximum(xJ[good], xE_g + profile.xE_loop)
                xB[good] = np.maximum(xJ[good] + nj_tbm, floor_tbm)
                retire = np.flatnonzero(bad)
                scores[idx[retire]] = float("inf")
                overflowed[idx[retire]] = True
                charged[idx[retire]] = i + 1
                keep = np.ones(k, dtype=bool)
                keep[retire] = False
                prev, cur, codes = prev[:, keep], cur[:, keep], codes[keep]
                xC, xJ, xB = xC[keep], xJ[keep], xB[keep]
                lens, idx = lens[keep], idx[keep]
                k = idx.size
                live = _live_prefix_counts(lens, width)
            else:
                xc, xj, xb = xC[:p], xJ[:p], xB[:p]
                np.maximum(xc, xE + profile.xE_move, out=xc)
                np.maximum(xj, xE + profile.xE_loop, out=xj)
                np.maximum(xj + nj_tbm, floor_tbm, out=xb)

        scores[idx] = np.where(
            xC == VF_WORD_MIN,
            float("-inf"),
            (xC + profile.xNJ_move - profile.base) / profile.scale - 2.0,
        )

    if counters is not None:
        _charge_launch(counters, batch, max_waste, charged, M, config)
        if san is not None:
            report = san.report()
            counters.attach_sanitizer(report)
            counters.bank_conflict_extra += report.conflict_extra
    return FilterScores(scores=scores, overflowed=overflowed)
