"""Cross-sequence batched MSV/P7Viterbi kernels: packing, accuracy,
counters and sanitizer behaviour."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import (
    msv_score_batch,
    msv_score_sequence,
    viterbi_score_batch,
    viterbi_score_sequence,
)
from repro.constants import VF_WORD_MIN
from repro.gpu import KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.kernels import MemoryConfig, msv_warp_kernel, viterbi_warp_kernel
from repro.kernels.batched import (
    DEFAULT_MAX_WASTE,
    msv_batched_kernel,
    pack_length_buckets,
    viterbi_batched_kernel,
)
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.sequence import random_sequence_codes
from repro.sequence.database import PaddedBatch
from repro.sequence.synthetic import homolog_database, random_database

WARP = 32


def _profiles(M, seed=0, L=100):
    sp = SearchProfile(sample_hmm(M, np.random.default_rng(seed)), L=L)
    return MSVByteProfile.from_profile(sp), ViterbiWordProfile.from_profile(sp)


def _padded_batch(lengths, rng):
    """A PaddedBatch with arbitrary lengths, including 0 and 1."""
    lengths = np.asarray(lengths, dtype=np.int64)
    width = max(int(lengths.max(initial=0)), 1)
    codes = np.full((lengths.size, width), 31, dtype=np.uint8)
    for i, L in enumerate(lengths):
        if L > 0:
            codes[i, :L] = random_sequence_codes(int(L), rng)
    return PaddedBatch(codes=codes, lengths=lengths)


class TestPacker:
    def test_indices_partition_the_batch(self, rng):
        lengths = rng.integers(1, 400, size=257)
        buckets = pack_length_buckets(lengths)
        seen = np.concatenate([b.indices for b in buckets])
        assert sorted(seen.tolist()) == list(range(257))

    def test_width_covers_members(self, rng):
        lengths = rng.integers(1, 300, size=100)
        for b in pack_length_buckets(lengths):
            assert int(lengths[b.indices].max()) == b.width
            assert b.lanes_padded % WARP == 0
            assert b.lanes <= b.lanes_padded < b.lanes + WARP

    def test_padding_bound(self, rng):
        """Per-bucket waste invariants: any multi-warp bucket's shortest
        lane covers at least ``1 - max_waste`` of its rows, warp
        rounding absorbs strictly less than one warp per bucket, and the
        DP total never exceeds the greedy pure-threshold split it
        dominates."""
        lengths = np.asarray(
            np.concatenate([rng.integers(1, 40, 200), rng.integers(200, 2000, 80)])
        )
        buckets = pack_length_buckets(lengths)
        for b in buckets:
            assert b.lanes_padded - b.lanes < WARP
            if b.lanes > WARP:
                floor = (1.0 - DEFAULT_MAX_WASTE) * b.width
                assert int(lengths[b.indices].min()) >= floor
        launched = sum(b.grid_cells() for b in buckets)
        # greedy admissible baseline: cut whenever a length drops below
        # the current bucket's floor
        s = np.sort(lengths[lengths > 0])[::-1]
        greedy, start = 0, 0
        for i in range(1, s.size + 1):
            if i == s.size or s[i] < (1.0 - DEFAULT_MAX_WASTE) * s[start]:
                k = i - start
                greedy += (-(-k // WARP)) * WARP * int(s[start])
                start = i
        assert launched <= greedy

    def test_uniform_lengths_pack_without_length_padding(self):
        lengths = np.full(64, 100, dtype=np.int64)
        buckets = pack_length_buckets(lengths)
        assert all(b.width == 100 for b in buckets)
        assert sum(b.grid_cells() for b in buckets) == 64 * 100

    def test_zero_length_sequences_are_dropped(self):
        lengths = np.array([0, 5, 0, 7], dtype=np.int64)
        buckets = pack_length_buckets(lengths)
        packed = np.concatenate([b.indices for b in buckets])
        assert sorted(packed.tolist()) == [1, 3]


class TestAccuracy:
    @pytest.mark.parametrize("M", [1, 16, 31, 32, 33, 96])
    def test_msv_bit_identical(self, M, rng):
        mp, _ = _profiles(M, seed=M)
        db = random_database(40, 90, rng)
        ref = msv_score_batch(mp, db)
        got = msv_batched_kernel(mp, db)
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    @pytest.mark.parametrize("M", [1, 16, 31, 32, 33, 96])
    def test_viterbi_bit_identical(self, M, rng):
        _, vp = _profiles(M, seed=M)
        db = random_database(40, 90, rng)
        ref = viterbi_score_batch(vp, db)
        got = viterbi_batched_kernel(vp, db)
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    def test_matches_per_sequence_loop(self, rng):
        """The batched kernel IS N single-sequence calls, bit for bit."""
        mp, vp = _profiles(48, seed=3)
        db = random_database(30, 120, rng)
        msv = msv_batched_kernel(mp, db)
        vit = viterbi_batched_kernel(vp, db)
        for i, seq in enumerate(db):
            assert msv_score_sequence(mp, seq.codes) == (
                float("inf") if msv.overflowed[i] else msv.scores[i]
            )
            assert viterbi_score_sequence(vp, seq.codes) == (
                float("inf") if vit.overflowed[i] else vit.scores[i]
            )

    def test_overflow_lane_retirement(self, rng):
        """Strong homologs overflow the u8/i16 range mid-kernel; retired
        lanes must latch exactly like the reference."""
        hmm = sample_hmm(70, rng)
        sp = SearchProfile(hmm, L=110)
        mp = MSVByteProfile.from_profile(sp)
        vp = ViterbiWordProfile.from_profile(sp)
        db = homolog_database(50, 110, rng, hmm=hmm, homolog_fraction=0.6)
        for prof, batched, ref_fn in (
            (mp, msv_batched_kernel, msv_score_batch),
            (vp, viterbi_batched_kernel, viterbi_score_batch),
        ):
            ref = ref_fn(prof, db)
            got = batched(prof, db)
            assert np.array_equal(ref.scores, got.scores)
            assert np.array_equal(ref.overflowed, got.overflowed)
        assert msv_score_batch(mp, db).overflowed.any()  # the point

    def test_wide_delete_chain_takes_the_int64_scan(self):
        """More than 2**16 nodes of -inf D->D links push the Delete-chain
        scan past the int32 range; the kernel must switch to int64 and
        stay exact.  Only the last nodes score, and only through D->M,
        so a wrapped scan would lose the hit."""
        _, vp = _profiles(8, seed=11)
        M = (1 << 16) + 64
        never = np.full(M, VF_WORD_MIN, dtype=np.int32)
        free = np.zeros(M, dtype=np.int32)
        rwv = np.full((vp.rwv.shape[0], M), VF_WORD_MIN, dtype=np.int32)
        rwv[:, -32:] = 2000
        wide = dataclasses.replace(
            vp, M=M, rwv=rwv, enter_mm=never, enter_im=never,
            enter_dm=free, tmi=never, tii=never, tmd=free, tdd=never,
        )
        batch = _padded_batch([6, 0, 4], np.random.default_rng(12))
        ref = viterbi_score_batch(wide, batch)
        got = viterbi_batched_kernel(wide, batch)
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=150),
                         min_size=1, max_size=40),
        data_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_arbitrary_length_mixtures(self, lengths, data_seed):
        """Batched == reference for any length mixture, including empty
        and 1-residue lanes (a PaddedBatch admits length 0)."""
        mp, vp = _profiles(37, seed=7)
        batch = _padded_batch(lengths, np.random.default_rng(data_seed))
        for prof, batched, ref_fn in (
            (mp, msv_batched_kernel, msv_score_batch),
            (vp, viterbi_batched_kernel, viterbi_score_batch),
        ):
            ref = ref_fn(prof, batch)
            got = batched(prof, batch)
            assert np.array_equal(ref.scores, got.scores)
            assert np.array_equal(ref.overflowed, got.overflowed)


class TestCounters:
    def test_counters_match_warp_kernel(self, rng):
        """Same model+database => same rows/cells/saturations as the
        one-sequence-per-warp kernels; only the launch geometry differs."""
        mp, vp = _profiles(64, seed=5)
        db = random_database(40, 100, rng)
        for prof, batched, warp in (
            (mp, msv_batched_kernel, msv_warp_kernel),
            (vp, viterbi_batched_kernel, viterbi_warp_kernel),
        ):
            cb, cw = KernelCounters(), KernelCounters()
            batched(prof, db, counters=cb)
            warp(prof, db, counters=cw)
            assert cb.rows == cw.rows
            assert cb.cells == cw.cells
            assert cb.saturations == cw.saturations
            assert cb.sequences == cw.sequences

    def test_padding_fraction_is_bounded_and_reported(self, rng):
        mp, _ = _profiles(40, seed=9)
        db = random_database(200, 120, rng)
        c = KernelCounters()
        msv_batched_kernel(mp, db, counters=c)
        assert c.grid_cells > 0
        assert c.grid_cells == c.padding_cells + sum(
            int(len(s)) for s in db
        )
        frac = c.padding_fraction
        assert 0.0 <= frac < 0.5
        assert frac == pytest.approx(c.padding_cells / c.grid_cells)

    def test_no_warp_primitives_needed(self, rng):
        """Cross-sequence batching is lane-local: no shuffles, no
        barriers - that is the whole point of packing over lanes."""
        mp, vp = _profiles(50, seed=2)
        db = random_database(30, 90, rng)
        for prof, batched in ((mp, msv_batched_kernel),
                              (vp, viterbi_batched_kernel)):
            c = KernelCounters()
            batched(prof, db, counters=c)
            assert c.shuffles == 0
            assert c.syncthreads == 0


def _pin_case(name):
    """Seeded inputs of the counter pins: ``mixed`` lengths (0 and 1
    included, several multi-warp buckets) or a ``homolog`` batch whose
    strong hits retire lanes mid-kernel in both kernels."""
    if name == "mixed":
        sp = SearchProfile(sample_hmm(45, np.random.default_rng(101)), L=120)
        rng = np.random.default_rng(102)
        lengths = np.concatenate([[0, 1, 0, 1, 2], rng.integers(0, 320, 150)])
        return sp, _padded_batch(lengths, rng)
    hmm = sample_hmm(70, np.random.default_rng(201))
    db = homolog_database(120, 110, np.random.default_rng(202), hmm=hmm,
                          homolog_fraction=0.6)
    return SearchProfile(hmm, L=110), db.padded_batch()


def _pin(rows, strips, cells, shared_loads, shared_stores, global_bytes,
         sequences, grid_cells, padding_cells):
    return dict(
        rows=rows, strips=strips, cells=cells, shared_loads=shared_loads,
        shared_stores=shared_stores, bank_conflict_extra=0,
        global_bytes=global_bytes, shuffles=0, votes=0, syncthreads=0,
        lazyf_rows_checked=0, lazyf_passes=0, lazyf_extra_passes=0,
        sequences=sequences, saturations=0, grid_cells=grid_cells,
        padding_cells=padding_cells,
    )


_MIXED_SHARED = _pin(25625, 940, 1153125, 84600, 42300, 17316, 155, 30080, 4455)
_MIXED_GLOBAL = _pin(25625, 940, 1153125, 42300, 42300, 1170441, 155, 30080,
                     4455)

#: (case, kernel, config) -> the complete KernelCounters field dict.  The
#: figures are the modelled launch geometry (length buckets of 32-lane
#: warps, per-row strips, retired lanes charged through their overflow
#: row), so they must not depend on how the host schedules the sweep.
COUNTER_PINS = {
    ("mixed", "msv", "SHARED"): _MIXED_SHARED,
    ("mixed", "msv", "GLOBAL"): _MIXED_GLOBAL,
    ("mixed", "vit", "SHARED"): _MIXED_SHARED,
    ("mixed", "vit", "GLOBAL"): _MIXED_GLOBAL,
    ("homolog", "msv", "SHARED"): _pin(7850, 589, 549500, 82460, 41230, 8856,
                                       120, 23104, 10141),
    ("homolog", "msv", "GLOBAL"): _pin(7850, 589, 549500, 41230, 41230,
                                       558356, 120, 23104, 10141),
    ("homolog", "vit", "SHARED"): _pin(8624, 601, 603680, 84140, 42070, 8856,
                                       120, 23104, 10141),
    ("homolog", "vit", "GLOBAL"): _pin(8624, 601, 603680, 42070, 42070,
                                       612536, 120, 23104, 10141),
}


class TestCounterPins:
    @pytest.mark.parametrize("key", sorted(COUNTER_PINS))
    def test_counter_fields_pinned(self, key):
        case, kernel, config = key
        sp, batch = _pin_case(case)
        if kernel == "msv":
            prof, batched = MSVByteProfile.from_profile(sp), msv_batched_kernel
        else:
            prof = ViterbiWordProfile.from_profile(sp)
            batched = viterbi_batched_kernel
        c = KernelCounters()
        result = batched(prof, batch, config=MemoryConfig[config], counters=c)
        assert c.as_dict() == COUNTER_PINS[key]
        assert result.overflowed.any() == (case == "homolog")

    def test_more_lanes_than_one_sweep_holds(self):
        """300 short lanes at M=1100 exceed the per-sweep lane cap, so
        the host runs several sweeps; scores stay bit-identical."""
        sp = SearchProfile(sample_hmm(1100, np.random.default_rng(301)), L=40)
        rng = np.random.default_rng(302)
        batch = _padded_batch(rng.integers(0, 40, 300), rng)
        for prof, batched, ref_fn in (
            (MSVByteProfile.from_profile(sp), msv_batched_kernel,
             msv_score_batch),
            (ViterbiWordProfile.from_profile(sp), viterbi_batched_kernel,
             viterbi_score_batch),
        ):
            ref = ref_fn(prof, batch)
            got = batched(prof, batch)
            assert np.array_equal(ref.scores, got.scores)
            assert np.array_equal(ref.overflowed, got.overflowed)


class TestSanitizer:
    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_sanitizer_clean(self, kernel_idx, rng):
        mp, vp = _profiles(45, seed=4)
        prof, batched = ((mp, msv_batched_kernel),
                         (vp, viterbi_batched_kernel))[kernel_idx]
        db = random_database(40, 90, rng)
        c = KernelCounters()
        batched(prof, db, counters=c, sanitize=True)
        assert c.sanitizer is not None
        assert c.sanitizer.clean
        assert c.bank_conflict_extra == 0

    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_sanitizer_clean_mixed_length_buckets(self, kernel_idx, rng):
        """Wildly mixed lengths force several packing buckets with
        partially filled warps; the shared-memory model must stay
        conflict-, hazard- and garbage-free in every one of them."""
        mp, vp = _profiles(45, seed=4)
        prof, batched = ((mp, msv_batched_kernel),
                         (vp, viterbi_batched_kernel))[kernel_idx]
        lengths = [0, 1, 2, 7, 8, 9, 60, 61, 63, 64, 65, 240, 241, 400]
        batch = _padded_batch(lengths, rng)
        c = KernelCounters()
        batched(prof, batch, counters=c, sanitize=True)
        assert c.sanitizer is not None
        assert c.sanitizer.clean
        assert c.bank_conflict_extra == 0

    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_sanitizer_clean_across_retirement(self, kernel_idx, rng):
        """Lane retirement (overflowed homologs latching mid-kernel)
        must not leak lane garbage into live lanes' shared traffic."""
        hmm = sample_hmm(70, rng)
        sp = SearchProfile(hmm, L=110)
        prof = (MSVByteProfile.from_profile(sp),
                ViterbiWordProfile.from_profile(sp))[kernel_idx]
        batched = (msv_batched_kernel, viterbi_batched_kernel)[kernel_idx]
        db = homolog_database(50, 110, rng, hmm=hmm, homolog_fraction=0.6)
        c = KernelCounters()
        result = batched(prof, db, counters=c, sanitize=True)
        assert result.overflowed.any()  # retirement actually happened
        assert c.sanitizer is not None
        assert c.sanitizer.clean
        assert c.bank_conflict_extra == 0
