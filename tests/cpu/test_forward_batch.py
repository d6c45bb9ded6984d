"""Batched Forward engine equals the per-sequence engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alphabet import AMINO
from repro.cpu import generic_forward_score
from repro.cpu.forward_batch import forward_score_batch
from repro.hmm import Plan7HMM, SearchProfile, sample_hmm
from repro.scoring.guardrails import GuardrailCounters
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


class TestBatchForward:
    def test_matches_per_sequence(self, small_profile, small_database):
        batch = forward_score_batch(small_profile, small_database)
        for i, seq in enumerate(small_database):
            single = generic_forward_score(small_profile, seq.codes)
            assert batch[i] == pytest.approx(single, abs=1e-9)

    def test_mixed_extreme_lengths(self, rng):
        hmm = sample_hmm(25, rng)
        prof = SearchProfile(hmm, L=80)
        seqs = [
            DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
            for i, L in enumerate([1, 2, 250, 30, 1])
        ]
        db = SequenceDatabase(seqs)
        batch = forward_score_batch(prof, db)
        for i, s in enumerate(seqs):
            assert batch[i] == pytest.approx(
                generic_forward_score(prof, s.codes), abs=1e-9
            )

    def test_homolog_scores_dominate(self, small_hmm, small_profile, rng):
        dom = small_hmm.sample_sequence(rng)
        rand = random_sequence_codes(dom.size, rng)
        db = SequenceDatabase(
            [DigitalSequence("hom", dom), DigitalSequence("rand", rand)]
        )
        scores = forward_score_batch(small_profile, db)
        assert scores[0] > scores[1] + 5.0

    def test_order_independence(self, small_profile, small_database):
        fwd = forward_score_batch(small_profile, small_database)
        rev_db = small_database.subset(
            list(range(len(small_database) - 1, -1, -1))
        )
        rev = forward_score_batch(small_profile, rev_db)
        assert np.allclose(fwd[::-1], rev, atol=1e-12)


_X = AMINO.code("X")


def _hmm_for(case, M, rng):
    """A sampled model; ``low_dd`` makes every D->D link improbable (the
    chain product underflows within a row), ``dead_dd`` zeroes a few so
    the profile carries -inf D->D links."""
    hmm = sample_hmm(M, rng)
    if case not in ("low_dd", "dead_dd") or M < 2:
        return hmm
    tr = hmm.transitions.copy()
    t_dd = tr[: M - 1, 6].copy()
    if case == "low_dd":
        t_dd = rng.uniform(1e-4, 1e-2, size=M - 1)
    else:
        t_dd[rng.integers(0, M - 1, size=3)] = 0.0
    tr[: M - 1, 5] = 1.0 - t_dd
    tr[: M - 1, 6] = t_dd
    return Plan7HMM(hmm.name, hmm.match_emissions, hmm.insert_emissions, tr)


@given(
    M=st.integers(min_value=1, max_value=30),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    case=st.sampled_from(["random", "long", "low_dd", "dead_dd", "all_x"]),
)
@example(M=1, n=3, seed=1, case="long")
@example(M=1, n=4, seed=2, case="all_x")
@example(M=12, n=2, seed=3, case="long")
@example(M=30, n=3, seed=4, case="low_dd")
@example(M=20, n=5, seed=5, case="dead_dd")
@example(M=25, n=6, seed=6, case="all_x")
@settings(max_examples=25, deadline=None)
def test_batch_equals_single_property(M, n, seed, case):
    """Cases: ``long`` puts one 5k-20k residue sequence (far beyond
    L=40) in the batch, exercising the per-row rescaling; ``low_dd``
    uses a model of M >= 1,100; ``all_x`` scores all-``X`` sequences."""
    rng = np.random.default_rng(seed)
    if case == "low_dd":
        M = int(rng.integers(1100, 1300))
    prof = SearchProfile(_hmm_for(case, M, rng), L=40)
    lengths = rng.integers(1, 60, size=n)
    if case == "long":
        lengths[0] = rng.integers(5000, 20001)
    seqs = [
        DigitalSequence(
            f"s{i}",
            np.full(int(L), _X, dtype=np.uint8) if case == "all_x"
            else random_sequence_codes(int(L), rng),
        )
        for i, L in enumerate(lengths)
    ]
    db = SequenceDatabase(seqs)
    guard = GuardrailCounters()
    batch = forward_score_batch(prof, db, guard=guard)
    assert guard.nonfinite == 0
    for i, s in enumerate(seqs):
        assert batch[i] == pytest.approx(
            generic_forward_score(prof, s.codes), abs=1e-9
        )
