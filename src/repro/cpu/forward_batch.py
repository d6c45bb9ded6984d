"""Batched Forward: scaled odds-space rows, lane-packed across sequences.

The same recurrence as :func:`repro.cpu.generic.generic_forward_score`
(which stays the log-space reference), computed the way HMMER 3's
Forward filter does it: in probability (odds) space with per-row
rescaling, so the hot loop is multiply-adds and one ``cumsum`` instead
of ``logaddexp`` chains.

* **Odds space.**  Every table is ``exp`` of the
  :class:`~repro.cpu.generic.GenericProfile` log-odds table; impossible
  transitions become exact zeros.
* **Per-row rescaling.**  After each row, a lane's cells and special
  states are divided by the sum of its special states (N + J + C) and
  the log of that factor is added to the lane's running total, so the
  stored values stay near 1 however long the sequence is.  The score is
  ``log(C) + total + C_move``.
* **Lane packing.**  Lanes are sorted by length, longest first (like
  :mod:`repro.kernels.batched`), so the lanes still live at row ``i``
  form a prefix and every row computes on that prefix only - no padded
  cells, no masks.  Lane groups are the batched kernels' host sweeps
  (:func:`repro.kernels.batched._lane_groups`), capped at
  ``_GROUP_CELLS`` cells per state row to bound memory on large
  databases.
* **Segmented linear Delete chain.**  ``D[j] = inj[j] + D[j-1] t[j-1]``
  is ``D = P * cumsum(inj / P)`` with ``P`` the running product of the
  D->D odds.  The scan restarts where that product would fall below
  ``~1e-150`` (so ``1 / P`` cannot overflow) and at every -inf link;
  a restarted segment carries the previous segment's last cell in.

Equality with the per-sequence log-space engine (to 1e-9 nats, also on
sequences far longer than the length model, M=1 and M>1000 models with
underflowing Delete chains, -inf D->D links and all-``X`` sequences) is
a tested invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hmm.profile import SearchProfile
from ..kernels.batched import _lane_groups, _live_prefix_counts
from ..scoring.guardrails import GuardrailCounters
from ..sequence.database import PaddedBatch, SequenceDatabase
from .generic import GenericProfile

__all__ = ["FORWARD_KERNEL", "forward_score_batch"]

#: Engine tag the pipeline's ``forward_batch`` kernel span carries.
FORWARD_KERNEL = "cpu_scaled_odds"

#: A Delete-chain segment restarts before its D->D product drops below
#: ~1e-150, so dividing by the product stays far from overflow.
_CHAIN_FLOOR = float(np.log(1e-150))


@dataclass(frozen=True)
class _DeleteChain:
    """Segmented linear scan for ``D[j] = inj[j] + D[j-1] * t[j-1]``.

    ``prod[j]`` is the D->D odds product from ``j``'s segment start to
    ``j``; ``inject[j]`` is the M->D odds into ``j`` divided by it, and
    ``carry[lo]`` moves the previous segment's last cell into ``lo``.
    """

    segments: tuple[tuple[int, int], ...]
    prod: np.ndarray
    inject: np.ndarray
    carry: np.ndarray

    @classmethod
    def plan(cls, tmd: np.ndarray, tdd: np.ndarray) -> "_DeleteChain":
        M = tdd.size
        log_prod = np.zeros(M)
        starts = [0]
        acc = 0.0
        for j in range(1, M):
            acc += float(tdd[j - 1])
            if not acc >= _CHAIN_FLOOR:  # underflowing product or -inf link
                starts.append(j)
                acc = 0.0
            log_prod[j] = acc
        prod = np.exp(log_prod)
        inject = np.zeros(M)
        inject[1:] = np.exp(tmd[:-1] - log_prod[1:])
        carry = np.zeros(M)
        for lo in starts[1:]:
            carry[lo] = prod[lo - 1] * np.exp(tdd[lo - 1])
        ends = starts[1:] + [M]
        return cls(tuple(zip(starts, ends)), prod, inject, carry)

    def solve(self, m_prev_node: np.ndarray, out: np.ndarray) -> None:
        """Delete row into ``out`` from the match row aligned so that
        column ``j`` holds node ``j - 1`` (column 0 is zero)."""
        np.multiply(m_prev_node, self.inject, out=out)
        for lo, hi in self.segments:
            seg = out[:, lo:hi]
            if lo:
                seg[:, 0] += out[:, lo - 1] * self.carry[lo]
            np.cumsum(seg, axis=1, out=seg)
        out *= self.prod


def forward_score_batch(
    profile: SearchProfile | GenericProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard: GuardrailCounters | None = None,
) -> np.ndarray:
    """Forward log-odds scores (nats) for a whole database.

    ``guard.nonfinite`` counts sequences whose final score is NaN or
    infinite - floating-point Forward has no saturating floor, so a
    non-finite score here means numerical trouble, not a valid result.
    Zero-length sequences score -inf.
    """
    gp = (
        GenericProfile.from_profile(profile)
        if isinstance(profile, SearchProfile)
        else profile
    )
    if isinstance(batch, SequenceDatabase):
        batch = batch.padded_batch()
    n, M = batch.n_seqs, gp.M
    nats = np.full(n, float("-inf"))
    odds = _OddsProfile.from_generic(gp)
    for idx in _lane_groups(batch.lengths, M):
        log_c = odds.score_group(batch.codes[idx], batch.lengths[idx])
        nats[idx] = log_c + gp.C_move
    if guard is not None:
        guard.nonfinite += int(np.count_nonzero(~np.isfinite(nats)))
    return nats


@dataclass(frozen=True)
class _OddsProfile:
    """``exp`` of a :class:`GenericProfile`'s tables, laid out for
    ``(lanes, M + 1)`` state rows whose column 0 is a permanent zero
    (so "node ``j - 1``" is the view ``[:, :M]``)."""

    M: int
    msc: np.ndarray      # (Kp, M) emission odds
    enter_mm: np.ndarray  # (M,) into node j from node j - 1
    enter_im: np.ndarray
    enter_dm: np.ndarray
    tmi: np.ndarray       # (M,) same node
    tii: np.ndarray
    chain: _DeleteChain
    loops: np.ndarray     # (3,) N->N, J->J, C->C on the (N, J, C) specials
    exits: np.ndarray     # (2,) E->J, E->C
    enter_b: np.ndarray   # (2,) N->B->M, J->B->M (folds in B->M)

    @classmethod
    def from_generic(cls, gp: GenericProfile) -> "_OddsProfile":
        e = np.exp
        return cls(
            M=gp.M,
            msc=e(gp.msc),
            enter_mm=e(gp.enter_mm),
            enter_im=e(gp.enter_im),
            enter_dm=e(gp.enter_dm),
            tmi=e(gp.tmi),
            tii=e(gp.tii),
            chain=_DeleteChain.plan(gp.tmd, gp.tdd),
            loops=e([gp.N_loop, gp.J_loop, gp.C_loop]),
            exits=e([gp.E_loop, gp.E_move]),
            enter_b=e([gp.N_move + gp.tbm, gp.J_move + gp.tbm]),
        )

    def score_group(self, codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``log C`` plus the accumulated row scales, per lane, for lanes
        sorted by length descending (all non-empty)."""
        M, k = self.M, lengths.size
        width = int(lengths[0])
        rows = np.ascontiguousarray(codes[:, :width].T)  # (width, k)
        live = _live_prefix_counts(lengths, width)
        Mr = np.zeros((k, M + 1))
        Ir = np.zeros((k, M + 1))
        Dr = np.zeros((k, M + 1))
        sv_buf = np.empty((k, M))
        tmp_buf = np.empty((k, M))
        specials = np.zeros((k, 3))  # N, J, C
        specials[:, 0] = 1.0
        b_in = np.full(k, self.enter_b[0])  # B -> M odds
        total = np.zeros(k)
        for i in range(width):
            p = int(live[i])
            mr, ir, dr = Mr[:p], Ir[:p], Dr[:p]
            sv, tmp = sv_buf[:p], tmp_buf[:p]
            # match entries from row i - 1, node j - 1, plus B -> M
            np.multiply(mr[:, :M], self.enter_mm, out=sv)
            np.multiply(ir[:, :M], self.enter_im, out=tmp)
            sv += tmp
            np.multiply(dr[:, :M], self.enter_dm, out=tmp)
            sv += tmp
            sv += b_in[:p, None]
            # inserts from row i - 1, same node (before M is overwritten)
            ir[:, 1:] *= self.tii
            np.multiply(mr[:, 1:], self.tmi, out=tmp)
            ir[:, 1:] += tmp
            np.take(self.msc, rows[i, :p], axis=0, out=tmp)
            np.multiply(sv, tmp, out=mr[:, 1:])
            # specials, then rescale the row by their sum
            xE = mr[:, 1:].sum(axis=1)
            sp = specials[:p]
            sp *= self.loops
            sp[:, 1:] += xE[:, None] * self.exits
            scale = sp.sum(axis=1)
            total[:p] += np.log(scale)
            inv = (1.0 / scale)[:, None]
            sp *= inv
            np.dot(sp[:, :2], self.enter_b, out=b_in[:p])
            mr[:, 1:] *= inv
            ir[:, 1:] *= inv
            self.chain.solve(mr[:, :M], out=dr[:, 1:])
        with np.errstate(divide="ignore"):
            return np.log(specials[:, 2]) + total
