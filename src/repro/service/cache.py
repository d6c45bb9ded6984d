"""Memoization of prepared search pipelines, keyed by model identity.

Constructing an :class:`~repro.pipeline.pipeline.HmmsearchPipeline` is
the expensive part of serving a query: it quantizes the MSV/Viterbi
profiles and - dominating everything - calibrates the stage null
distributions by scoring hundreds of background sequences.  Repeat
queries against the same model (the common case for a search service:
popular Pfam families get hit constantly) should pay that cost once.

The cache key is the **content** of the model plus the pipeline
settings, not object identity: two `Plan7HMM` instances loaded from the
same file hit the same entry.  Eviction is LRU with a configurable
bound, and hit/miss/eviction counters feed the service metrics report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import PipelineError
from ..hmm import fingerprint
from ..hmm.plan7 import Plan7HMM
from ..pipeline.pipeline import HmmsearchPipeline, PipelineThresholds

__all__ = ["PipelineSettings", "PipelineCache"]


@dataclass(frozen=True)
class PipelineSettings:
    """Hashable pipeline-construction parameters (part of the cache key)."""

    L: int = 400
    multihit: bool = True
    seed: int = 42
    calibration_filter_sample: int = 400
    calibration_forward_sample: int = 120

    def build(
        self, hmm: Plan7HMM, thresholds: PipelineThresholds | None = None
    ) -> HmmsearchPipeline:
        return HmmsearchPipeline(
            hmm,
            L=self.L,
            multihit=self.multihit,
            thresholds=thresholds,
            seed=self.seed,
            calibration_filter_sample=self.calibration_filter_sample,
            calibration_forward_sample=self.calibration_forward_sample,
        )


class PipelineCache:
    """Bounded LRU of calibrated pipelines with hit/miss accounting.

    The key is (model content, pipeline settings, thresholds): anything
    that changes quantization, calibration or stage filtering gets its
    own entry, so a cached pipeline is always safe to reuse verbatim.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise PipelineError("cache must hold at least one pipeline")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, HmmsearchPipeline] = OrderedDict()  # guarded-by: _lock
        self.hits = 0        # guarded-by: _lock
        self.misses = 0      # guarded-by: _lock
        self.evictions = 0   # guarded-by: _lock

    @staticmethod
    def _key(
        hmm: Plan7HMM,
        settings: PipelineSettings,
        thresholds: PipelineThresholds | None,
    ) -> tuple:
        th = (
            None
            if thresholds is None
            else (thresholds.f1, thresholds.f2, thresholds.f3,
                  thresholds.report_evalue)
        )
        return (fingerprint.hmm_fingerprint(hmm), settings, th)

    def get(
        self,
        hmm: Plan7HMM,
        settings: PipelineSettings | None = None,
        thresholds: PipelineThresholds | None = None,
    ) -> HmmsearchPipeline:
        """The calibrated pipeline for this model, building it on miss."""
        settings = settings or PipelineSettings()
        key = self._key(hmm, settings, thresholds)
        with self._lock:
            pipeline = self._entries.get(key)
            if pipeline is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return pipeline
            self.misses += 1
        # build outside the lock: calibration takes seconds, and two
        # concurrent misses on the same key just race to insert the
        # same (deterministically built) pipeline
        pipeline = settings.build(hmm, thresholds)
        with self._lock:
            self._entries[key] = pipeline
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return pipeline

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, hmm: Plan7HMM) -> bool:
        fp = fingerprint.hmm_fingerprint(hmm)
        with self._lock:
            return any(key[0] == fp for key in self._entries)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
