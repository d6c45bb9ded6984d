"""Pipeline cache: content keying, LRU bound, hit/miss accounting."""

import numpy as np
import pytest

from repro import sample_hmm
from repro.errors import PipelineError
from repro.hmm import dumps_hmm, loads_hmm
from repro.pipeline import PipelineThresholds
from repro.hmm.fingerprint import hmm_fingerprint
from repro.service import PipelineCache, PipelineSettings

FAST = PipelineSettings(
    L=60, calibration_filter_sample=60, calibration_forward_sample=25
)


@pytest.fixture(scope="module")
def hmm():
    return sample_hmm(15, np.random.default_rng(3), name="cachefam")


class TestFingerprint:
    def test_stable(self, hmm):
        assert hmm_fingerprint(hmm) == hmm_fingerprint(hmm)

    def test_content_not_identity(self, hmm):
        clone = loads_hmm(dumps_hmm(hmm))
        assert clone is not hmm
        assert hmm_fingerprint(clone) == hmm_fingerprint(hmm)

    def test_different_models_differ(self, hmm):
        other = sample_hmm(15, np.random.default_rng(4), name="cachefam")
        assert hmm_fingerprint(other) != hmm_fingerprint(hmm)


class TestCache:
    def test_miss_then_hit(self, hmm):
        cache = PipelineCache()
        first = cache.get(hmm, FAST)
        second = cache.get(hmm, FAST)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_hit_by_content(self, hmm):
        """A model re-loaded from its file reuses the calibration."""
        cache = PipelineCache()
        cache.get(hmm, FAST)
        clone = loads_hmm(dumps_hmm(hmm))
        assert cache.get(clone, FAST) is cache.get(hmm, FAST)
        assert cache.misses == 1

    def test_settings_join_the_key(self, hmm):
        cache = PipelineCache()
        a = cache.get(hmm, FAST)
        b = cache.get(hmm, PipelineSettings(
            L=80, calibration_filter_sample=60,
            calibration_forward_sample=25,
        ))
        assert a is not b
        assert cache.misses == 2

    def test_thresholds_join_the_key(self, hmm):
        cache = PipelineCache()
        a = cache.get(hmm, FAST)
        b = cache.get(hmm, FAST, thresholds=PipelineThresholds(f1=0.05))
        assert a is not b
        assert b.thresholds.f1 == 0.05

    def test_lru_eviction_bound(self):
        rng = np.random.default_rng(5)
        cache = PipelineCache(max_entries=2)
        models = [
            sample_hmm(12, rng, name=f"fam{i}") for i in range(3)
        ]
        first = cache.get(models[0], FAST)
        cache.get(models[1], FAST)
        cache.get(models[0], FAST)          # refresh fam0
        cache.get(models[2], FAST)          # evicts fam1, not fam0
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(models[0], FAST) is first   # still cached
        assert models[1] not in cache

    def test_contains_by_content(self, hmm):
        cache = PipelineCache()
        assert hmm not in cache
        cache.get(hmm, FAST)
        assert hmm in cache

    def test_stats_shape(self, hmm):
        cache = PipelineCache(max_entries=4)
        cache.get(hmm, FAST)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert stats["misses"] == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(PipelineError):
            PipelineCache(max_entries=0)

    def test_clear(self, hmm):
        cache = PipelineCache()
        cache.get(hmm, FAST)
        cache.clear()
        assert len(cache) == 0
