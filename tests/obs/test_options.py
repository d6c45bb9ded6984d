"""SearchOptions: defaults, coercion, docs, and the one way to pass them."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import engines
from repro.errors import PipelineError
from repro.hardening import SALVAGE, STRICT
from repro.kernels.memconfig import MemoryConfig
from repro.options import SearchOptions, field_doc

CPU_SSE = engines.resolve("cpu_sse")
GPU_WARP = engines.resolve("gpu_warp")


class TestSearchOptions:
    def test_defaults(self):
        o = SearchOptions()
        assert o.engine is CPU_SSE
        assert o.config is MemoryConfig.SHARED
        assert o.thresholds is None
        assert o.selfcheck == 0
        assert o.guard is True
        assert o.policy is STRICT
        assert o.quarantine is None
        assert o.tracer is None

    def test_frozen(self):
        o = SearchOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.selfcheck = 3

    def test_engine_string_coercion(self):
        assert SearchOptions(engine="gpu").engine is GPU_WARP
        assert SearchOptions(engine="cpu").engine is CPU_SSE
        assert SearchOptions(engine="gpu_warp").engine is GPU_WARP

    def test_bad_engine_raises(self):
        with pytest.raises(PipelineError):
            SearchOptions(engine="tpu")

    def test_negative_selfcheck_raises(self):
        with pytest.raises(PipelineError):
            SearchOptions(selfcheck=-1)

    def test_replace_returns_coerced_copy(self):
        o = SearchOptions()
        o2 = dataclasses.replace(o, engine="gpu", selfcheck=2)
        assert o2.engine is GPU_WARP and o2.selfcheck == 2
        assert o.engine is CPU_SSE  # original untouched

    def test_every_field_has_doc(self):
        for name in SearchOptions.__dataclass_fields__:
            doc = field_doc(name)
            assert isinstance(doc, str) and doc

    def test_field_doc_unknown_name(self):
        with pytest.raises(PipelineError):
            field_doc("warp_speed")


class TestDeprecationShim:
    """SearchOptions is the one way to configure a search."""

    def test_no_legacy_kwargs_no_warning(self, small_hmm, small_database):
        from repro.pipeline.pipeline import HmmsearchPipeline

        pipe = HmmsearchPipeline(small_hmm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pipe.search(small_database, SearchOptions(engine=CPU_SSE))

    def test_passthrough_keeps_identity(self):
        from repro.service import BatchSearchService

        base = SearchOptions(selfcheck=1)
        service = BatchSearchService(options=base)
        assert service.options is base
        assert service.scheduler.options is base

    def test_search_rejects_engine_kwarg(self, small_hmm, small_database):
        from repro.pipeline.pipeline import HmmsearchPipeline

        pipe = HmmsearchPipeline(small_hmm)
        with pytest.raises(TypeError):
            pipe.search(small_database, engine="cpu_sse")

    @pytest.mark.parametrize("kwarg", ["config", "selfcheck", "policy"])
    def test_service_rejects_option_kwargs(self, kwarg):
        from repro.service import BatchSearchService, Scheduler

        with pytest.raises(TypeError):
            BatchSearchService(**{kwarg: None})
        with pytest.raises(TypeError):
            Scheduler(**{kwarg: None})


class TestPipelineShim:
    def test_service_options_object_is_silent(self):
        from repro.service import BatchSearchService

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = BatchSearchService(
                options=SearchOptions(selfcheck=2, policy=SALVAGE)
            )
        assert service.options.selfcheck == 2
        assert service.scheduler.options.policy is SALVAGE
