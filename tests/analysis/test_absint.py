"""Interval abstract interpreter: certification of the real kernels,
escape detection on injected bugs, wrap-repair recognition, encode-clip
discharge, and the --prove CLI surface."""

import ast
import json
import os
import textwrap

import pytest

from repro.analysis import lint_file
from repro.analysis.absint import (
    PROVE_TARGETS,
    IntervalProverRule,
    analyze_source,
    certificate_doc,
    certified_clip_lines,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _real_source(relpath):
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as fh:
        return fh.read()


class TestRealKernelsCertified:
    """Acceptance pin: every u8/i16 obligation site in the shipped
    kernel and scoring modules is discharged."""

    @pytest.mark.parametrize("relpath", sorted(PROVE_TARGETS))
    def test_zero_unproven(self, relpath):
        proof = analyze_source(relpath, _real_source(relpath))
        assert proof.unproven == [], [s.to_doc() for s in proof.unproven]

    def test_certificate_doc_shape(self):
        doc = certificate_doc(REPO_ROOT)
        assert doc["tool"] == "repro-prove"
        assert doc["proven"] is True
        assert doc["unproven"] == 0
        assert doc["errors"] == []
        assert doc["sites"] > 0
        assert {t["path"] for t in doc["targets"]} == set(PROVE_TARGETS)
        for target in doc["targets"]:
            assert target["unproven"] == 0
            for fn in target["functions"]:
                for site in fn["sites"]:
                    assert site["status"] in {"proven", "by_helper", "by_repair"}

    def test_kernels_have_nontrivial_obligations(self):
        """The proof is not vacuous: the batched kernel alone carries
        many arithmetic/store obligations."""
        relpath = "src/repro/kernels/batched.py"
        proof = analyze_source(relpath, _real_source(relpath))
        kinds = {s.kind for fn in proof.functions for s in fn.sites}
        assert {"store", "helper", "repair"} <= kinds


class TestEscapeDetection:
    """The acceptance-criteria bug: an unguarded a + b on an i16-tagged
    array must be caught with a finding naming the escaping interval."""

    _BUGGY = textwrap.dedent(
        """
        import numpy as np

        def unguarded(n):
            a = np.full(n, 20000, dtype=np.int16)
            b = np.full(n, 32767, dtype=np.int16)
            return a + b
        """
    )

    def test_unguarded_add_is_unproven(self):
        relpath = "src/repro/kernels/viterbi_warp.py"  # any i16 target
        proof = analyze_source(relpath, self._BUGGY)
        bad = proof.unproven
        assert len(bad) == 1
        site = bad[0]
        assert site.kind == "arith"
        assert site.status == "unproven"
        assert (site.lo, site.hi) == (52767, 52767)

    def test_prover_rule_names_interval_and_range(self):
        relpath = "src/repro/kernels/viterbi_warp.py"
        tree = ast.parse(self._BUGGY)
        rule = IntervalProverRule()
        findings = rule.check(tree, self._BUGGY.splitlines(), relpath)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "R003"
        assert f.symbol.startswith("prove:unguarded:arith:")
        assert "[52767, 52767]" in f.message
        assert "[-32768, 32767]" in f.message
        assert "sat_" in f.message  # points at the guardrail helpers

    def test_guarded_version_is_proven(self):
        guarded = self._BUGGY.replace(
            "return a + b",
            "from repro.kernels.saturating import sat_add_i16\n"
            "    return sat_add_i16(a, b)",
        )
        proof = analyze_source("src/repro/kernels/viterbi_warp.py", guarded)
        assert proof.unproven == []


class TestOutViewStores:
    """``out=`` into a view of a narrow or system-tagged array is a store
    into that array, checked like ``root[...] = value``."""

    _TEMPLATE = textwrap.dedent(
        """
        import numpy as np
        from repro.scoring.quantized import clip_i16

        def step(n):
            state = np.full((2, n), -32768, dtype=np.int32)
            row = state[0, 1:]
            big = np.full(n - 1, 30000, dtype=np.int32)
            {write}
            return state
        """
    )

    def _sites(self, write):
        src = self._TEMPLATE.format(write=write)
        proof = analyze_source("src/repro/kernels/viterbi_warp.py", src)
        return [s for fn in proof.functions for s in fn.sites]

    def test_escaping_out_write_is_unproven(self):
        (site,) = self._sites("np.add(big, big, out=row)")
        assert (site.kind, site.status) == ("store", "unproven")
        assert (site.lo, site.hi) == (60000, 60000)

    def test_clipped_out_write_is_proven(self):
        sites = self._sites("clip_i16(big + big, out=row)")
        assert [(s.kind, s.status) for s in sites] == [
            ("helper", "by_helper"), ("store", "proven"),
        ]

    def test_out_write_to_own_array_carries_no_store(self):
        sites = self._sites("np.add(big, big, out=big)")
        assert sites == []

    @pytest.mark.parametrize(
        "write",
        [
            "np.add(big, big, out=state[0])",
            "top = state[0]\n    np.add(big, big, out=top)",
        ],
    )
    def test_out_write_through_constant_index_is_a_store(self, write):
        (site,) = self._sites(write)
        assert (site.kind, site.status) == ("store", "unproven")
        assert (site.lo, site.hi) == (60000, 60000)

    def test_masked_out_write_keeps_the_old_words(self):
        """Under ``where=`` the unselected words of the view keep their
        value: the stored interval joins the old contents."""
        (site,) = self._sites("np.add(big, big, out=row, where=big > 0)")
        assert (site.kind, site.status) == ("store", "unproven")
        assert (site.lo, site.hi) == (-32768, 60000)


class TestNarrowUfuncArith:
    """``np.add`` / ``np.subtract`` on a native u8/i16 array wrap like
    ``a + b``: the same arith obligation, also when written ``out=``."""

    _TEMPLATE = textwrap.dedent(
        """
        import numpy as np

        def step(n):
            a = np.full(n, 200, dtype=np.uint8)
            {body}
        """
    )

    def _sites(self, body):
        src = self._TEMPLATE.format(body=body)
        proof = analyze_source("src/repro/kernels/msv_warp.py", src)
        return [(s.kind, s.status, s.lo, s.hi) for fn in proof.functions
                for s in fn.sites]

    def test_wrapping_add_is_unproven(self):
        assert self._sites(
            "s = np.add(a, a)\n    return np.minimum(s, 255)"
        ) == [("arith", "unproven", 400, 400)]

    def test_in_place_add_into_narrow_array_is_checked(self):
        assert self._sites("np.add(a, 100, out=a)\n    return a") == [
            ("arith", "unproven", 300, 300),
            ("store", "proven", 0, 255),
        ]

    def test_in_range_subtract_is_proven(self):
        assert self._sites("return np.subtract(a, 50)") == [
            ("arith", "proven", 150, 150),
        ]

    def test_batched_entry_floor_is_what_proves_the_entry(self):
        """The batched P7Viterbi entry is stored unclipped: the i16 floor
        folded into xB is what keeps it in range, and the prover sees it."""
        relpath = "src/repro/kernels/batched.py"
        src = _real_source(relpath)
        floored = "floor_tbm = max(profile.base + nj_tbm, VF_WORD_MIN)"
        assert floored in src
        proof = analyze_source(
            relpath, src.replace(floored, "floor_tbm = profile.base + nj_tbm")
        )
        assert [(s.kind, s.detail) for s in proof.unproven] == [
            ("store", "out=mv"),
        ]


class TestWrapRepair:
    """The msv kernel's biased-u8 wrap-and-repair idiom must be
    recognized; a broken repair must not be."""

    _TEMPLATE = textwrap.dedent(
        """
        import numpy as np
        from repro.scoring.msv_profile import MSVByteProfile

        def step(prof: MSVByteProfile, n):
            sv = np.zeros(n, dtype=np.uint8)
            rb = prof.rbv[0]
            bias = prof.bias
            sat_floor = 255 - bias
            sat = sv >= sat_floor
            sv += bias
            sv[sat] = {repair_value}
            under = rb > sv
            sv -= rb
            sv[under] = 0
            return sv
        """
    )

    def test_correct_repair_certified(self):
        src = self._TEMPLATE.format(repair_value="255")
        proof = analyze_source("src/repro/kernels/msv_warp.py", src)
        assert proof.unproven == []
        statuses = {s.status for fn in proof.functions for s in fn.sites}
        assert "by_repair" in statuses

    def test_broken_repair_value_flagged(self):
        # repairing to 300 leaves the array out of u8 range
        src = self._TEMPLATE.format(repair_value="300")
        proof = analyze_source("src/repro/kernels/msv_warp.py", src)
        assert proof.unproven != []


class TestEncodeClipDischarge:
    """Satellite: the two quantizer encode clips are certified by the
    prover, so R003's np.clip heuristic no longer needs a baseline."""

    @pytest.mark.parametrize(
        "relpath",
        ["src/repro/scoring/msv_profile.py", "src/repro/scoring/vit_profile.py"],
    )
    def test_encode_clip_certified(self, relpath):
        src = _real_source(relpath)
        lines = certified_clip_lines(ast.parse(src), relpath)
        assert lines  # at least the encode clip itself
        findings, _, err = lint_file(relpath, src)
        assert err is None
        assert not [f for f in findings if "np.clip" in f.symbol]

    def test_kernel_clips_not_exempt(self):
        """Only the encode modules get the certified-clip discharge; a
        bare np.clip in a kernel module still trips R003."""
        src = textwrap.dedent(
            """
            import numpy as np

            def lossy(x):
                return np.clip(x, 0, 255).astype(np.uint8)
            """
        )
        findings, _, _ = lint_file("src/repro/kernels/fake.py", src)
        assert [f for f in findings if f.rule == "R003" and "np.clip" in f.symbol]

    def test_stale_r003_baseline_entry_warns(self, tmp_path, capsys):
        """Regression: a baseline still carrying the discharged np.clip
        keys is reported stale but does not fail the run."""
        stale = {
            "version": 1,
            "entries": [
                {
                    "key": "R003::src/repro/scoring/msv_profile.py::np.clip",
                    "justification": "discharged by repro-prove",
                }
            ],
        }
        bl = tmp_path / "stale_baseline.json"
        bl.write_text(json.dumps(stale))
        rc = lint_main(
            [
                "src/repro/scoring",
                "--root",
                REPO_ROOT,
                "--baseline",
                str(bl),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "stale baseline entry" in out
        assert "R003::src/repro/scoring/msv_profile.py::np.clip" in out

    def test_shipped_baseline_has_no_r003_entries(self):
        with open(
            os.path.join(REPO_ROOT, "src/repro/analysis/baseline.json"),
            encoding="utf-8",
        ) as fh:
            doc = json.load(fh)
        keys = [e["key"] for e in doc["entries"]]
        assert len(keys) == 2
        assert all(k.startswith("R005::") for k in keys)


class TestProveCli:
    def test_prove_exits_clean_on_repo(self, capsys):
        rc = lint_main(["src", "--root", REPO_ROOT, "--prove"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro-prove: PROVEN" in out
        assert "0 unproven" in out

    def test_prove_json_carries_certificates(self, tmp_path):
        out_file = tmp_path / "report.json"
        rc = lint_main(
            [
                "src",
                "--root",
                REPO_ROOT,
                "--prove",
                "--format",
                "json",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True
        certs = doc["certificates"]
        assert certs["tool"] == "repro-prove"
        assert certs["proven"] is True
        assert {t["path"] for t in certs["targets"]} == set(PROVE_TARGETS)

    def test_without_prove_no_certificates(self, tmp_path):
        out_file = tmp_path / "report.json"
        rc = lint_main(
            [
                "src/repro/analysis",
                "--root",
                REPO_ROOT,
                "--format",
                "json",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert "certificates" not in doc

    def test_list_rules_mentions_prover_and_lock_rules(self, capsys):
        rc = lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "R003 (--prove)" in out
        assert "R006" in out
        assert "R007" in out
