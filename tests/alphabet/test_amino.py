"""Unit tests for the digital amino-acid alphabet."""

import numpy as np
import pytest

from repro.alphabet import AMINO, AminoAlphabet
from repro.errors import AlphabetError


class TestAlphabetStructure:
    def test_sizes(self):
        assert AMINO.K == 20
        assert AMINO.Kp == 29

    def test_symbol_layout_matches_paper_figure6(self):
        # 20 standard, 6 degenerate, 3 gaps - in that order
        assert AMINO.symbols[:20] == "ACDEFGHIKLMNPQRSTVWY"
        assert AMINO.symbols[20:26] == "BJZOUX"
        assert AMINO.symbols[26:] == "-*~"

    def test_all_codes_fit_in_five_bits(self):
        assert AMINO.Kp - 1 <= 30  # 31 is reserved for the pack terminator

    def test_instances_are_equivalent(self):
        fresh = AminoAlphabet()
        assert fresh.symbols == AMINO.symbols


class TestClassification:
    @pytest.mark.parametrize("code", range(20))
    def test_canonical(self, code):
        assert AMINO.is_canonical(code)
        assert AMINO.is_residue(code)
        assert not AMINO.is_degenerate(code)
        assert not AMINO.is_special(code)

    @pytest.mark.parametrize("code", range(20, 26))
    def test_degenerate(self, code):
        assert AMINO.is_degenerate(code)
        assert AMINO.is_residue(code)
        assert not AMINO.is_canonical(code)

    @pytest.mark.parametrize("code", range(26, 29))
    def test_special(self, code):
        assert AMINO.is_special(code)
        assert not AMINO.is_residue(code)

    def test_out_of_range(self):
        assert not AMINO.is_canonical(-1)
        assert not AMINO.is_residue(29)


class TestConversions:
    def test_code_roundtrip(self):
        for i, sym in enumerate(AMINO.symbols):
            assert AMINO.code(sym) == i
            assert AMINO.symbol(i) == sym

    def test_code_is_case_insensitive(self):
        assert AMINO.code("a") == AMINO.code("A")
        assert AMINO.code("x") == AMINO.code("X")

    def test_encode_decode_roundtrip(self):
        text = "ACDEFGHIKLMNPQRSTVWYBJZOUX"
        codes = AMINO.encode(text)
        assert codes.dtype == np.uint8
        assert AMINO.decode(codes) == text

    def test_encode_lowercase(self):
        assert np.array_equal(AMINO.encode("acd"), AMINO.encode("ACD"))

    def test_encode_rejects_unknown(self):
        with pytest.raises(AlphabetError):
            AMINO.encode("AC1")

    def test_encode_reports_first_unknown_symbol(self):
        with pytest.raises(AlphabetError, match="unknown amino symbol '1'"):
            AMINO.encode("ac1?")
        with pytest.raises(AlphabetError, match="unknown amino symbol '\\?'"):
            AMINO.encode("ac?1")

    def test_encode_table_matches_symbol_dict_for_every_byte(self):
        """The byte lookup table agrees with the symbol dict on all 256
        byte values, and ``encode`` follows it: the code, or the error
        naming the character."""
        table = AMINO._byte_to_code
        for b in range(256):
            code = AMINO._sym_to_code.get(chr(b).upper())
            assert table[b] == (255 if code is None else code), b
            text = "A" + chr(b) + "C"
            if code is None:
                with pytest.raises(AlphabetError) as got:
                    AMINO.encode(text)
                assert str(got.value) == (
                    f"unknown amino symbol {chr(b).upper()!r}"
                ), b
                continue
            got = AMINO.encode(text)
            assert got.dtype == np.uint8
            assert got.tolist() == [0, code, 1], chr(b)

    def test_encode_non_ascii_text(self):
        with pytest.raises(AlphabetError, match="unknown amino symbol 'É'"):
            AMINO.encode("acé")
        # characters whose uppercase is ASCII letters are not symbols
        for text in ("AßC", "AıC", "AſC"):
            with pytest.raises(AlphabetError):
                AMINO.encode(text)
        assert AMINO.encode("").size == 0

    def test_code_rejects_unknown(self):
        with pytest.raises(AlphabetError):
            AMINO.code("@")

    def test_symbol_rejects_out_of_range(self):
        with pytest.raises(AlphabetError):
            AMINO.symbol(29)
        with pytest.raises(AlphabetError):
            AMINO.symbol(-1)


class TestDegeneracy:
    def test_canonical_expands_to_itself(self):
        for c in range(20):
            assert list(AMINO.expand(c)) == [c]

    def test_b_is_asp_or_asn(self):
        expanded = {AMINO.symbol(int(c)) for c in AMINO.expand(AMINO.code("B"))}
        assert expanded == {"D", "N"}

    def test_j_is_ile_or_leu(self):
        expanded = {AMINO.symbol(int(c)) for c in AMINO.expand(AMINO.code("J"))}
        assert expanded == {"I", "L"}

    def test_z_is_glu_or_gln(self):
        expanded = {AMINO.symbol(int(c)) for c in AMINO.expand(AMINO.code("Z"))}
        assert expanded == {"E", "Q"}

    def test_x_expands_to_all_canonicals(self):
        assert AMINO.expand(AMINO.code("X")).size == 20

    def test_expand_rejects_specials(self):
        with pytest.raises(AlphabetError):
            AMINO.expand(AMINO.code("-"))

    def test_degeneracy_matrix_shape_and_content(self):
        m = AMINO.degeneracy_matrix()
        assert m.shape == (29, 20)
        assert m[:20].sum() == 20  # identity block
        assert not m[26:].any()    # specials map to nothing

    def test_degeneracy_matrix_is_a_copy(self):
        m = AMINO.degeneracy_matrix()
        m[:] = False
        assert AMINO.degeneracy_matrix().any()


class TestValidateSequence:
    def test_accepts_residues(self):
        AMINO.validate_sequence(np.arange(26, dtype=np.uint8))

    def test_rejects_gaps(self):
        with pytest.raises(AlphabetError):
            AMINO.validate_sequence(np.array([0, 26], dtype=np.uint8))

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(AlphabetError):
            AMINO.validate_sequence(np.array([0, 31], dtype=np.uint8))

    def test_empty_ok(self):
        AMINO.validate_sequence(np.array([], dtype=np.uint8))
