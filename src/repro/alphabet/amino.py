"""The digitized amino-acid alphabet used throughout the library.

The paper (Figure 6) encodes each residue in 5 bits: 20 standard amino
acids, 6 degenerate symbols (``B J Z O U X``) and 3 gap/special symbols
(``- * ~``), i.e. digital codes 0..28, with code 31 reserved as the packed
terminator flag.  This module owns the symbol table, digitization, and
degeneracy semantics; :mod:`repro.alphabet.packing` owns the bit packing.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import AlphabetError

__all__ = ["AminoAlphabet", "AMINO"]

_CANONICAL = "ACDEFGHIKLMNPQRSTVWY"
_DEGENERATE = "BJZOUX"
_SPECIAL = "-*~"
_NO_CODE = 255

# Which canonical residues a degenerate symbol may stand for.  ``X`` means
# fully unknown; ``O`` (pyrrolysine) and ``U`` (selenocysteine) map onto
# their closest canonical residue as in Easel.
_DEGENERACY: dict[str, str] = {
    "B": "DN",
    "J": "IL",
    "Z": "EQ",
    "O": "K",
    "U": "C",
    "X": _CANONICAL,
}


class AminoAlphabet:
    """Digital protein alphabet with degeneracy support.

    Instances are stateless and cheap; the module-level singleton
    :data:`AMINO` should be used in almost all cases.

    Attributes
    ----------
    K:
        Number of canonical residues (20).
    Kp:
        Total number of digital codes including degeneracies and specials
        (29).
    """

    def __init__(self) -> None:
        self.symbols: str = _CANONICAL + _DEGENERATE + _SPECIAL
        self.K: int = len(_CANONICAL)
        self.Kp: int = len(self.symbols)
        self._sym_to_code: dict[str, int] = {
            s: i for i, s in enumerate(self.symbols)
        }
        # byte -> code lookup for ASCII text; _NO_CODE marks bytes that
        # are not a symbol in either case (every non-ASCII byte)
        table = np.full(256, _NO_CODE, dtype=np.uint8)
        for s, i in self._sym_to_code.items():
            table[ord(s)] = table[ord(s.lower())] = i
        self._byte_to_code = table
        # Degeneracy expansion matrix: row d (over all Kp codes) has True in
        # column c when digital code d may represent canonical code c.
        matrix = np.zeros((self.Kp, self.K), dtype=bool)
        for i in range(self.K):
            matrix[i, i] = True
        for sym, expansion in _DEGENERACY.items():
            d = self._sym_to_code[sym]
            for c in expansion:
                matrix[d, self._sym_to_code[c]] = True
        self._degeneracy = matrix

    # -- basic classification ------------------------------------------------

    def is_canonical(self, code: int) -> bool:
        """True when ``code`` denotes one of the 20 standard amino acids."""
        return 0 <= code < self.K

    def is_degenerate(self, code: int) -> bool:
        """True when ``code`` is one of the 6 degenerate residue codes."""
        return self.K <= code < self.K + len(_DEGENERATE)

    def is_residue(self, code: int) -> bool:
        """True when ``code`` denotes a residue (canonical or degenerate)."""
        return 0 <= code < self.K + len(_DEGENERATE)

    def is_special(self, code: int) -> bool:
        """True when ``code`` is a gap/terminator symbol (``- * ~``)."""
        return self.K + len(_DEGENERATE) <= code < self.Kp

    # -- conversions ---------------------------------------------------------

    def code(self, symbol: str) -> int:
        """Digital code of a single symbol (case-insensitive)."""
        try:
            return self._sym_to_code[symbol.upper()]
        except KeyError:
            raise AlphabetError(f"unknown amino symbol {symbol!r}") from None

    def symbol(self, code: int) -> str:
        """Text symbol for a digital code."""
        if not 0 <= code < self.Kp:
            raise AlphabetError(f"digital code {code} out of range 0..{self.Kp - 1}")
        return self.symbols[code]

    def encode(self, text: str) -> np.ndarray:
        """Digitize a string into a ``uint8`` code array.

        Raises
        ------
        AlphabetError
            If any character is not part of the alphabet.
        """
        # one byte per character: each non-ASCII one becomes '?', which
        # has no code, so positions in ``raw`` are positions in ``text``
        raw = text.encode("ascii", "replace")
        codes = self._byte_to_code[np.frombuffer(raw, dtype=np.uint8)]
        bad = codes == _NO_CODE
        if bad.any():
            first = text[int(np.argmax(bad))].upper()
            raise AlphabetError(f"unknown amino symbol {first!r}")
        return codes

    def decode(self, codes: Iterable[int]) -> str:
        """Render a digital code sequence back into text."""
        return "".join(self.symbol(int(c)) for c in codes)

    # -- degeneracy ----------------------------------------------------------

    def expand(self, code: int) -> np.ndarray:
        """Canonical codes that a (possibly degenerate) residue may be."""
        if not self.is_residue(code):
            raise AlphabetError(f"code {code} is not a residue")
        return np.flatnonzero(self._degeneracy[code])

    def degeneracy_matrix(self) -> np.ndarray:
        """Boolean ``(Kp, K)`` matrix mapping every code to canonicals.

        Special codes have all-False rows; callers scoring a special code
        must treat it as an error or an impossible emission.
        """
        return self._degeneracy.copy()

    def validate_sequence(self, codes: np.ndarray) -> None:
        """Check that every code in ``codes`` is a residue (not a special).

        Search sequences must not contain gap symbols; the packer reserves
        code 31 for its terminator flag and the scoring profiles only define
        emissions for residue codes.
        """
        arr = np.asarray(codes)
        if arr.size and (arr.min() < 0 or arr.max() >= self.K + len(_DEGENERATE)):
            bad = arr[(arr < 0) | (arr >= self.K + len(_DEGENERATE))][0]
            raise AlphabetError(
                f"sequence contains non-residue digital code {int(bad)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AminoAlphabet(K={self.K}, Kp={self.Kp})"


#: Module-level singleton; the alphabet is immutable so sharing is safe.
AMINO = AminoAlphabet()
