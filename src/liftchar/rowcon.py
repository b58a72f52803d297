"""Row contractions, their defect data, and words."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import DimMismatch
from .numlin import DefectData, frozen, memo

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# words (letters are 1..d; stored little-endian as written, first letter first;
# reversal is always an explicit operation)

def word_to_str(w: Word, d: int) -> str:
    if d > 9:
        raise DimMismatch("word serialization as digit strings requires d <= 9")
    return "".join(str(c) for c in w)


# ---------------------------------------------------------------------------
# row contractions and defects

@dataclass(frozen=True)
class RowContraction:
    """A d-tuple of square matrices S_i on the same space with sum S_i S_i* <= I.

    The matrices are stored as read-only copies, so quantities derived from
    them (defects, characteristic functions) are computed once and kept on
    the instance.
    """

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(frozen(s) for s in self.ops)
        if not ops:
            raise DimMismatch("need at least one operator")
        n = ops[0].shape[0]
        for s in ops:
            if s.shape != (n, n):
                raise DimMismatch("all tuple entries must be square of equal size")
        object.__setattr__(self, "ops", ops)
        numlin.require_contraction(self.row)

    @property
    def d(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    @property
    def row(self) -> np.ndarray:
        """The row matrix [S_1 ... S_d] mapping H^d -> H."""
        return np.hstack(self.ops)


def defect(s: RowContraction) -> DefectData:
    """Column defect: PSD root of I - [S_i* S_j] on H^d, and its range.

    Root and range come from one clamped eigendecomposition of the Gram
    matrix, so rank decisions are made where roundoff sits at eps rather
    than sqrt(eps).  Computed once per row contraction.
    """
    return memo(s, "defect", lambda: DefectData.of(s.row))


def star_defect(s: RowContraction) -> DefectData:
    """Star defect: PSD root of I - sum S_i S_i* on H, and its range, computed
    once per row contraction."""
    return memo(s, "star_defect", lambda: DefectData.of(s.row.conj().T))
