"""Row contractions, their defect data, and words."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numlin
from .errors import DimMismatch
from .numlin import DefectData, as_complex, frozen, memo, readonly

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

    Built from any d square matrices of one size, checked before they are
    stacked, it keeps them as one read-only (d, n, n) copy `ops` and its row
    once; quantities derived from them (defects, characteristic functions)
    are computed once and kept on the instance.
    """

    ops: np.ndarray

    def __post_init__(self):
        mats = [as_complex(s) for s in self.ops]
        if not mats:
            raise DimMismatch("need at least one operator")
        n = mats[0].shape[0]
        if any(s.shape != (n, n) for s in mats):
            raise DimMismatch("all tuple entries must be square of equal size")
        object.__setattr__(self, "ops", frozen(mats))
        numlin.require_contraction(self.row)

    @property
    def d(self) -> int:
        return self.ops.shape[0]

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @cached_property
    def row(self) -> np.ndarray:
        """The row matrix [S_1 ... S_d] mapping H^d -> H."""
        return readonly(_block_row(self.ops))


def _block_row(blocks: np.ndarray) -> np.ndarray:
    """The row [T_1 ... T_d] of a (d, m, n) stack of blocks."""
    d, m, n = blocks.shape
    return blocks.swapaxes(0, 1).reshape(m, d * n)


def _row_blocks(row: np.ndarray, d: int) -> np.ndarray:
    """The (d, m, n) blocks of a row [T_1 ... T_d]; a view of a contiguous row."""
    m = row.shape[0]
    return row.reshape(m, d, row.shape[1] // d).swapaxes(0, 1)


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
