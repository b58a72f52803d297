"""Finite-dimensional characteristic functions of contractive liftings of
row contractions, and verifiers for their factorization identities."""

__version__ = "0.1.0"

from .charfact import (
    CharFn,
    FactorizationReport,
    MinimalPart,
    lifting_char_fn,
    minimal_part,
    resolvent_identity_residual,
    row_char_fn,
    synthesize_lifting,
    verify_factorization,
    verify_minimal_product,
)
from .lifting import (
    IteratedLifting,
    JuliaHalmos,
    Lifting,
    defect_unitary,
    extract_gamma,
    is_minimal_lifting,
    iterate_liftings,
    julia_halmos,
    lifting_from_blocks,
    make_lifting,
    star_defect_unitary,
)
from .ncfock import (
    FockBasis,
    MultiAnalyticOp,
    TransferOp,
    coeff_diff,
    fock_basis,
    product,
    realize,
)
from .numlin import (
    DefectData,
    Subspace,
    SubOperator,
    operator_norm,
    pinv,
    unitarity_residual,
)
from .rowcon import (
    RowContraction,
    defect,
    star_defect,
)

__all__ = [
    "CharFn",
    "DefectData",
    "FactorizationReport",
    "FockBasis",
    "IteratedLifting",
    "JuliaHalmos",
    "Lifting",
    "MinimalPart",
    "MultiAnalyticOp",
    "RowContraction",
    "SubOperator",
    "Subspace",
    "TransferOp",
    "coeff_diff",
    "defect",
    "defect_unitary",
    "extract_gamma",
    "fock_basis",
    "is_minimal_lifting",
    "iterate_liftings",
    "julia_halmos",
    "lifting_char_fn",
    "lifting_from_blocks",
    "make_lifting",
    "minimal_part",
    "operator_norm",
    "pinv",
    "product",
    "realize",
    "resolvent_identity_residual",
    "row_char_fn",
    "star_defect",
    "star_defect_unitary",
    "synthesize_lifting",
    "unitarity_residual",
    "verify_factorization",
    "verify_minimal_product",
]
