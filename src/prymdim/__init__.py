"""Exact dimensions of generalized Prym varieties of tame Galois covers.

For a branched Galois cover X -> Y whose group has rational characters,
the package computes the dimension of every isotypic piece of
H^0(X, omega_X) - equivalently of each generalized Prym variety - by
three independent routes: a closed form, an exact linear solve over all
intermediate quotient genera, and a combinatorial monodromy oracle.
"""

from .chartable import (
    CharacterTable,
    character_table,
    fixed_dim_matrix,
)
from .errors import (
    CapExceeded,
    DegreeMismatch,
    LiftFailure,
    NegativeGenus,
    NonIntegerDimension,
    NonIntegerFixedDim,
    NonIntegerSolution,
    NotASubgroup,
    NotRationalGroup,
    NotSquare,
    OddRamificationDegree,
    OutOfRegime,
    ParseError,
    PrymdimError,
    SamplingExhausted,
    Singular,
    UnsupportedType,
)
from .exactla import Inverse, determinant, inverse, solve
from .monodromy import (
    BranchTuple,
    oracle_genus,
    sample_tuple,
    spec_from_tuple,
    verify_tuple,
)
from .permgroup import (
    DEFAULT_CAP,
    ConjugacyClass,
    CosetAction,
    CyclicClass,
    PermGroup,
    Permutation,
    group_from_generators,
    parse_generators,
    parse_permutation,
)
from .rhprym import (
    CoverSpec,
    DimensionReport,
    RamificationSpec,
    genus_quotient,
    genus_total,
    isotypic_dims_solve,
    prym_dim_formula,
    sample_cover_specs,
    validate,
)
from .weyl import (
    WeylGroup,
    expected_base_dim,
    hitchin_preset,
    markman_preset,
    parse_weyl_label,
    toda_preset,
    weyl_group,
)

__version__ = "0.1.0"
