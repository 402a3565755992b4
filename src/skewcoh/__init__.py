"""Exact computation of the degree -1 graded deformation space of S(V) x| G
for finite cyclic G, by closed-form summands and by a brute-force cochain
complex, plus the worked 2-dimensional deformation checks."""

from .fields import CharacteristicTwoError, Field, NotInvertibleError, Scalar
from .linalg import (
    Matrix,
    Subspace,
    char_poly,
    eigenspace,
    image_basis,
    kernel_basis,
    poly_splits,
    rank,
    rref,
    solve,
)
from .group_action import (
    CyclicGroup,
    ElementData,
    NotGStableError,
    OrderExceedsBoundError,
    chi_invariants,
    group_from_generator,
    kron,
    wedge2_matrix,
    wedge_pairs,
)
from .formula import (
    CohomologyReport,
    NonmodularReport,
    SummandReport,
    WrongCaseError,
    codim1_contribution,
    codim2_contribution,
    full_report,
    identity_contribution,
    nonmodular_crosscheck,
)
from .oracle import (
    CochainOne,
    CochainTwo,
    ComplexDims,
    DimensionMismatchError,
    NotACocycleError,
    PerElementComplex,
    coboundary_matrix,
    cochain_dim,
    cocycle_conditions,
    distinguished_constraints,
    oracle_report,
    per_element_cohomology,
    reduce_to_representative,
    representative_basis,
)
from .deformation import (
    AlgebraElement,
    ConfluenceReport,
    DeformationParams,
    HilbertReport,
    PrerequisiteFailed,
    RewriteSystem,
    UnsupportedKappaShape,
    builtin_transvection_gamma,
    confluence_check,
    hilbert_check,
    orbifold_algebra,
    square_bracket_transvection,
    transvection_group,
)

__version__ = "0.1.0"
