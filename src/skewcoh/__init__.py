"""Exact computation of the degree -1 graded deformation space of S(V) x| G
for finite cyclic G, by closed-form summands and by a brute-force cochain
complex, plus the worked 2-dimensional deformation checks.  The rewriting
layer behind those checks, `skewcoh.deformation`, is loaded on first use:
by `skewcoh deform`, or here on the first read of one of its names, so
`import skewcoh` does not pay for it."""

from .fields import CharacteristicTwoError, Field, NotInvertibleError, Scalar
from .linalg import (
    Matrix,
    Subspace,
    char_poly,
    eigenspace,
    image_basis,
    kernel_basis,
    minus_scalar,
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
    GroupRows,
    NotACocycleError,
    coboundary_matrix,
    cochain_dim,
    cocycle_conditions,
    distinguished_constraints,
    group_rows,
    oracle_report,
    per_element_cohomology,
    reduce_to_representative,
    representative_basis,
)

# The rewriting layer's names, read through `__getattr__` (PEP 562), which
# imports `skewcoh.deformation` on the first read of one of them.
_REWRITING = frozenset("""ConfluenceReport DeformationParams PrerequisiteFailed
    RewriteSystem UnsupportedKappaShape builtin_transvection_gamma confluence_check
    hilbert_check orbifold_algebra square_bracket_transvection transvection_group""".split())


def __getattr__(name: str):
    if name in _REWRITING:
        from . import deformation
        return getattr(deformation, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__version__ = "0.1.0"
