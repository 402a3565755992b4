"""The nonmodular vanishing statements of the paper, checked on the
oracle's hh_dim (ranks of the cochain complex) rather than on the formula's
summands, so that they test the paper and not the code:

* coprime order: every codimension-1 element has hh_dim 0;
* coprime order and split characteristic polynomial: every element of
  codimension 1 or 2 with det != 1 has hh_dim 0.

Codim and det come from `reference_element` (tests/conftest.py), not from
the per-subgroup data of `CyclicGroup.element`.  The groups are random
generators of order prime to p over F_5 and F_7, conjugated diagonal
(split) generators over F_5 and F_7, and signed permutations over Q.
"""

import math

from hypothesis import assume, given, settings

from skewcoh import (
    Field,
    OrderExceedsBoundError,
    char_poly,
    group_from_generator,
    oracle_report,
    poly_splits,
)

from conftest import reference_element
from test_subgroup_data import conjugated_diagonals
from test_trusted_builders import SETTINGS, prime_generators, signed_permutations

MAX_ORDER = 60
VANISHING = settings(SETTINGS, max_examples=40)


def vanishing_checks(field, rows):
    """Assert both statements on the group; return how many elements they
    constrained, or None when the order is not prime to the characteristic."""
    try:
        gr = group_from_generator(field, rows, order_bound=MAX_ORDER)
    except OrderExceedsBoundError:
        return None
    if field.char and math.gcd(gr.order, field.char) != 1:
        return None
    split = poly_splits(field, char_poly(gr.generator))
    checked = 0
    for i, dims in enumerate(oracle_report(gr)):
        ref = reference_element(gr, i)
        if ref["codim"] == 1 or (split and ref["codim"] == 2 and ref["det"] != field.one()):
            checked += 1
            assert dims.hh_dim == 0, (rows, i, ref["codim"], split)
    return checked


def test_statements_constrain_known_groups():
    f5 = Field.prime(5)
    assert vanishing_checks(f5, [[1, 0], [0, -1]]) == 1            # one reflection
    # g^1, g^3 have codim 2 and det 4; det g^2 = 1
    assert vanishing_checks(f5, [[2, 0, 0], [0, 2, 0], [0, 0, 1]]) == 2
    # (-1) + a 3-cycle: only g^3 is a reflection, and x^3 - 1 does not split over Q
    assert vanishing_checks(Field.rational(), [[-1, 0, 0, 0], [0, 0, 0, 1],
                                               [0, 1, 0, 0], [0, 0, 1, 0]]) == 1
    assert vanishing_checks(Field.prime(3), [[1, 1], [0, 1]]) is None      # modular


@VANISHING
@given(prime_generators(max_n=3))
def test_random_coprime_groups(gen):
    field, rows = gen
    assume(field.p in (5, 7))
    assume(vanishing_checks(field, rows) is not None)


@VANISHING
@given(conjugated_diagonals(primes=(5, 7)))
def test_split_coprime_groups(gen):
    assume(vanishing_checks(*gen) is not None)


@VANISHING
@given(signed_permutations())
def test_signed_permutations(gen):
    assert vanishing_checks(*gen) is not None
