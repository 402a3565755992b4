"""Property test: the formula route and the oracle route agree on random
groups, and the distinguished representatives behave.

On random invertible generators over F_3, F_5 and F_7 with n <= 3 and
order <= 30, and on signed permutation matrices over Q, every element h
must satisfy: the closed-form summand equals dim Z - dim B from the
cochain complex; the distinguished cut of Z (pi_h o alpha = 0 plus the
codimension cuts) has exactly hh_dim elements in its basis; and reducing
a random cocycle to its representative twice gives the representative
again.  On groups of order <= 12 the complex assembled without the
per-element split (conftest.assembled_complex) must also satisfy d^2 = 0,
and its nullity and coboundary rank must be the sums of the per-element z
and b; its matrices grow with |G| * dim, so larger orders would dominate
the run.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcoh import (
    CochainTwo,
    OrderExceedsBoundError,
    cochain_dim,
    cocycle_conditions,
    full_report,
    group_from_generator,
    kernel_basis,
    oracle_report,
    rank,
    reduce_to_representative,
    representative_basis,
)

from conftest import assembled_complex
from test_trusted_builders import SETTINGS, prime_generators, signed_permutations

MAX_ORDER = 30
ASSEMBLED_MAX_ORDER = 12
ROUTES = settings(SETTINGS, max_examples=60)


def random_cocycle(gr, i, rng):
    f = gr.field
    flat = [f.zero()] * cochain_dim(gr.n)
    for row in kernel_basis(cocycle_conditions(gr, i)).basis_rows():
        c = f.coerce(rng.randint(-3, 3))
        flat = [f.add(x, f.mul(c, y)) for x, y in zip(flat, row)]
    return CochainTwo.from_flat(f, gr.n, i, flat)


def check_routes(field, rows, seed):
    try:
        gr = group_from_generator(field, rows, order_bound=MAX_ORDER)
    except OrderExceedsBoundError:
        assume(False)
    rng = random.Random(seed)
    formula = full_report(gr).per_element
    report = oracle_report(gr)
    for i, complex_ in enumerate(report):
        assert formula[i].total == complex_.hh_dim, (rows, i)
        assert len(representative_basis(gr, i)) == complex_.hh_dim
        rep, _ = reduce_to_representative(gr, random_cocycle(gr, i, rng))
        assert reduce_to_representative(gr, rep)[0] == rep
    if gr.order <= ASSEMBLED_MAX_ORDER:
        cond, cob = assembled_complex(gr)
        assert (cond @ cob).is_zero(), rows
        assert kernel_basis(cond).dim == sum(c.z_dim for c in report), rows
        assert rank(cob) == sum(c.b_dim for c in report), rows


@ROUTES
@given(prime_generators(max_n=3), st.integers(0, 2 ** 16))
def test_formula_equals_oracle_over_prime_fields(gen, seed):
    check_routes(*gen, seed)


@SETTINGS
@given(signed_permutations(), st.integers(0, 2 ** 16))
def test_formula_equals_oracle_on_signed_permutations(gen, seed):
    check_routes(*gen, seed)
