"""The nonmodular cross-check's split condition against the characteristic
polynomial.

`nonmodular_crosscheck` reads "the characteristic polynomial of g splits
over F" off |G| and p alone: for |G| prime to p it splits iff |G| divides
p - 1 over F_p, and iff |G| divides 2 over Q (the proof is in the `formula`
module docstring).  This test reads the same condition the long way, as
Berkowitz's `char_poly` followed by `poly_splits`, and checks that
`cor_applicable` equals `prop_applicable and poly_splits(char_poly(g))`.

The groups are random generators over F_3, F_5, F_7, F_11 and F_13 with
n = 1..4 (`prime_generators`, modular draws included: there
`prop_applicable` is false, so `cor_applicable` must be too), and over Q
direct sums of +-1 blocks and companion matrices of Phi_3, Phi_4 and
Phi_6, n <= 4, conjugated by a unimodular U (conftest's
`elementary_conjugate`), so the generator is not monomial.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcoh import (
    Field,
    OrderExceedsBoundError,
    char_poly,
    full_report,
    group_from_generator,
    nonmodular_crosscheck,
    poly_splits,
)

from conftest import elementary_conjugate
from test_reduction_mod_q import COMPANION, SCALAR, direct_sum
from test_trusted_builders import SETTINGS, prime_generators

ORDER_BOUND = 60
SPLIT = settings(SETTINGS, max_examples=150)
BLOCKS = {**COMPANION, **SCALAR}


def split_reading(field, rows):
    """Check the cross-check's split reading against char_poly and
    poly_splits; return (prop_applicable, cor_applicable), or None when the
    order exceeds ORDER_BOUND."""
    try:
        gr = group_from_generator(field, rows, order_bound=ORDER_BOUND)
    except OrderExceedsBoundError:
        return None
    rep = nonmodular_crosscheck(gr, full_report(gr))
    splits = poly_splits(field, char_poly(gr.generator))
    assert rep.cor_applicable == (rep.prop_applicable and splits), (field, rows, gr.order)
    return rep.prop_applicable, rep.cor_applicable


@st.composite
def conjugated_cyclotomic_sums(draw, max_n=4):
    """A direct sum of +-1 blocks and Phi_3, Phi_4, Phi_6 companion blocks
    of size at most max_n, conjugated by elementary steps with integer
    coefficients."""
    blocks = []
    n = 0
    for name in draw(st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=max_n)):
        if n + len(BLOCKS[name]) <= max_n:
            blocks.append(BLOCKS[name])
            n += len(BLOCKS[name])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    steps = draw(st.lists(st.tuples(pair, st.integers(-2, 2)), max_size=3 if n > 1 else 0))
    return Field.rational(), elementary_conjugate(direct_sum(blocks),
                                                  [(i, j, c) for (i, j), c in steps])


def test_known_groups():
    f5, f3, q = Field.prime(5), Field.prime(3), Field.rational()
    assert split_reading(f5, [[2, 0], [0, 3]]) == (True, True)        # |G| = 4 divides 4
    assert split_reading(f3, [[0, -1], [1, 0]]) == (True, False)      # |G| = 4, x^2 + 1 over F_3
    assert split_reading(f3, [[1, 1], [0, 1]]) == (False, False)      # modular
    assert split_reading(q, [[1, 0], [0, -1]]) == (True, True)        # |G| = 2
    assert split_reading(q, [[0, -1], [1, 0]]) == (True, False)       # |G| = 4 over Q


@SPLIT
@given(prime_generators(primes=(3, 5, 7, 11, 13)))
def test_prime_field_generators(gen):
    assume(split_reading(*gen) is not None)


@SPLIT
@given(conjugated_cyclotomic_sums())
def test_rational_cyclotomic_sums(gen):
    assert split_reading(*gen) is not None
