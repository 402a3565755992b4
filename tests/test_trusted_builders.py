"""Property test guarding the trusted Matrix constructor.

The oracle and group-action builders assemble their matrices with
`Matrix._of`, which does not coerce, and so do the products and the
stored RREF rows of the cocycle conditions.  On random invertible generators
(n <= 4 over F_3, F_5, F_7, and signed permutations over Q) every matrix
they return must hold canonical field elements, an int in [0, p) or a
Fraction, and equal its coerced copy `Matrix(field, m.rows)`; a builder
that hands `_of` an unreduced value fails here.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from skewcoh import (
    Field,
    Matrix,
    coboundary_matrix,
    cocycle_conditions,
    distinguished_constraints,
    group_from_generator,
    kron,
    per_element_cohomology,
    rref,
    wedge2_matrix,
)
from skewcoh.group_action import quotient_matrix, restricted_matrix

from conftest import assembled_complex, dual_matrix, transfer_matrix, zeros

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=25,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


@st.composite
def prime_generators(draw, max_n=4):
    f = Field.prime(draw(st.sampled_from([3, 5, 7])))
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(st.integers(-f.p, 2 * f.p), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(Matrix(f, rows).det() != 0)
    return f, rows


@st.composite
def signed_permutations(draw):
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return Field.rational(), [[signs[i] if j == perm[i] else 0 for j in range(n)]
                              for i in range(n)]


def assert_canonical(m):
    f = m.field
    assert len(m.rows) == m.nrows
    for row in m.rows:
        assert len(row) == m.ncols
        for x in row:
            if f.p is None:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < f.p
    assert m == Matrix(f, m.rows, ncols=m.ncols)


def check_builders(field, rows, i):
    gr = group_from_generator(field, rows)
    i %= gr.order
    h, ed = gr.power(i), gr.element(i)
    built = [
        h, transfer_matrix(gr), gr.transfer().basis, dual_matrix(h),
        restricted_matrix(gr.generator, ed.fixed_space),
        quotient_matrix(gr.generator, ed.moved_space), *gr.subgroup_actions(i),
        cocycle_conditions(gr, i), coboundary_matrix(gr, i),
        distinguished_constraints(gr, i),
        wedge2_matrix(h), kron(h, wedge2_matrix(dual_matrix(h))),
        rref(cocycle_conditions(gr, i))[0],
        per_element_cohomology(gr, i).cocycle_condition_matrix,
        # products, one with zero rows only (d^2 = 0) and one with a zero row
        cocycle_conditions(gr, i) @ coboundary_matrix(gr, i), h @ gr.generator,
        distinguished_constraints(gr, i) @ coboundary_matrix(gr, i),
        zeros(field, 1, gr.n).stack(h) @ dual_matrix(h),
    ]
    if gr.order <= 4:
        built += assembled_complex(gr)
    for m in built:
        assert_canonical(m)


@SETTINGS
@given(prime_generators(), st.integers(0, 50))
def test_prime_field_builders_hold_canonical_entries(gen, i):
    check_builders(*gen, i)


@SETTINGS
@given(signed_permutations(), st.integers(0, 50))
def test_rational_builders_hold_canonical_entries(gen, i):
    check_builders(*gen, i)
