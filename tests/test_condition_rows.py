"""Property tests for the rows `cocycle_conditions` builds.

The elimination pivots on the first candidate row, so the builder lists the
sparse condition (3) rows first, then (1), then (2), and never builds an
all-zero row.  On random invertible generators (n <= 5 over F_3, F_5, F_7,
dense and sparse, and signed permutations over Q) no row may be zero, and
the RREF must keep the same nonzero rows as the assembly below, which lists
conditions (1), (2), (3) in that order and keeps every row: the row space,
and so the cocycles and the stored RREF rows, do not depend on the order or
on the zero rows.

The alpha-twist block of condition (2) is built once per group as
I - (wedge^2 g)^T kron g^{-1}; on conjugated generators with Fraction
entries (n = 1..5 over F_3, F_5 and Q) it must equal, row for row, the
entrywise loop kept in conftest as `reference_twist`.  Over Q the record
holds integer rows: the reference times L, the lcm of every denominator of
g's powers and of the reference rows, which the record keeps as its scale.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcoh import Field, Matrix, cochain_dim, cocycle_conditions, group_from_generator, rref
from skewcoh.group_action import OrderExceedsBoundError, sym_pairs, wedge_pairs
from skewcoh.oracle import _jacobi_rows, _negated, group_rows

from conftest import elementary_conjugate, one_minus, reference_twist, suite_group
from test_trusted_builders import SETTINGS, prime_generators, signed_permutations

ORDER_BOUND = 1000


def every_jacobi_row(f, dim, one_minus_h, at):
    """Condition (3) with every row kept, zero rows included."""
    n = len(one_minus_h)
    pos = {p: k for k, p in enumerate(wedge_pairs(n))}
    x = list(zip(*one_minus_h))
    minus_x = list(zip(*_negated(f, one_minus_h)))
    rows = []
    for a, b, c in combinations(range(n), 3):
        terms = ((at + pos[(a, b)] * n, x[c]), (at + pos[(b, c)] * n, x[a]),
                 (at + pos[(a, c)] * n, minus_x[b]))
        for i0, j0 in sym_pairs(n):
            row = [f.zero()] * dim
            for base, xt in terms:
                row[base + i0] = xt[j0]
                row[base + j0] = xt[i0]
            rows.append(row)
    return rows


def every_condition_row(gr, i):
    """Conditions (1), (2), (3) at g^i, in that order, every row kept."""
    f, n = gr.field, gr.n
    dim = cochain_dim(n)
    rows = group_rows(gr)
    one_minus_h = one_minus(gr.power(i)).rows
    h_minus_1 = _negated(f, one_minus_h)
    out = list(rows.transfer)
    for a, b, r, twist in rows.twist:
        row = list(twist)
        row[b] = h_minus_1[r][a]
        row[a] = one_minus_h[r][b]
        out.append(row)
    out += every_jacobi_row(f, dim, one_minus_h, n)
    return Matrix(f, out, ncols=dim)


def check_conditions(field, rows, i):
    try:
        gr = group_from_generator(field, rows, order_bound=ORDER_BOUND)
    except OrderExceedsBoundError:
        assume(False)
    i %= gr.order
    cond = cocycle_conditions(gr, i)
    assert all(any(row) for row in cond.rows)
    red, piv = rref(cond)
    full_red, full_piv = rref(every_condition_row(gr, i))
    assert piv == full_piv
    assert red.rows[:len(piv)] == full_red.rows[:len(full_piv)]


@SETTINGS
@given(prime_generators(max_n=5), st.integers(0, 50))
def test_prime_field_conditions_have_no_zero_row_and_the_same_rref(gen, i):
    check_conditions(*gen, i)


@SETTINGS
@given(prime_generators(max_n=5, min_n=3, sparse=st.just(True)), st.integers(0, 50))
def test_sparse_prime_field_conditions_have_no_zero_row_and_the_same_rref(gen, i):
    # 1 - h with a zero row leaves condition (3) rows with one live
    # coordinate, which dense generators almost never reach
    check_conditions(*gen, i)


@SETTINGS
@given(signed_permutations(max_n=5), st.integers(0, 50))
def test_rational_conditions_have_no_zero_row_and_the_same_rref(gen, i):
    check_conditions(*gen, i)


def test_identity_contributes_no_jacobi_row():
    # 1 - h = 0 at h = 1, so every condition (3) row is zero and none is built
    gr = suite_group("diag_2_3_4_f5")
    f, n = gr.field, gr.n
    one_minus_1 = one_minus(gr.power(0)).rows
    assert _jacobi_rows(f.zero(), cochain_dim(n), one_minus_1, _negated(f, one_minus_1), n) == []
    assert len(every_jacobi_row(f, cochain_dim(n), one_minus_1, n)) == 6
    # what is left at the identity are the nonzero rows of conditions (1) and (2)
    rows = group_rows(gr)
    kept = [tuple(r) for r in rows.transfer] + [tuple(t) for *_, t in rows.twist if any(t)]
    assert list(cocycle_conditions(gr, 0).rows) == kept


@st.composite
def conjugated_generators(draw, field, n):
    """A signed permutation, or over F_p also +-J_n(1), conjugated by up to
    four elementary steps with Fraction coefficients whose denominators
    (1, 2 or 7) are units in F_3, F_5 and Q."""
    if field.p is not None and draw(st.booleans()):
        sign = draw(st.sampled_from([1, -1]))
        base = [[sign * (b in (a, a + 1)) for b in range(n)] for a in range(n)]
    else:
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        base = [[signs[a] if b == perm[a] else 0 for b in range(n)] for a in range(n)]
    steps = []
    if n > 1:
        steps = draw(st.lists(st.tuples(st.permutations(range(n)),
                                        st.integers(-3, 3), st.sampled_from([1, 2, 7])),
                              max_size=4))
        steps = [(ij[0], ij[1], Fraction(c, d)) for ij, c, d in steps]
    return elementary_conjugate(base, steps)


def rational_conjugates(max_n=4):
    """(Q, rows): a signed permutation of size 1..max_n conjugated as in
    `conjugated_generators`, so that g has entries with denominators 2 and 7
    and the conditions eliminate through pivots other than +-1."""
    q = Field.rational()
    return st.integers(1, max_n).flatmap(
        lambda n: conjugated_generators(q, n)).map(lambda rows: (q, rows))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("field", [Field.prime(3), Field.prime(5), Field.rational()],
                         ids=["F3", "F5", "Q"])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_twist_block_is_the_entrywise_reference(field, n, data):
    rows = data.draw(conjugated_generators(field, n))
    gr = group_from_generator(field, rows, order_bound=ORDER_BOUND)
    record, ref = group_rows(gr), reference_twist(gr)
    if field.p is None:
        scale = lcm(*[x.denominator for m in gr.powers for row in m.rows for x in row],
                    *[x.denominator for *_, row in ref for x in row])
        assert record.scale == scale
        assert all(type(x) is int for *_, row in record.twist for x in row)
        ref = [(a, b, r, tuple(x * scale for x in row)) for a, b, r, row in ref]
    else:
        assert record.scale is None
    assert record.twist == ref
