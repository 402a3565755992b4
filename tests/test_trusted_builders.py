"""Property test guarding the trusted Matrix constructor.

The oracle and group-action builders assemble their matrices with
`Matrix._of`, which does not coerce, and so do the products and the
stored RREF rows of the cocycle conditions.  On random invertible generators
(n <= 4 over F_3, F_5, F_7, dense and sparse, and signed permutations over
Q) every matrix they return must hold canonical field elements, an int in
[0, p) or a Fraction, and equal its coerced copy `Matrix(field, m.rows)`;
a builder that hands `_of` an unreduced value fails here.  So must every
cochain the oracle hands out: each `representative_basis` vector (its
lambda and alpha), and the representative and witness f that
`reduce_to_representative` returns for a random cocycle.  Over Q an int
prints the same digits as the equal Fraction, so no byte check of the
output would see one there.  `check_builders` also runs on the Q draws
with denominators 2 and 7 (`test_routes_property`).  Over F_p the group
layer makes no Fraction at all: a counting `Fraction.__new__` sees none.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from skewcoh import (
    Field,
    Matrix,
    OrderExceedsBoundError,
    coboundary_matrix,
    cocycle_conditions,
    full_report,
    group_from_generator,
    group_rows,
    kron,
    reduce_to_representative,
    representative_basis,
    rref,
    wedge2_matrix,
)
from skewcoh.group_action import quotient_matrix, restricted_matrix

from conftest import (
    assembled_complex, cut_matrix, dual_matrix, random_cocycle, reduced_conditions,
    transfer_matrix)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=25,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


@st.composite
def prime_generators(draw, max_n=4, min_n=1, sparse=st.booleans(), primes=(3, 5, 7)):
    """Invertible n x n generators over F_p, p drawn from `primes`, dense
    or sparse as `sparse` draws.  A sparse one is 1 + E with three in four
    entries of E drawn as zero, so that 1 - g, and with it every 1 - h,
    often has a zero row, which dense entries almost never give."""
    f = Field.prime(draw(st.sampled_from(primes)))
    n = draw(st.integers(min_n, max_n))
    entry = st.integers(-f.p, 2 * f.p)
    sparse = draw(sparse)
    if sparse:
        entry = st.tuples(st.sampled_from([0, 0, 0, 1]), entry).map(lambda t: t[0] * t[1])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if sparse:
        rows = [[x + (r == c) for c, x in enumerate(row)] for r, row in enumerate(rows)]
    assume(Matrix(f, rows).det() != 0)
    return f, rows


MODULAR_MAX_ORDER = 200


@st.composite
def modular_jordan_generators(draw):
    """The paper's modular regime over F_3, F_5 or F_7, with n = 3..6: one
    Jordan block J_k(lam), 2 <= k <= 4 and lam = 1 in about half the
    draws, then one or two lines J_1(mu) with mu != 1, then the identity,
    conjugated by a random integer matrix; kept when p divides
    |G| <= MODULAR_MAX_ORDER.  The block makes g non-diagonalizable and p
    divide |G|.  A codim-1 element moves a single line, which more moved
    blocks rarely leave room for, so this is the shape in which codim-1 and
    codim-2 elements most often meet in one group."""
    f = Field.prime(draw(st.sampled_from([3, 5, 7])))
    n = draw(st.integers(3, 6))
    k = draw(st.sampled_from([k for k in (2, 2, 3, 4) if k < n]))
    lines = draw(st.integers(1, min(2, n - k)))
    diag = ([draw(st.one_of(st.just(1), st.integers(1, f.p - 1)))] * k
            + [draw(st.integers(2, f.p - 1)) for _ in range(lines)] + [1] * (n - k - lines))
    rows = [[0] * n for _ in range(n)]
    for r, x in enumerate(diag):
        rows[r][r] = x
    for r in range(k - 1):
        rows[r][r + 1] = 1                  # the superdiagonal of J_k(lam)
    try:
        order = group_from_generator(f, rows, order_bound=MODULAR_MAX_ORDER).order
    except OrderExceedsBoundError:
        assume(False)
    assume(order % f.p == 0)
    u = Matrix(f, draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                min_size=n, max_size=n)))
    assume(u.det() != 0)
    return f, [list(row) for row in (u @ Matrix(f, rows) @ u.inverse()).rows]


@st.composite
def signed_permutations(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return Field.rational(), [[signs[i] if j == perm[i] else 0 for j in range(n)]
                              for i in range(n)]


def assert_canonical_scalars(f, xs):
    for x in xs:
        if f.p is None:
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < f.p


def assert_canonical(m):
    f = m.field
    assert len(m.rows) == m.nrows
    for row in m.rows:
        assert len(row) == m.ncols
        assert_canonical_scalars(f, row)
    assert m == Matrix(f, m.rows, ncols=m.ncols)


def check_builders(field, rows, i):
    gr = group_from_generator(field, rows)
    i %= gr.order
    h, ed = gr.power(i), gr.element(i)
    # g's actions on V/V_h and (V^h)*, built as `CyclicGroup.summand_dim` builds them
    quot = quotient_matrix(gr.generator, ed.moved_space)
    dual_fixed = restricted_matrix(gr.power(-1), ed.fixed_space).transpose()
    built = [
        h, transfer_matrix(gr), gr.transfer().basis, dual_matrix(h),
        restricted_matrix(gr.generator, ed.fixed_space),
        restricted_matrix(gr.generator, ed.moved_space),
        quotient_matrix(gr.generator, ed.fixed_space), quotient_matrix(h, ed.moved_space),
        quot, dual_fixed, kron(quot, dual_fixed),
        cocycle_conditions(gr, i), coboundary_matrix(gr, i),
        cut_matrix(gr, i),
        wedge2_matrix(h), kron(h, wedge2_matrix(dual_matrix(h))),
        rref(cocycle_conditions(gr, i))[0],
        reduced_conditions(gr, i),
        # products, one with zero rows only (d^2 = 0) and one with a zero row
        cocycle_conditions(gr, i) @ coboundary_matrix(gr, i), h @ gr.generator,
        cut_matrix(gr, i) @ coboundary_matrix(gr, i),
        Matrix(field, [[0] * gr.n, *h.rows]) @ dual_matrix(h),
    ]
    if gr.order <= 4:
        built += assembled_complex(gr)
    for m in built:
        assert_canonical(m)
    for c in representative_basis(gr, i, group_rows(gr)):
        assert_canonical_scalars(field, c.lam + sum(c.alpha, ()))
    rep, witness = reduce_to_representative(gr, random_cocycle(gr, i, random.Random(i), -3, 3))
    assert_canonical_scalars(field, rep.lam + sum(rep.alpha, ()) + witness.f)


@SETTINGS
@given(prime_generators(), st.integers(0, 50))
def test_prime_field_builders_hold_canonical_entries(gen, i):
    check_builders(*gen, i)


@SETTINGS
@given(signed_permutations(), st.integers(0, 50))
def test_rational_builders_hold_canonical_entries(gen, i):
    check_builders(*gen, i)


def test_the_prime_field_group_layer_makes_no_fraction(monkeypatch):
    # over F_p the group layer works on the canonical ints and makes no
    # Fraction: not for the group, its record, the formula's report or any
    # element's record.  J_2(1) + (2) over F_5 has |G| = 20 and elements of
    # codim 0, 1 and 2, so every summand's action is built
    made = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    gr = group_from_generator(Field.prime(5), [[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    group_rows(gr)
    full_report(gr)
    assert sorted({gr.element(i).codim for i in range(gr.order)}) == [0, 1, 2]
    assert made == []
    # the count sees a Fraction when one is made
    Fraction(1, 3)
    assert made == [(1, 3)]
