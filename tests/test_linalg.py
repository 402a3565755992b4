"""Exact linear algebra: RREF, kernels/images, complements, eigenspaces,
spans, solving, and characteristic polynomials.

The worked examples here (kernel/image of 1-g for the transvection, the
pivot-completion complement of span{e1+e2}, eigenspaces of diag(1,-1))
are the exact computations the cohomology layers lean on.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcoh import (
    Field,
    Matrix,
    NotInvertibleError,
    char_poly,
    eigenspace,
    image_basis,
    kernel_basis,
    kron,
    minus_scalar,
    poly_splits,
    rank,
    rref,
    solve,
)
from skewcoh import linalg
from skewcoh.group_action import quotient_matrix, restricted_matrix
from skewcoh.oracle import _signed_shifts

from conftest import (difference, dual_matrix, fraction_rref, full, one_minus,
                      reference_kernel_basis, span, zeros)

F3 = Field.prime(3)
F5 = Field.prime(5)
Q = Field.rational()


# -- rref ----------------------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(F3, 2)
    red, piv = rref(m)
    assert red == m
    assert piv == (0, 1)


def test_rref_zero():
    m = zeros(F3, 2, 2)
    red, piv = rref(m)
    assert red == m
    assert piv == ()


def test_rref_one_minus_transvection():
    g = Matrix(F3, [[1, 1], [0, 1]])
    m = one_minus(g)
    red, piv = rref(m)
    # 1 - [[1,1],[0,1]] = [[0,-1],[0,0]]; normalized pivot entry is 1
    assert red.rows == ((0, 1), (0, 0))
    assert piv == (1,)


def _random_matrix(f, rng, r, c):
    if f.p is not None:
        return Matrix(f, [[rng.randrange(f.p) for _ in range(c)] for _ in range(r)])
    return Matrix(f, [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(c)] for _ in range(r)])


@pytest.mark.parametrize("field", [F3, F5, Q], ids=["F3", "F5", "Q"])
def test_rref_idempotent_and_rank_nullity(field):
    rng = random.Random(99)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(field, rng, r, c)
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red2 == red and piv2 == piv
        assert list(piv) == sorted(piv)
        assert rank(m) + kernel_basis(m).dim == c


# -- kernels and images ----------------------------------------------------

def test_kernel_of_one_minus_transvection():
    g = Matrix(F3, [[1, 1], [0, 1]])
    m = one_minus(g)
    assert kernel_basis(m) == span(F3, 2, [[1, 0]])


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(F5, 2)).dim == 0
    assert kernel_basis(zeros(F5, 2, 2)) == full(F5, 2)


def test_image_of_one_minus_transvection():
    g = Matrix(F3, [[1, 1], [0, 1]])
    m = one_minus(g)
    assert image_basis(m) == span(F3, 2, [[1, 0]])


def test_image_identity_and_zero():
    assert image_basis(Matrix.identity(Q, 3)) == full(Q, 3)
    assert image_basis(zeros(Q, 3, 3)).dim == 0


# -- complements -----------------------------------------------------------

def test_complement_of_e1():
    assert span(F5, 2, [[1, 0]]).complement() == span(F5, 2, [[0, 1]])


def test_complement_of_full_and_zero():
    assert full(F3, 2).complement().dim == 0
    assert span(F3, 2).complement() == full(F3, 2)


def test_complement_pivot_completion():
    # basis e1+e2 has its pivot at column 0, so the completion is e2
    assert span(F5, 2, [[1, 1]]).complement() == span(F5, 2, [[0, 1]])


@pytest.mark.parametrize("field", [F3, Q], ids=["F3", "Q"])
def test_complement_is_a_complement(field):
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        u = span(field, n, [[_rand(field, rng) for _ in range(n)] for _ in range(k)])
        c = u.complement()
        assert u.dim + c.dim == n
        # u + c is everything, so by the dimensions u and c meet in 0
        assert span(field, n, u.basis.rows + c.basis.rows) == full(field, n)


def _rand(f, rng):
    return rng.randrange(f.p) if f.p is not None else Fraction(rng.randint(-3, 3))


# -- eigenspaces -----------------------------------------------------------

def test_eigenspace_diag():
    m = Matrix(F5, [[1, 0], [0, -1]])
    assert eigenspace(m, 1) == span(F5, 2, [[1, 0]])
    assert eigenspace(m, -1) == span(F5, 2, [[0, 1]])


def test_eigenspace_jordan_block():
    m = Matrix(F3, [[1, 1], [0, 1]])
    assert eigenspace(m, 1) == span(F3, 2, [[1, 0]])
    assert eigenspace(m, 2).dim == 0


# -- spans -------------------------------------------------------------------

def test_sum_and_intersect():
    # sums are spans of the joined bases; dim(U cap W) = dim U + dim W - dim(U + W)
    e1 = span(F5, 2, [[1, 0]])
    e2 = span(F5, 2, [[0, 1]])
    diag = span(F5, 2, [[1, 1]])
    assert span(F5, 2, e1.basis.rows + e2.basis.rows) == full(F5, 2)
    assert span(F5, 2, e1.basis.rows + diag.basis.rows) == full(F5, 2)
    assert not e1.contains_space(diag) and not diag.contains_space(e1)
    assert span(F5, 2, e1.basis.rows + e1.basis.rows) == e1


def test_contains():
    u = span(Q, 3, [[1, 0, 0], [0, 1, 0]])
    assert u.contains([2, -3, 0])
    assert not u.contains([0, 0, 1])
    assert u.contains_space(span(Q, 3, [[1, 1, 0]]))
    assert not u.contains_space(full(Q, 3))
    # the other space's rows are read without coercion, so a space of
    # another field or ambient dimension is refused, not read
    for other in (span(F5, 3, [[1, 1, 0]]), span(Q, 2, [[1, 1]])):
        with pytest.raises(ValueError, match="^a subspace of F\\^"):
            u.contains_space(other)


@pytest.mark.parametrize("field", [F3, Q], ids=["F3", "Q"])
def test_membership_and_coordinates_need_ambient_length(field):
    u = span(field, 3, [[1, 0, 0]])
    for v in ([1, 0, 0, 5], [1, 0], []):
        with pytest.raises(ValueError):
            u.contains(v)
    assert u.contains([1, 0, 0])
    with pytest.raises(ValueError):
        span(field, 0).contains([0])
    assert span(field, 0).contains([])


def test_quotient_map_coordinates():
    # F^2 / span{e1}: the quotient coordinate of e2 is 1.  The one entry of
    # quotient_matrix(m, u) is the quotient coordinate of m e2, so choosing
    # m e2 = v reads the coordinate of v.
    u = span(F5, 2, [[1, 0]])
    for image_of_e2, coord in (([0, 1], 1), ([1, 0], 0), ([3, 2], 2)):
        m = Matrix(F5, [[1, image_of_e2[0]], [0, image_of_e2[1]]])
        assert quotient_matrix(m, u) == Matrix(F5, [[coord]])


def test_equal_subspaces_identical_basis():
    a = span(F5, 2, [[1, 1], [1, 2]])
    b = full(F5, 2)
    assert a == b
    assert a.basis == b.basis


# -- matrices ----------------------------------------------------------------

def test_matmul_and_apply():
    a = Matrix(F5, [[1, 2], [3, 4]])
    b = Matrix(F5, [[0, 1], [1, 0]])
    assert (a @ b).rows == ((2, 1), (4, 3))
    assert a.apply([1, 0]) == (1, 3)
    with pytest.raises(ValueError):
        a @ Matrix(F5, [[1, 2, 3]])


def test_operands_need_the_same_field():
    # Q @ F_3 gave a Q matrix
    a3, aq, a5 = Matrix(F3, [[1, 2]]), Matrix(Q, [["1/2", 1]]), Matrix(F5, [[1, 2]])
    for a, b in ((a3, aq), (aq, a3), (a3, a5)):
        with pytest.raises(ValueError, match="field mismatch"):
            a @ b.transpose()
    assert (a3 @ a3.transpose()).rows == ((2,),)


@pytest.mark.parametrize("field", [F3, Q], ids=["F3", "Q"])
def test_empty_matrices_need_no_special_case(field):
    # the 0x0 matrix is the action on a zero module: the identity summand's
    # V/V^h, the quotient V/V_h and (V^h)* at codim n, wedge^2 at n = 1
    e, one = zeros(field, 0, 0), field.one()
    assert e.nrows == e.ncols == 0
    assert e.det() == one
    assert e.inverse() == e and e.transpose() == e and dual_matrix(e) == e
    m = Matrix(field, [[1, 2], [0, 1]])
    assert kron(e, m) == e and kron(m, e) == e and kron(e, e) == e
    assert eigenspace(e, 1).dim == 0 and eigenspace(e, 2).ambient == 0
    q = quotient_matrix(m, full(field, 2))
    assert q == e and q.det() == one
    assert restricted_matrix(m, span(field, 2)) == e


def test_inverse_and_det():
    m = Matrix(Q, [["1/2", 0], [0, 2]])
    assert m.inverse() == Matrix(Q, [[2, 0], [0, "1/2"]])
    assert m.det() == Fraction(1)
    assert Matrix(F3, [[1, 1], [0, 1]]).det() == 1
    assert Matrix(F3, [[1, 1], [1, 1]]).det() == 0
    with pytest.raises(NotInvertibleError):
        Matrix(F3, [[1, 1], [1, 1]]).inverse()


@st.composite
def rational_matrices(draw):
    """Sparse or dense matrices over Q, square about half the time, with
    numerators up to 40 in size over denominators 1, 2, 3, 7, 11, 13 and 91."""
    r = draw(st.integers(0, 7))
    c = r if draw(st.booleans()) else draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-40, 40),
                                st.sampled_from([1, 2, 3, 7, 11, 13, 91])))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return Matrix(Q, rows, ncols=c)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(rational_matrices())
def test_rational_elimination_matches_fraction_gauss_jordan(m):
    # the integer-row elimination over Q against textbook Fraction arithmetic
    rows, pivots, det = fraction_rref(m)
    red, piv = rref(m)
    assert piv == pivots and red.rows == rows
    assert all(type(x) is Fraction for r in red.rows for x in r)
    if m.nrows == m.ncols:
        assert m.det() == (det if len(piv) == m.ncols else 0)


def test_matrix_immutable_and_ragged():
    m = Matrix(F3, [[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(ValueError):
        Matrix(F3, [[1, 0], [0]])


def test_solve():
    m = Matrix(F5, [[1, 2], [3, 4]])
    x, kernel = solve(Matrix(F5, [[1, 2, 1], [3, 4, 1]]))
    assert x is not None and m.apply(x) == (1, 1) and kernel == []
    # inconsistent: the zero map cannot hit a nonzero vector, and its
    # kernel is everything
    x, kernel = solve(Matrix(F5, [[0, 0, 1], [0, 0, 0]]))
    assert x is None and kernel == [(1, 0), (0, 1)]
    # there is no b without a last column
    with pytest.raises(ValueError):
        solve(zeros(F5, 2, 0))


@st.composite
def augmented_systems(draw):
    """(m, [m | b]) over F_3, F_5 or Q: m with 0 to 5 rows and 0 to 5
    columns, a drawn set of them zero, and b zero, in the image of m, or
    drawn freely (so often inconsistent)."""
    f = draw(st.sampled_from([F3, F5, Q]))
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.integers(-4, 4) if f.p else \
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    zero_columns = draw(st.sets(st.integers(0, c - 1))) if c else set()
    m = Matrix(f, [[0 if j in zero_columns else x for j, x in enumerate(row)] for row in rows],
               ncols=c)
    kind = draw(st.sampled_from(["zero", "image", "free"]))
    if kind == "zero":
        b = [0] * r
    elif kind == "image":
        b = m.apply(draw(st.lists(entry, min_size=c, max_size=c)))
    else:
        b = draw(st.lists(entry, min_size=r, max_size=r))
    return m, Matrix(f, [row + (y,) for row, y in zip(m.rows, b)], ncols=c + 1)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(augmented_systems())
def test_solve_reads_a_solution_and_the_kernel_off_one_elimination(system):
    m, aug = system
    b = tuple(row[-1] for row in aug.rows)
    x, kernel = solve(aug)
    r = rank(m)
    # consistent iff b adds no rank (Rouche-Capelli)
    assert (x is None) == (rank(aug) > r)
    if x is not None:
        assert len(x) == m.ncols and m.apply(x) == b
    assert len(kernel) == m.ncols - r
    assert all(not any(m.apply(k)) for k in kernel)
    assert span(m.field, m.ncols, kernel) == kernel_basis(m)


# -- the kernel layer -----------------------------------------------------------

@st.composite
def kernel_matrices(draw):
    """(m, order) over F_3, F_5 or Q: m with 0 to 6 rows and 0 to 6
    columns, drawn freely, all zero, or with some rows repeated, and order
    a permutation of its columns."""
    f = draw(st.sampled_from([F3, F5, Q]))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 1, -1, 2]) if f.p else \
        st.one_of(st.just(0), st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 7])))
    kind = draw(st.sampled_from(["free", "zero", "repeated"]))
    if kind == "zero":
        rows = [[0] * c] * r
    else:
        rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        if kind == "repeated" and rows:
            rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
    return Matrix(f, rows, ncols=c), tuple(draw(st.permutations(range(c))))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(kernel_matrices())
def test_eliminate_in_an_order_is_the_rref_of_the_permuted_columns(case):
    m, order = case
    permuted = Matrix(m.field, [[row[c] for c in order] for row in m.rows], ncols=m.ncols)
    red, piv = rref(permuted)
    # `_eliminate` takes list copies of m's int rows, over Q m times the
    # common denominator d of its entries (over F_p d = 1)
    ints, d = linalg._int_rows(m.field, m.rows)
    rows = list(map(list, ints))
    pivots, det = linalg._eliminate(m.field, rows, m.ncols, order)
    assert pivots == tuple(order[k] for k in piv)
    assert [tuple(row[c] for c in order) for row in rows] == list(red.rows)
    if m.field.p is None:
        assert all(type(x) is Fraction for row in rows for x in row)
        assert all(type(x) is int for row in ints for x in row)
    if m.nrows == m.ncols:
        assert det == permuted.det() * d ** m.nrows


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(kernel_matrices(), st.data())
def test_eliminating_only_the_read_columns_keeps_the_pivots_and_the_read_rows(case, data):
    # a caller that reads the first `reduced` columns of the order gets the
    # same pivots, and the rows pivoting there are the full elimination's
    # rows at those columns (over Q canonical Fractions)
    m, order = case
    reduced = data.draw(st.integers(0, m.ncols))
    full, part = (list(map(list, linalg._int_rows(m.field, m.rows)[0])) for _ in range(2))
    pivots = linalg._eliminate(m.field, full, m.ncols, order)[0]
    assert linalg._eliminate(m.field, part, m.ncols, order, reduced)[0] == pivots
    read = order[:reduced]
    k = len(set(pivots).intersection(read))
    assert pivots[:k] == tuple(c for c in read if c in pivots)
    assert [[row[c] for c in read] for row in part[:k]] == \
        [[row[c] for c in read] for row in full[:k]]
    if m.field.p is None:
        assert all(type(x) is Fraction for row in part[:k] for x in row)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(kernel_matrices(), st.data())
def test_the_int_boundary_gives_back_the_canonical_matrix(case, data):
    # `_int_rows` and `_of_ints` are the one crossing between field entries
    # and ints: over F_p `_of_ints` reduces any int rows, negative or >= p,
    # and makes no Fraction; over Q the round trip gives m back
    m, _ = case
    f = m.field
    if f.p is not None:
        ints, d = linalg._int_rows(f, m.rows)
        assert ints is m.rows and d == 1
        rows = data.draw(st.lists(st.lists(st.integers(-3 * f.p, 3 * f.p), min_size=m.ncols,
                                           max_size=m.ncols),
                                  min_size=m.nrows, max_size=m.nrows))
        made = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__new__", counted)
            got = linalg._of_ints(f, rows, 1, m.ncols)
        assert got == Matrix(f, rows, ncols=m.ncols)
        assert made == []
    else:
        got = linalg._of_ints(f, *linalg._int_rows(f, m.rows), m.ncols)
        assert got == m
        assert all(type(x) is Fraction for row in got.rows for x in row)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(kernel_matrices())
def test_kernel_basis_is_the_rref_basis_of_the_kernel_vectors(case):
    # one reversed-order elimination gives the basis that rref, the kernel
    # vectors and a second elimination of them gave
    m, _ = case
    ker, ref = kernel_basis(m), reference_kernel_basis(m)
    assert ker == ref and ker._pivots == ref._pivots


def test_kernel_basis_eliminates_once_in_descending_order(monkeypatch):
    real = linalg._eliminate
    orders = []

    def counted(f, rows, ncols, order=None):
        orders.append(None if order is None else tuple(order))
        return real(f, rows, ncols, order)

    def refuse(*args):
        raise RuntimeError("kernel_basis must eliminate once, with no rref")
    rng = random.Random(7)
    cases = [one_minus(Matrix(F3, [[1, 1], [0, 1]])), Matrix.identity(Q, 3), zeros(F5, 2, 4),
             zeros(Q, 0, 3), _random_matrix(Q, rng, 4, 6), _random_matrix(F5, rng, 5, 3)]
    monkeypatch.setattr(linalg, "_eliminate", counted)
    monkeypatch.setattr(linalg, "rref", refuse)
    for m in cases:
        orders.clear()
        kernel_basis(m)
        assert orders == [tuple(range(m.ncols - 1, -1, -1))]


@st.composite
def squares_and_scalars(draw):
    """(m, c) over F_3, F_5 or Q: a square m of size 0 to 5 and a canonical
    scalar c."""
    f = draw(st.sampled_from([F3, F5, Q]))
    n = draw(st.integers(0, 5))
    entry = st.integers(-4, 4) if f.p else \
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix(f, rows, ncols=n), f.coerce(draw(entry))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(squares_and_scalars())
def test_minus_scalar_is_the_entrywise_shift(mc):
    m, c = mc
    f, n = m.field, m.nrows
    copy = Matrix(f, m.rows, ncols=n)
    cid = Matrix(f, [[c if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)
    out = minus_scalar(m, c)
    assert out == difference(m, cid)
    assert out.ncols == n
    assert all(type(x) is int and 0 <= x < f.p if f.p else type(x) is Fraction
               for r in out.rows for x in r)
    assert m == copy
    # the oracle's 1 - h and h - 1, h - 1 from the builder and 1 - h its negation
    one_minus_m, m_minus_1 = _signed_shifts(f, m)
    assert tuple(map(tuple, one_minus_m)) == one_minus(m).rows
    assert m_minus_1 == difference(m, Matrix.identity(f, n)).rows
    with pytest.raises(ValueError, match="not square"):
        minus_scalar(zeros(f, n, n + 1), c)


@pytest.mark.parametrize("field", [F3, F5, Field.prime(7)], ids=repr)
def test_sparse_left_factors_multiply_like_the_dense_product(field):
    # over F_p each left row is read through its nonzeros alone: densities
    # 0 to 20 %, zero rows, and an inner dimension of 0
    p = field.p
    rng = random.Random("sparse-left-%d" % p)

    def dense(a, b, c):
        return tuple(tuple(sum(x * row[j] for x, row in zip(ai, b)) % p for j in range(c))
                     for ai in a)

    for density in (0.0, 0.02, 0.05, 0.1, 0.2):
        for _ in range(10):
            r, k, c = rng.randint(0, 12), rng.randint(0, 30), rng.randint(1, 6)
            a = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(k)]
                 for _ in range(r)]
            if a:
                a[rng.randrange(r)] = [0] * k
            b = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
            prod = Matrix(field, a, ncols=k) @ Matrix(field, b, ncols=c)
            assert (prod.nrows, prod.ncols) == (r, c)
            assert prod.rows == dense(a, b, c)


# -- characteristic polynomials ------------------------------------------------

def test_char_poly_transvection():
    g = Matrix(F3, [[1, 1], [0, 1]])
    # (x-1)^2 = x^2 - 2x + 1 = x^2 + x + 1 over F_3, coefficients low to high
    assert char_poly(g) == (1, 1, 1)


def test_char_poly_rotation():
    g = Matrix(Q, [[0, -1], [1, 0]])
    assert char_poly(g) == (Fraction(1), Fraction(0), Fraction(1))   # x^2 + 1


def cofactor_char_poly(m):
    """det(x*I - m) by cofactor expansion over the polynomial ring, the
    O(n!) char_poly that Berkowitz's algorithm replaced; a test oracle only."""
    f = m.field
    n = m.nrows

    def padd(a, b):
        la, lb = len(a), len(b)
        return tuple(f.add(a[i] if i < la else f.zero(), b[i] if i < lb else f.zero())
                     for i in range(max(la, lb)))

    def pmul(a, b):
        out = [f.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(x, y))
        return tuple(out)

    ent = [[(f.neg(m.rows[i][j]), f.one()) if i == j else (f.neg(m.rows[i][j]),)
            for j in range(n)] for i in range(n)]

    def pdet(rows_idx, cols_idx):
        if len(rows_idx) == 1:
            return ent[rows_idx[0]][cols_idx[0]]
        total = (f.zero(),)
        for s, j in enumerate(cols_idx):
            term = pmul(ent[rows_idx[0]][j], pdet(rows_idx[1:], cols_idx[:s] + cols_idx[s + 1:]))
            total = padd(total, term if s % 2 == 0 else tuple(f.neg(x) for x in term))
        return total

    poly = pdet(tuple(range(n)), tuple(range(n)))
    return poly + (f.zero(),) * (n + 1 - len(poly))


@pytest.mark.parametrize("field", [F3, F5, Field.prime(7), Q], ids=["F3", "F5", "F7", "Q"])
def test_char_poly_matches_cofactor_expansion(field):
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = _random_matrix(field, rng, n, n)
        got = char_poly(m)
        assert got == cofactor_char_poly(m), m.rows
        assert all(type(x) is (int if field.p else Fraction) for x in got)
    # a sparse, a triangular and a zero matrix, where most products vanish
    for rows in ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[1, 2, 3], [0, 4, 5], [0, 0, 6]],
                 [[0, 0], [0, 0]]):
        m = Matrix(field, rows)
        assert char_poly(m) == cofactor_char_poly(m)


def test_char_poly_of_a_large_permutation_matrix():
    # the 30-cycle: det(x*I - P) = x^30 - 1, at a size cofactor expansion cannot reach
    n = 30
    p = Matrix(F5, [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    assert char_poly(p) == (4,) + (0,) * (n - 1) + (1,)


def test_poly_splits():
    assert poly_splits(F3, char_poly(Matrix(F3, [[1, 1], [0, 1]])))
    assert poly_splits(F5, char_poly(Matrix(F5, [[2, 0], [0, 3]])))
    # x^2 + 1 has the roots +-2 over F_5 but none over Q
    assert poly_splits(F5, char_poly(Matrix(F5, [[0, -1], [1, 0]])))
    assert not poly_splits(Q, char_poly(Matrix(Q, [[0, -1], [1, 0]])))
    assert poly_splits(Q, char_poly(Matrix(Q, [[1, 0], [0, -1]])))


def scan_splits(field, coeffs):
    """The root scan poly_splits used before: divide out x - r for every r
    in F_p in turn.  O(p); a test oracle only."""
    f = field
    coeffs = [f.coerce(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    for root in range(f.p):
        while len(coeffs) > 1:
            quot = [f.zero()] * (len(coeffs) - 1)
            quot[-1] = coeffs[-1]
            for i in range(len(coeffs) - 2, 0, -1):
                quot[i - 1] = f.add(coeffs[i], f.mul(root, quot[i]))
            if f.add(coeffs[0], f.mul(root, quot[0])) == 0:
                coeffs = quot
            else:
                break
    return len(coeffs) == 1


def poly_mul(f, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_poly_splits_matches_the_root_scan(p):
    f = Field.prime(p)
    rng = random.Random(p)
    seen = set()
    for _ in range(150):
        # linear factors, some repeated, times a random monic cofactor;
        # degree <= 5
        roots = rng.choices(range(p), k=rng.randint(0, 3))
        roots += rng.choices(roots, k=rng.randint(0, min(len(roots), 5 - len(roots))))
        poly = [1]
        for r in roots:
            poly = poly_mul(f, poly, [f.neg(r), 1])
        cofactor = [rng.randrange(p) for _ in range(rng.randint(0, 5 - len(roots)))] + [1]
        poly = poly_mul(f, poly, cofactor)
        got = poly_splits(f, poly)
        assert got == scan_splits(f, poly), poly
        seen.add(got)
    assert seen == {True, False}


def test_poly_splits_at_large_primes():
    p = 2 ** 61 - 1                      # 3 mod 4: x^2 + 1 has no root
    f = Field.prime(p)
    assert not poly_splits(f, [1, 0, 1])
    assert poly_splits(f, poly_mul(f, [f.neg(5), 1], poly_mul(f, [f.neg(5), 1], [3, 1])))
    assert not poly_splits(f, poly_mul(f, [f.neg(5), 1], [1, 0, 1]))
    f = Field.prime(10 ** 9 + 9)         # 1 mod 4: x^2 + 1 splits
    assert poly_splits(f, [1, 0, 1])


def test_explicit_ncols_must_match_the_rows():
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2]], ncols=3)
    assert Matrix(F5, [], ncols=3).ncols == 3
    assert Matrix(F5, [[1, 2]], ncols=2).rows == ((1, 2),)


def test_subspace_membership_and_complement_reuse_the_stored_pivots(monkeypatch):
    import skewcoh.linalg as linalg
    u = span(F5, 4, [[1, 2, 0, 3], [0, 0, 1, 4]])
    reduced = []

    def recording_rref(m, rref=linalg.rref):
        reduced.append(m.rows)
        return rref(m)
    monkeypatch.setattr(linalg, "rref", recording_rref)
    assert u.contains([2, 4, 3, 3])              # 2*row0 + 3*row1
    assert not u.contains([0, 1, 0, 0])
    assert u.contains_space(u)
    assert u.complement() == span(F5, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    assert u.basis.rows not in reduced
