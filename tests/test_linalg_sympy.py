"""Differential test of the elimination kernel against sympy's DomainMatrix
over GF(p), p = 3, 5, 7, and QQ.

Random matrices come in three kinds: dense, sparse (about 10 % of the
entries nonzero, which is what the sparse pivot-row update is for) and
rank-deficient (a product of two thin factors).  For each one the RREF rows
and pivots, the rank, the kernel, the product with a second matrix, and on
square ones the determinant and inverse must agree.  Products are also
checked on zero rows, on either side, and on empty shapes.  Over QQ, where
the library eliminates and multiplies on integer rows, there are also
entries over the mixed denominators 7, 11, 13 and their products with mixed
signs, zero rows and columns, and the 10x10 Hilbert matrix.  sympy is used
here only; the package never imports it.
"""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from skewcoh import Field, Matrix, NotInvertibleError, kernel_basis, rank, rref

from conftest import span, zeros

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = [Field.prime(3), Field.prime(5), Field.prime(7), Field.rational()]
KINDS = ("dense", "sparse", "deficient")


def _domain(f):
    return sympy.GF(f.p) if f.p else sympy.QQ


def _to_sympy(m):
    k = _domain(m.field)
    if m.field.p:
        rows = [[k(x) for x in r] for r in m.rows]
    else:
        rows = [[k(x.numerator, x.denominator) for x in r] for r in m.rows]
    return DomainMatrix(rows, (m.nrows, m.ncols), k)


def _from_sympy(f, x):
    if f.p:
        return int(_domain(f).to_int(x)) % f.p
    return Fraction(int(x.numerator), int(x.denominator))


def _rows(f, dm):
    return tuple(tuple(_from_sympy(f, x) for x in r) for r in dm.to_list())


def _entry(f, rng, fill):
    if rng.random() >= fill:
        return 0
    if f.p:
        return rng.randrange(1, f.p)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def _random_matrix(f, rng, kind, r, c):
    if kind == "deficient":
        k = rng.randint(1, max(1, min(r, c) - 1))
        a = [[_entry(f, rng, 1.0) for _ in range(k)] for _ in range(r)]
        b = [[_entry(f, rng, 1.0) for _ in range(c)] for _ in range(k)]
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
                for i in range(r)]
    else:
        fill = 1.0 if kind == "dense" else 0.1
        rows = [[_entry(f, rng, fill) for _ in range(c)] for _ in range(r)]
    return Matrix(f, rows, ncols=c)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_rank_kernel_product_agree_with_sympy(field, kind):
    rng = random.Random("%r-%s" % (field, kind))
    for _ in range(30):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        m = _random_matrix(field, rng, kind, r, c)
        dm = _to_sympy(m)
        red, piv = rref(m)
        sred, spiv = dm.rref()
        assert piv == tuple(spiv)
        assert red.rows == _rows(field, sred)
        assert rank(m) == dm.rank() == len(piv)
        ker = kernel_basis(m)
        sker = dm.nullspace()
        assert ker.dim == sker.shape[0]
        assert ker == span(field, c, _rows(field, sker))
        other = _random_matrix(field, rng, "dense", c, rng.randint(1, 4))
        assert (m @ other).rows == _rows(field, dm.matmul(_to_sympy(other)))


def _assert_product_agrees(a, b):
    prod, sprod = a @ b, _to_sympy(a).matmul(_to_sympy(b))
    assert (prod.nrows, prod.ncols) == sprod.shape
    assert prod.rows == _rows(a.field, sprod)


@pytest.mark.parametrize("field", [Field.prime(3), Field.rational()], ids=repr)
def test_product_edge_cases_agree_with_sympy(field):
    # the product reads only the nonzeros of each row: zero rows on either
    # side, a zero left row against a dense factor, and empty shapes
    rng = random.Random("product-edges-%r" % field)
    for _ in range(10):
        left = _random_matrix(field, rng, "dense", 4, 5)
        right = _random_matrix(field, rng, "dense", 5, 3)
        holed_left = Matrix(field, [[0] * 5 if r % 2 else row
                                    for r, row in enumerate(left.rows)], ncols=5)
        holed_right = Matrix(field, [[0] * 3 if r in (0, 2, 4) else row
                                     for r, row in enumerate(right.rows)], ncols=3)
        _assert_product_agrees(holed_left, right)
        _assert_product_agrees(left, holed_right)
        _assert_product_agrees(holed_left, holed_right)
        _assert_product_agrees(zeros(field, 2, 5), right)
        _assert_product_agrees(_random_matrix(field, rng, "sparse", 6, 5), holed_right)
    for k, m in ((3, 4), (1, 1), (0, 2)):
        _assert_product_agrees(zeros(field, 0, k),
                               _random_matrix(field, rng, "dense", k, m))
        _assert_product_agrees(Matrix(field, [[]] * k, ncols=0), zeros(field, 0, m))
    assert (zeros(field, 0, 3) @ zeros(field, 3, 2)).ncols == 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_det_and_inverse_agree_with_sympy(field, kind):
    rng = random.Random("square-%r-%s" % (field, kind))
    for _ in range(30):
        n = rng.randint(1, 7)
        m = _random_matrix(field, rng, kind, n, n)
        dm = _to_sympy(m)
        det = _from_sympy(field, dm.det())
        assert m.det() == det
        if det == 0:
            with pytest.raises(NotInvertibleError):
                m.inverse()
        else:
            assert m.inverse().rows == _rows(field, dm.inv())


Q = Field.rational()
MIXED_DENOMINATORS = (1, 7, 11, 13, 7 * 11, 7 * 13, 11 * 13, 7 * 11 * 13)


def _mixed_entry(rng, fill):
    if rng.random() >= fill:
        return 0
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.choice(MIXED_DENOMINATORS))


def _mixed_matrix(rng, kind, r, c):
    """An r x c matrix over Q with mixed denominators: dense, with zero rows
    and zero columns ("holed"), or of rank below min(r, c) ("deficient")."""
    if kind == "deficient":
        k = rng.randint(0, max(0, min(r, c) - 1))
        a = [[_mixed_entry(rng, 0.8) for _ in range(k)] for _ in range(r)]
        b = [[_mixed_entry(rng, 0.8) for _ in range(c)] for _ in range(k)]
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
                for i in range(r)]
    else:
        rows = [[_mixed_entry(rng, 0.7) for _ in range(c)] for _ in range(r)]
        if kind == "holed":
            dead_rows = set(rng.sample(range(r), rng.randint(0, r)))
            dead_cols = set(rng.sample(range(c), rng.randint(0, c)))
            rows = [[0 if i in dead_rows or j in dead_cols else x for j, x in enumerate(row)]
                    for i, row in enumerate(rows)]
    return Matrix(Q, rows, ncols=c)


def _assert_elimination_agrees(m):
    dm = _to_sympy(m)
    red, piv = rref(m)
    sred, spiv = dm.rref()
    assert piv == tuple(spiv)
    assert red.rows == _rows(Q, sred)
    assert rank(m) == len(piv)
    ker = kernel_basis(m)
    assert ker == span(Q, m.ncols, _rows(Q, dm.nullspace()))
    if m.nrows == m.ncols:
        det = _from_sympy(Q, dm.det())
        assert m.det() == det
        if det == 0:
            with pytest.raises(NotInvertibleError):
                m.inverse()
        else:
            assert m.inverse().rows == _rows(Q, dm.inv())


@pytest.mark.parametrize("kind", ("dense", "holed", "deficient"))
def test_mixed_denominators_agree_with_sympy(kind):
    rng = random.Random("mixed-denominators-%s" % kind)
    for t in range(40):
        r = rng.randint(1, 8)
        c = r if t % 2 else rng.randint(1, 8)
        m = _mixed_matrix(rng, kind, r, c)
        _assert_elimination_agrees(m)
        # both factors fractional, the right one with zero rows or columns
        other = _mixed_matrix(rng, rng.choice(("dense", "holed")), c, rng.randint(1, 5))
        _assert_product_agrees(m, other)
        _assert_product_agrees(other.transpose(), m.transpose())
    _assert_elimination_agrees(zeros(Q, 3, 4))
    _assert_elimination_agrees(zeros(Q, 3, 3))


def test_hilbert_matrix_agrees_with_sympy():
    n = 10
    h = Matrix(Q, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    _assert_elimination_agrees(h)
    red, piv = rref(h)
    assert piv == tuple(range(n)) and red == Matrix.identity(Q, n)
    # det H_n = c_n^4 / c_2n, c_n = 1! 2! ... (n-1)! (Hilbert 1894)
    c = [prod(factorial(i) for i in range(1, k)) for k in (n, 2 * n)]
    assert h.det() == Fraction(c[0] ** 4, c[1])
    inv = h.inverse()
    assert all(x.denominator == 1 for r in inv.rows for x in r)
    assert h @ inv == Matrix.identity(Q, n)
    _assert_product_agrees(h, h)
    # a singular 11 x 10 stack of Hilbert rows and their fractional half-sums
    mixed = Matrix(Q, [*h.rows, [(x + y) / 2 for x, y in zip(h.rows[0], h.rows[9])]])
    _assert_product_agrees(mixed, h)
    assert rank(mixed) == n and rank(mixed.transpose()) == n
