"""Exact linear algebra: RREF, kernels, images, complements,
eigenspaces, characteristic polynomials and root splitting.

Matrices are tuples of tuples of field scalars (see fields.Field) and are
immutable after construction.  Subspaces are stored by their reduced
row-echelon basis, so equal subspaces compare identically and every
downstream choice (complements, quotient coordinates, representative
bases) is deterministic.

Coercion happens only at the input boundary: `Matrix(field, rows)`,
`Subspace(field, ambient, rows)` and the vectors handed to `Matrix.apply`,
`Subspace.coordinates` and `solve` go through `Field.coerce`, once per
entry.  Each of these has a trusted twin that takes canonical entries (an
int in [0, p) over F_p, a Fraction over Q) and checks nothing:
`Matrix._of`, `Subspace._of`, `Matrix._apply` and `Subspace._coordinates`
(and, in the oracle, `CochainTwo._of` for `CochainTwo.from_flat`).  The
public form coerces and checks lengths, then calls its twin.  Every matrix
this module derives, and the matrices the oracle and group-action builders
assemble, go through `Matrix._of`; `restricted_matrix` and
`quotient_matrix` apply a matrix to RREF basis rows through the trusted
twins; `representative_basis` turns kernel rows into cochains through
`CochainTwo._of`; and `reduce_to_representative` coerces its cochain once
on entry and works on canonical vectors from there.  `+`, `-`, `@`,
`stack` and `augment` check once per call that both operands are over the
same field, so entries of two fields never mix.
The loops below do their arithmetic inline on those entries, with no
`Field` method dispatch: over F_p on plain ints with one `% p` per result
entry; over Q the elimination and the product run on ints too (below),
and the rest uses the Fraction operators.

There is one elimination loop, `_eliminate` (Gauss-Jordan).  For each
pivot it collects the pivot row's nonzero columns once and updates only
those entries in the rows with a nonzero in the pivot column; the
oracle's cocycle matrices are mostly zeros.  The pivot is the first row,
from the current one down, with a nonzero in the pivot column, and its
nonzeros spread to every row it updates, so a builder lists its sparse
rows first and builds no all-zero row (each would only be scanned at
every pivot column).  `rref` returns the rows and pivot columns it
leaves, and `Matrix.det` takes the determinant it returns for a square
matrix.

- Over F_p the rows are updated in place, each pivot row is scaled to 1,
  and det is (-1)^swaps times the product of the pivots met.
- Over Q the loop is fraction-free (Bareiss 1968 is the textbook form).
  Each row is multiplied by the lcm of its denominators and divided by the
  gcd of the resulting ints (its content), so it starts as a primitive
  integer row.  A pivot row with a negative pivot is negated.  With pivot
  pv and x in the pivot column of another row, g = gcd(pv, x), that row
  becomes (pv/g) row - (x/g) pivot row and is divided by its content
  again; a zero row has content 0 and is left as it is.  At the end each
  pivot row is divided by its pivot once, and every row is written back
  as canonical Fractions with one shared zero.  The RREF is unique, so
  the rows and pivots are those of plain Fraction Gauss-Jordan.
- The working rows of the Q loop are multiplied by the row lcms, the
  negations and the multipliers pv/g, and divided by the contents, each
  of which the loop records.  They end diagonal when the matrix is square
  and invertible, so det = (-1)^swaps * (product of the final pivots) *
  (contents) / (lcms, negations, multipliers).

The product `a @ b` is row-sparse for the same reason: it lists the nonzero
(column, value) pairs of each row of b once, and builds row t of the
product from the nonzeros of row t of a alone, reducing each output entry
once.  Over Q it first clears b by one common denominator db and each row
of a by its own da, accumulates on ints and builds one Fraction (over
da * db) per nonzero output entry.  `_dot` serves `char_poly`, and
`Matrix.apply` over Q; over F_p a dot product is `sum(map(mul, a, b)) % p`,
the products and their sum in C and one reduction.

The Q loops read the Fraction slots `_numerator` and `_denominator`
rather than the public `numerator` and `denominator` properties: a slot
read costs about a quarter of the property call.  Both slots exist in
every CPython `fractions.Fraction` the package supports (3.10 onwards).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from .fields import Field, NotInvertibleError, Scalar

Vector = Tuple[Scalar, ...]


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Sequence], ncols: int | None = None):
        rs = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if ncols is None:
            if not rs:
                raise ValueError("empty matrix needs explicit ncols")
            ncols = len(rs[0])
        for r in rs:
            if len(r) != ncols:
                raise ValueError("ragged rows: a row of length %d in a matrix of %d columns"
                                 % (len(r), ncols))
        self._set(field, rs, ncols)

    @classmethod
    def _of(cls, field: Field, rows: Iterable[Sequence], ncols: int) -> "Matrix":
        """Trusted constructor: the entries are already canonical field
        elements and every row has ncols entries; nothing is checked."""
        m = object.__new__(cls)
        m._set(field, tuple(map(tuple, rows)), ncols)
        return m

    def _set(self, field: Field, rows: Tuple[Vector, ...], ncols: int) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return Matrix._of(field, [[one if i == j else zero for j in range(n)]
                                  for i in range(n)], n)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        return "Matrix(%r, %d x %d)" % (self.field, self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def _reduced(self, rows, ncols: int | None = None) -> "Matrix":
        """A matrix over this field, of this shape or with ncols columns,
        from exact sums and products of canonical entries, brought back into
        [0, p) over F_p."""
        p = self.field.p
        if p is not None:
            rows = ([x % p for x in r] for r in rows)
        return Matrix._of(self.field, rows, self.ncols if ncols is None else ncols)

    def _operand(self, other: "Matrix", op: str, shapes_fit: bool) -> None:
        """Raise ValueError unless other is over the same field and
        shapes_fit; checked once per operation, not per entry."""
        if self.field != other.field:
            raise ValueError("field mismatch %r %s %r" % (self.field, op, other.field))
        if not shapes_fit:
            raise ValueError("shape mismatch %dx%d %s %dx%d"
                             % (self.nrows, self.ncols, op, other.nrows, other.ncols))

    def _same_shape(self, other: "Matrix", op: str) -> None:
        self._operand(other, op, (self.nrows, self.ncols) == (other.nrows, other.ncols))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other, "+")
        return self._reduced([a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other, "-")
        return self._reduced([a - b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.rows, other.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._operand(other, "@", self.ncols == other.nrows)
        p = self.field.p
        out = []
        if p is None:
            # b over one common denominator db, each row of a over its own da
            db = lcm(*[y._denominator for row in other.rows for y in row])
            nz = [[(j, y._numerator * (db // y._denominator)) for j, y in enumerate(row)
                   if y._numerator] for row in other.rows]
            zero = Fraction(0)
            for r in self.rows:
                da = lcm(*[x._denominator for x in r])
                acc = [0] * other.ncols
                for x, terms in zip(r, nz):
                    if x._numerator:
                        x = x._numerator * (da // x._denominator)
                        for j, y in terms:
                            acc[j] += x * y
                d = da * db
                out.append([Fraction(v, d) if v else zero for v in acc])
        else:
            nz = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
            for r in self.rows:
                acc = [0] * other.ncols
                for x, terms in zip(r, nz):
                    if x:
                        for j, y in terms:
                            acc[j] += x * y
                out.append([v % p for v in acc])
        return Matrix._of(self.field, out, other.ncols)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector, returned as a tuple."""
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return self._apply(v)

    def _apply(self, v: Sequence) -> Vector:
        """Trusted `apply`: v holds ncols canonical scalars; nothing is checked."""
        p = self.field.p
        if p is None:
            return tuple(_dot(self.field, r, v) for r in self.rows)
        return tuple(sum(map(mul, r, v)) % p for r in self.rows)

    def transpose(self) -> "Matrix":
        cols = zip(*self.rows) if self.rows else [()] * self.ncols
        return Matrix._of(self.field, cols, self.nrows)

    def stack(self, other: "Matrix") -> "Matrix":
        self._operand(other, "stack", self.ncols == other.ncols)
        return Matrix._of(self.field, self.rows + other.rows, self.ncols)

    def augment(self, other: "Matrix") -> "Matrix":
        self._operand(other, "augment", self.nrows == other.nrows)
        return Matrix._of(self.field, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                          self.ncols + other.ncols)

    def inverse(self) -> "Matrix":
        """Nothing in the package inverts a matrix; the benchmark's tracer
        binds this method by name."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        aug = self.augment(Matrix.identity(self.field, n))
        red, piv = rref(aug)
        if list(piv[:n]) != list(range(n)) or len(piv) != n:
            raise NotInvertibleError("matrix is singular")
        return Matrix._of(self.field, [r[n:] for r in red.rows], n)

    def det(self) -> Scalar:
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        return _eliminate(self.field, [list(r) for r in self.rows], n)[1]


def _dot(f: Field, a: Sequence, b: Sequence) -> Scalar:
    """sum a[k] b[k]: over F_p one C-level sum of products and one % p,
    over Q a Fraction sum that skips the zeros of a."""
    if f.p is None:
        return sum((x * y for x, y in zip(a, b) if x), f.zero())
    return sum(map(mul, a, b)) % f.p


def _eliminate(f: Field, rows: List[list], ncols: int) -> Tuple[Tuple[int, ...], Scalar]:
    """Gauss-Jordan elimination of `rows` (lists of canonical scalars),
    leaving them in reduced row echelon form (over Q each row is replaced by
    a new list).  Returns the pivot columns and, when the rows form a square
    matrix, its determinant (zero if it is singular).  The first candidate
    row becomes the pivot, so callers list sparse rows first and build no
    all-zero rows.

    Over Q the loop runs on integer rows (module docstring); `up` and
    `down` record the factors the working rows were multiplied and divided
    by, for the determinant."""
    p = f.p
    nrows = len(rows)
    if p is None:
        up: List[int] = []
        down: List[int] = []
        for i, row in enumerate(rows):
            m = lcm(*[x._denominator for x in row])
            ints = [x._numerator * (m // x._denominator) for x in row] if m > 1 \
                else [x._numerator for x in row]
            g = gcd(*ints)
            if g > 1:
                ints = [y // g for y in ints]
                down.append(g)
            up.append(m)
            rows[i] = ints
    pivots: List[int] = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            det = -det
        prow = rows[r]
        pv = prow[c]
        # left of c the pivot row is zero; only its nonzero columns change
        if p is None:
            if pv < 0:
                prow = rows[r] = [-y for y in prow]
                pv = -pv
                up.append(-1)
            nz = [(j, prow[j]) for j in range(c + 1, ncols) if prow[j]]
            for i, row in enumerate(rows):
                x = row[c]
                if x and i != r:
                    # row <- (pv/g) row - (x/g) prow, then over its content
                    g = gcd(pv, x)
                    a = pv // g
                    if a != 1:
                        row = [a * y for y in row]
                        up.append(a)
                    x //= g
                    row[c] = 0
                    for j, y in nz:
                        row[j] -= x * y
                    g = gcd(*row)
                    if g > 1:
                        row = [y // g for y in row]
                        down.append(g)
                    rows[i] = row
        else:
            det = det * pv % p
            prow[c] = 1
            inv = pow(pv, -1, p)
            nz = [(j, prow[j] * inv % p) for j in range(c + 1, ncols) if prow[j]]
            for j, y in nz:
                prow[j] = y
            for i, row in enumerate(rows):
                x = row[c]
                if x and i != r:
                    row[c] = 0
                    for j, y in nz:
                        row[j] = (row[j] - x * y) % p
        pivots.append(c)
        r += 1
    invertible = nrows == ncols and len(pivots) == ncols
    if p is None:
        # each pivot row over its pivot, as canonical Fractions
        zero, one = Fraction(0), Fraction(1)
        for k, c in enumerate(pivots):
            row = rows[k]
            d = row[c]
            det *= d
            row = [Fraction(y, d) if y else zero for y in row] if d != 1 \
                else [Fraction(y) if y else zero for y in row]
            row[c] = one
            rows[k] = row
        for k in range(len(pivots), nrows):
            rows[k] = [zero] * ncols
        return tuple(pivots), Fraction(det * prod(down), prod(up)) if invertible else zero
    return tuple(pivots), det if invertible else 0


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    rows = [list(r) for r in m.rows]
    pivots, _ = _eliminate(m.field, rows, m.ncols)
    for i, r in enumerate(rows):      # one row at a time, so only one copy is live
        rows[i] = tuple(r)
    return Matrix._of(m.field, rows, m.ncols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


class Subspace:
    """A subspace of F^n held by its RREF basis (rows = basis vectors) and
    the basis's pivot columns."""

    __slots__ = ("field", "ambient", "basis", "dim", "_pivots")

    def __init__(self, field: Field, ambient: int, spanning_rows: Iterable[Sequence] = ()):
        self._span(Matrix(field, spanning_rows, ncols=ambient))

    @classmethod
    def _of(cls, field: Field, ambient: int, rows: Sequence[Sequence]) -> "Subspace":
        """The span of rows whose entries are already canonical (see Matrix._of)."""
        s = object.__new__(cls)
        s._span(Matrix._of(field, rows, ambient))
        return s

    def _span(self, m: Matrix) -> None:
        if m.nrows:
            red, piv = rref(m)
            basis = Matrix._of(m.field, red.rows[:len(piv)], m.ncols)
        else:
            basis, piv = m, ()
        self._set(basis, piv)

    def _set(self, basis: Matrix, pivots: Tuple[int, ...]) -> None:
        """Hold basis, which must be in RREF with these pivot columns."""
        object.__setattr__(self, "field", basis.field)
        object.__setattr__(self, "ambient", basis.ncols)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", basis.nrows)
        object.__setattr__(self, "_pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of F^%d)" % (self.dim, self.ambient)

    def basis_rows(self) -> Tuple[Vector, ...]:
        return self.basis.rows

    def contains(self, v: Sequence) -> bool:
        return not any(self.coordinates(v)[1])

    def coordinates(self, v: Sequence) -> Tuple[List[Scalar], List[Scalar]]:
        """(a, q) with v = sum_r a[r] basis[r] + sum_j q[j] e_j, where e_j
        runs over the standard basis vectors at the non-pivot columns (the
        complement).  q is read off v reduced against the RREF basis, so v
        lies in the subspace iff q is zero, and q gives the coordinates on
        F^ambient / self."""
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        return self._coordinates(v)

    def _coordinates(self, v: Sequence) -> Tuple[List[Scalar], List[Scalar]]:
        """Trusted `coordinates`: v holds ambient canonical scalars; nothing
        is checked."""
        p = self.field.p
        a = []
        # reduce v against the RREF basis, one pivot column at a time
        for brow, c in zip(self.basis.rows, self._pivots):
            x = v[c]
            a.append(x)
            if x:
                v = [y - x * b for y, b in zip(v, brow)]
                if p is not None:
                    v = [y % p for y in v]
        pivset = set(self._pivots)
        return a, [y for j, y in enumerate(v) if j not in pivset]

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.rows)

    def complement(self) -> "Subspace":
        """Pivot-completion complement: standard basis vectors at non-pivot
        columns.  They are already an RREF basis, pivoting at those columns,
        so nothing is eliminated."""
        pivset = set(self._pivots)
        free = tuple(j for j in range(self.ambient) if j not in pivset)
        unit = Matrix.identity(self.field, self.ambient).rows
        s = object.__new__(Subspace)
        s._set(Matrix._of(self.field, [unit[j] for j in free], self.ambient), free)
        return s


def kernel_basis(m: Matrix) -> Subspace:
    """Solution space of m v = 0."""
    f = m.field
    p = f.p
    red, piv = rref(m)
    pivset = set(piv)
    zero, one = f.zero(), f.one()
    rows = []
    for j in range(m.ncols):
        if j in pivset:
            continue
        v = [zero] * m.ncols
        v[j] = one
        for r, c in enumerate(piv):
            x = red.rows[r][j]
            v[c] = -x if p is None else -x % p
        rows.append(v)
    return Subspace._of(f, m.ncols, rows)


def image_basis(m: Matrix) -> Subspace:
    """Column space of m."""
    return Subspace._of(m.field, m.nrows, m.transpose().rows)


def eigenspace(m: Matrix, c) -> Subspace:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    c = m.field.coerce(c)
    return kernel_basis(m._reduced([x - c if i == j else x for j, x in enumerate(r)]
                                   for i, r in enumerate(m.rows)))


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One solution of m x = b, or None if inconsistent."""
    f = m.field
    bcol = Matrix(f, [[x] for x in b], ncols=1)
    red, piv = rref(m.augment(bcol))
    if m.ncols in piv:
        return None
    x = [f.zero()] * m.ncols
    for r, c in enumerate(piv):
        x[c] = red.rows[r][m.ncols]
    return tuple(x)


def char_poly(m: Matrix) -> Tuple[Scalar, ...]:
    """Coefficients (low to high) of det(x*I - m), by Berkowitz's
    division-free algorithm (Berkowitz 1984): O(n^4) and valid in any
    characteristic.  Split m as [[a, r], [c, t]] with a scalar a and the
    trailing block t of size k.  High to low, the coefficients of
    det(x*I - m) are T times those of det(x*I - t), where T is the
    lower-triangular Toeplitz matrix with first column
    1, -a, -r c, -r t c, ..., -r t^(k-1) c.  The loop applies this from the
    last diagonal entry up."""
    f = m.field
    n = m.nrows
    if n != m.ncols:
        raise ValueError("not square")
    a = m.rows
    poly = [f.one()]
    for k in range(n - 1, -1, -1):
        tail = [row[k + 1:] for row in a[k + 1:]]
        r, v = a[k][k + 1:], [row[k] for row in a[k + 1:]]
        col = [f.one(), -a[k][k]]
        for _ in range(n - 1 - k):
            col.append(-_dot(f, r, v))
            v = [_dot(f, row, v) for row in tail]
        poly = [_dot(f, col[i::-1], poly) for i in range(len(col))]
    return tuple(reversed(poly))


def poly_splits(field: Field, coeffs: Sequence[Scalar]) -> bool:
    """Whether the polynomial with the given coefficients (low to high)
    factors into linear factors over the field.

    Over F_p, g = gcd(f, x^p - x) is the product of the distinct linear
    factors of f, and f/g splits iff f does.  So dividing f by such gcds
    either reaches a constant (f splits) or meets g = 1 first (what is left
    has no root in F_p).  There
    are at most deg f rounds, and x^p mod f comes from repeated squaring,
    so a round costs O(deg(f)^2 log p).  Over Q only +-1 need checking here
    (callers only pass characteristic polynomials of finite-order matrices,
    whose rational eigenvalues are +-1)."""
    f = field
    coeffs = [f.coerce(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) == 1:
        return True
    p = f.p
    if p is not None:
        inv = pow(coeffs[-1], -1, p)
        poly = [c * inv % p for c in coeffs]
        while len(poly) > 1:
            h = _xpow_mod(p, poly)
            h += [0] * (2 - len(h))
            h[1] = (h[1] - 1) % p
            g = _poly_gcd(p, poly, _poly_trim(h))
            if len(g) == 1:
                return False
            poly = _poly_divmod(p, poly, g)[0]
        return True
    for root in (1, -1):
        while len(coeffs) > 1:
            # synthetic division by (x - root), coefficients low to high
            quot = [f.zero()] * (len(coeffs) - 1)
            quot[-1] = coeffs[-1]
            for i in range(len(coeffs) - 2, 0, -1):
                quot[i - 1] = coeffs[i] + root * quot[i]
            remainder = coeffs[0] + root * quot[0]
            if remainder == 0:
                coeffs = quot
            else:
                break
    return len(coeffs) == 1


# Polynomials over F_p for poly_splits: int lists, low to high, with no
# trailing zeros (the zero polynomial is []).

def _poly_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(p: int, a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of a by a nonzero b."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + len(b) - 1] * inv % p
        quot[shift] = c
        if c:
            for i, y in enumerate(b):
                rem[shift + i] = (rem[shift + i] - c * y) % p
    return _poly_trim(quot), _poly_trim(rem[:len(b) - 1])


def _poly_gcd(p: int, a: List[int], b: List[int]) -> List[int]:
    """The monic gcd of a nonzero a and any b."""
    while b:
        a, b = b, _poly_divmod(p, a, b)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _xpow_mod(p: int, m: List[int]) -> List[int]:
    """x^p mod m, for m of degree >= 1, by repeated squaring."""
    r = [1]
    for bit in bin(p)[2:]:
        sq = [0] * (2 * len(r) - 1)
        for i, x in enumerate(r):
            if x:
                for j, y in enumerate(r):
                    sq[i + j] += x * y
        if bit == "1":
            sq.insert(0, 0)
        r = _poly_divmod(p, [c % p for c in sq], m)[1]
    return r
