"""Exact linear algebra: RREF, kernels, images, complements,
eigenspaces, characteristic polynomials and root splitting.

Nothing in the package calls `char_poly` or `poly_splits` (the `formula`
docstring reads the split condition off |G| and p); the benchmark's tracer
binds both by name, and the tests read "splits" through them.

Matrices are tuples of tuples of field scalars (see fields.Field) and are
immutable after construction.  Subspaces are stored by their reduced
row-echelon basis, so equal subspaces compare identically and every
downstream choice (complements, quotient coordinates, representative
bases) is deterministic.

Coercion happens only at the input boundary: `Matrix(field, rows)` and
the vectors handed to `Matrix.apply` and `Subspace.contains` go through
`Field.coerce`, once per entry.  Each has a trusted twin that takes
canonical entries (an int in [0, p) over F_p, a Fraction over Q) and
checks nothing: `Matrix._of`, `Matrix._apply` and
`Subspace._coordinates` (and the oracle's `CochainTwo._of`);
`Subspace.contains_space` reads the other space's canonical basis rows
through `_coordinates`, with no coercion.  Every
matrix this module and the group-action builders derive goes through
`Matrix._of`.  The one `Subspace` constructor trusts its RREF basis and
pivots; `image_basis` eliminates a spanning set into them, and
`kernel_basis` reads them off its one elimination (below).  The oracle
builds, guards and eliminates each per-element complex as plain row lists
of ints, over Q as well (the `oracle` docstring says how it clears the
denominators), through `_product` and `_eliminate`, and wraps in
`Matrix._of` only what a caller keeps.  `@`, the one operation on two
matrices, checks once per call that both operands are over the same
field, so entries of two fields never mix.

A matrix minus a scalar, m - c I, has one builder, `minus_scalar`, which
takes a canonical c and rewrites only the diagonal.  The eigenspaces,
`chi_invariants`, the fixed and moved spaces of h (read from h - 1, which
has the kernel, image, rank and square of 1 - h) and the oracle's h - 1
all come from it; the oracle negates h - 1 once for 1 - h.
The loops below do their arithmetic inline, with no `Field` method
dispatch: over F_p on the canonical ints with one `% p` per result entry,
over Q on ints that a Fraction caller clears its rows to first (below);
the rest uses the Fraction operators.

There is one elimination loop, `_eliminate` (Gauss-Jordan).  It visits
the pivot columns in a given order, by default left to right.  For each
pivot it collects the pivot row's nonzero columns among those still to
visit once (at the columns already visited every candidate row is zero)
and updates only those entries in the rows with a nonzero in the pivot
column; the oracle's cocycle matrices are mostly zeros.  The pivot is the
first row, from the current one down, with a nonzero in the pivot column,
and its nonzeros spread to every row it updates, so a builder lists its
sparse rows first and builds no all-zero row (each would only be scanned
at every pivot column).

The caller says how many leading columns of the visit order it reads.  A
pivot among them clears its column in every row; a later pivot only in
the rows below it, which finds the same pivots with less work.  The rows
that pivot among the read columns come first and are RREF rows there:
- `rref`, `kernel_basis`, `solve` (through `rref`) and `Matrix.det` read
  every column, and get the whole RREF;
- the oracle's `representative_basis` reads the coordinates outside the
  distinguished cut, which it visits first, and only the rows that pivot
  there;
- the oracle's `per_element_cohomology`, and its rank b of the coboundary
  rows, read none: no row is reduced above its pivot.

- Over F_p the rows are updated in place, each pivot row is scaled to 1,
  and det is (-1)^swaps times the product of the pivots met.
- Over Q the rows that enter are lists of ints.  A Fraction caller
  (`rref`, `kernel_basis`, `Matrix.det`) first makes them with
  `_working_rows`: each row is multiplied by the lcm of its denominators
  and divided by the gcd of the resulting ints (its content), so it
  starts as a primitive integer row.  The loop is fraction-free (Bareiss
  1968 is the textbook form).  A pivot row with a negative pivot is
  negated.  With pivot pv and x in the pivot column of another row,
  g = gcd(pv, x), that row becomes (pv/g) row - (x/g) pivot row and is
  divided by its content again; a zero row has content 0 and is left as
  it is.  At the end only the rows that pivot among the read columns are
  divided by their pivots and written back as canonical Fractions (with
  one shared zero), and, when every column is read, the rest become zero
  rows.  The RREF is unique, so those rows and the pivots are those of
  plain Fraction Gauss-Jordan; a rank writes back nothing.
- The working rows of the Q loop are multiplied by the row lcms, the
  negations and the multipliers pv/g, and divided by the contents, each
  of which `_working_rows` and the loop record.  They end diagonal, or
  triangular when only some columns are read, when the matrix is square
  and invertible, so det = (-1)^swaps * (product of the final pivots) *
  (contents) / (lcms, negations, multipliers).

The product `_product(a, b, ncols, p)` of row lists of ints, which `a @ b`
wraps after its operand check, is row-sparse for the same reason: it lists
the nonzero (column, value) pairs of each row of b once, and builds row t
of the product from the nonzeros of row t of a alone, reducing each output
entry mod p once over F_p.  The nonzero columns of a row of a come from
`itertools.compress(range(ncols), row)`, so its zeros are skipped in C, not
by a Python test per entry.  The oracle calls it on its integer rows.

A Fraction matrix reaches the integer loops through one pair of helpers.
`_int_rows(m)` gives m's rows as ints over one common denominator d, the
lcm of m's denominators; over F_p it returns m.rows itself, uncopied, with
d = 1.  `_of_ints(f, rows, d, ncols)` gives the matrix of int rows over d:
over Q one canonical Fraction per nonzero entry and one shared zero, over
F_p the rows as they are, which the caller reduced into [0, p) with one
`% p` per entry as it made them.  Over Q `@` takes a over da and b over
db, runs `_product` on them and hands the result to `_of_ints` over
da * db (over F_p it runs `_product` on the rows as they are); the
group layer's `wedge2_matrix`, `kron`, transfer sum, `quotient_matrix` and
`restricted_matrix` use the same pair (the `group_action` docstring).
`_dot` is the one dot product, for `char_poly` and `Matrix.apply`; over
F_p it is `sum(map(mul, a, b)) % p`, the products and their sum in C and
one reduction.

`_kernel_rows` is the one reader of kernel vectors.  Read off an
elimination that ran right to left they are already the RREF basis (its
docstring says why), so `kernel_basis` is one descending elimination and
no second, and the oracle's `representative_basis` reads the
distinguished representatives off the conditions' one elimination.

`solve` takes the augmented matrix [m | b] and reads two things off its
one `rref`: a solution of m x = b (zero at the free columns), or None when
b adds a pivot, and the kernel of m, one vector per free column of m, read
by `_kernel_rows` over m's columns.  The elimination runs left to right,
so the vectors are a basis of the kernel but not its RREF basis, and no
`Subspace` is built.  A caller that needs both (the oracle's reduction)
pays one elimination.

The Q loops read the Fraction slots `_numerator` and `_denominator`
rather than the public `numerator` and `denominator` properties: a slot
read costs about a quarter of the property call.  Both slots exist in
every CPython `fractions.Fraction` the package supports (3.10 onwards).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
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

    def __matmul__(self, other: "Matrix") -> "Matrix":
        # checked once per product, not per entry
        if self.field != other.field:
            raise ValueError("field mismatch %r @ %r" % (self.field, other.field))
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        f, ncols = self.field, other.ncols
        if f.p is not None:         # the power tables' hot path: no helper calls
            return Matrix._of(f, _product(self.rows, other.rows, ncols, f.p), ncols)
        a, da = _int_rows(self)
        b, db = _int_rows(other)
        return _of_ints(f, _product(a, b, ncols), da * db, ncols)

    def apply(self, v: Sequence) -> Vector:
        """Matrix times column vector, returned as a tuple."""
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return self._apply(v)

    def _apply(self, v: Sequence) -> Vector:
        """Trusted `apply`: v holds ncols canonical scalars; nothing is checked."""
        return tuple(_dot(self.field, r, v) for r in self.rows)

    def transpose(self) -> "Matrix":
        cols = zip(*self.rows) if self.rows else [()] * self.ncols
        return Matrix._of(self.field, cols, self.nrows)

    def inverse(self) -> "Matrix":
        """Read off the RREF of [self | I].  Nothing in the package inverts
        a matrix; the benchmark's tracer binds this method by name."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        unit = Matrix.identity(self.field, n).rows
        red, piv = rref(Matrix._of(self.field, [r + u for r, u in zip(self.rows, unit)], 2 * n))
        if list(piv[:n]) != list(range(n)) or len(piv) != n:
            raise NotInvertibleError("matrix is singular")
        return Matrix._of(self.field, [r[n:] for r in red.rows], n)

    def det(self) -> Scalar:
        n = self.nrows
        if n != self.ncols:
            raise ValueError("not square")
        up: List[int] = []
        down: List[int] = []
        det = _eliminate(self.field, _working_rows(self, up, down), n)[1]
        return det * Fraction(prod(down), prod(up)) if up else det


def _dot(f: Field, a: Sequence, b: Sequence) -> Scalar:
    """sum a[k] b[k]: over F_p one C-level sum of products and one % p,
    over Q a Fraction sum that skips the zeros of a."""
    if f.p is None:
        return sum((x * y for x, y in zip(a, b) if x), f.zero())
    return sum(map(mul, a, b)) % f.p


def _product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], ncols: int,
             p: int | None = None) -> List[List[int]]:
    """The rows of a b for row lists of ints, len(b) columns in a and ncols
    in b, each entry reduced mod p when p is given; nothing is checked
    (`@` checks)."""
    nz = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    cols = range(len(b))
    out = []
    for r in a:
        acc = [0] * ncols
        for k in compress(cols, r):
            x = r[k]
            for j, y in nz[k]:
                acc[j] += x * y
        out.append(acc if p is None else [v % p for v in acc])
    return out


def _numerators(row: Sequence[Fraction], d: int) -> List[int]:
    """The integer row d * row, for a d that every denominator of the row
    divides, read through the Fraction slots."""
    if d == 1:
        return [x._numerator for x in row]
    return [x._numerator * (d // x._denominator) for x in row]


def _int_rows(m: Matrix) -> Tuple[Sequence[Sequence[int]], int]:
    """(rows, d): m's rows as ints over one common denominator d.  Over F_p
    they are m.rows itself, uncopied, and d = 1; over Q d is the lcm of
    every denominator of m and the rows are new lists, d times m's."""
    if m.field.p is not None:
        return m.rows, 1
    d = lcm(*{x._denominator for row in m.rows for x in row})
    return [_numerators(row, d) for row in m.rows], d


def _of_ints(f: Field, rows: Iterable[Sequence[int]], d: int, ncols: int) -> Matrix:
    """The matrix of int rows over the denominator d, ncols columns: over
    F_p the rows themselves, which the caller reduced into [0, p) (d is 1);
    over Q one canonical Fraction v/d per nonzero v and one shared zero."""
    if f.p is None:
        zero = Fraction(0)
        if d == 1:
            rows = [[Fraction(v) if v else zero for v in row] for row in rows]
        else:
            rows = [[Fraction(v, d) if v else zero for v in row] for row in rows]
    return Matrix._of(f, rows, ncols)


def _working_rows(m: Matrix, up: List[int] | None = None,
                  down: List[int] | None = None) -> List[list]:
    """The rows of m as `_eliminate` takes them, as new lists: m's entries
    over F_p; over Q each row times the lcm of its denominators and over
    the gcd of the resulting ints (its content), a primitive integer row,
    with the lcm appended to `up` and the content to `down` when they are
    given (for the determinant)."""
    if m.field.p is not None:
        return [list(r) for r in m.rows]
    out = []
    for row in m.rows:
        d = lcm(*{x._denominator for x in row})
        ints = _numerators(row, d)
        g = gcd(*ints)
        if g > 1:
            ints = [y // g for y in ints]
        if up is not None:
            up.append(d)
            down.append(g or 1)
        out.append(ints)
    return out


def _eliminate(f: Field, rows: List[list], ncols: int, order: Sequence[int] | None = None,
               reduced: int | None = None) -> Tuple[Tuple[int, ...], Scalar]:
    """Gauss-Jordan elimination of `rows` (over F_p lists of canonical ints,
    over Q lists of ints), visiting the pivot columns in `order`, a
    permutation of range(ncols) (by default range(ncols) itself).  Returns
    the pivot columns in visit order, row k pivoting at the k-th, and, when
    the rows form a square matrix, its determinant with the columns taken
    in `order` (zero if it is singular).  The first candidate row becomes
    the pivot, so callers list sparse rows first and build no all-zero rows.

    The caller reads the rows at the first `reduced` columns of the visit
    order (by default at every column).  A pivot among those clears its
    column in every other row, a later one only in the rows below it, and
    the pivots are the same either way.  The rows that pivot among those
    columns come first, and there they are the rows of the reduced row
    echelon form with respect to the order: over F_p in place, over Q
    written back as new lists of canonical Fractions.  When every column is
    read the rows after the pivot rows are zero rows of the field; the rest
    of the rows are left as they are, unread (reduced = 0 is a rank).

    Over Q (module docstring) `up` and `down` record the factors the
    working rows were multiplied and divided by, for the determinant."""
    p = f.p
    nrows = len(rows)
    if reduced is None:
        reduced = ncols
    up: List[int] = []
    down: List[int] = []
    pivots: List[int] = []
    det = 1
    read = 0                # the rows that pivot among the read columns
    r = 0
    for k, c in enumerate(range(ncols) if order is None else order):
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
        # at the columns already visited the pivot row is zero; only its
        # nonzero columns among those still to visit change
        later = range(c + 1, ncols) if order is None else order[k + 1:]
        if k < reduced:
            targets = range(nrows)
            read += 1
        else:
            targets = range(r + 1, nrows)
        if p is None:
            if pv < 0:
                prow = rows[r] = [-y for y in prow]
                pv = -pv
                up.append(-1)
            nz = [(j, prow[j]) for j in later if prow[j]]
            for i in targets:
                row = rows[i]
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
            nz = [(j, prow[j] * inv % p) for j in later if prow[j]]
            for j, y in nz:
                prow[j] = y
            for i in targets:
                row = rows[i]
                x = row[c]
                if x and i != r:
                    row[c] = 0
                    for j, y in nz:
                        row[j] = (row[j] - x * y) % p
        pivots.append(c)
        r += 1
    invertible = nrows == ncols and len(pivots) == ncols
    if p is None:
        zero, one = Fraction(0), Fraction(1)
        if invertible:
            det = Fraction(det * prod(rows[k][c] for k, c in enumerate(pivots)) * prod(down),
                           prod(up))
        # each row the caller reads over its pivot, as canonical Fractions
        for k in range(read):
            row = rows[k]
            d = row[pivots[k]]
            row = [Fraction(y, d) if y else zero for y in row] if d != 1 \
                else [Fraction(y) if y else zero for y in row]
            row[pivots[k]] = one
            rows[k] = row
        if reduced == ncols:
            for k in range(len(pivots), nrows):
                rows[k] = [zero] * ncols
        return tuple(pivots), det if invertible else zero
    return tuple(pivots), det if invertible else 0


def rref(m: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns."""
    rows = _working_rows(m)
    pivots, _ = _eliminate(m.field, rows, m.ncols)
    for i, r in enumerate(rows):      # one row at a time, so only one copy is live
        rows[i] = tuple(r)
    return Matrix._of(m.field, rows, m.ncols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


class Subspace:
    """A subspace of F^n held by its RREF basis (rows = basis vectors) and
    the basis's pivot columns.  The constructor trusts both; `image_basis`
    eliminates a spanning set into them, and `kernel_basis` reads them off
    its one elimination."""

    __slots__ = ("field", "ambient", "basis", "dim", "_pivots")

    def __init__(self, basis: Matrix, pivots: Tuple[int, ...]):
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

    def contains(self, v: Sequence) -> bool:
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        return not any(self._coordinates(v)[1])

    def _coordinates(self, v: Sequence) -> Tuple[List[Scalar], List[Scalar]]:
        """(a, q) with v = sum_r a[r] basis[r] + sum_j q[j] e_j, where e_j
        runs over the standard basis vectors at the non-pivot columns (the
        complement).  q is read off v reduced against the RREF basis, so v
        lies in the subspace iff q is zero, and q gives the coordinates on
        F^ambient / self.  v holds ambient canonical scalars; nothing is
        checked."""
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
        """Whether other lies in self.  other's RREF rows are canonical, so
        they go through the trusted `_coordinates` with no coercion."""
        if other.field != self.field or other.ambient != self.ambient:
            raise ValueError("a subspace of F^%d over %r is not one of F^%d over %r"
                             % (other.ambient, other.field, self.ambient, self.field))
        return not any(any(self._coordinates(r)[1]) for r in other.basis.rows)

    def complement(self) -> "Subspace":
        """Pivot-completion complement: standard basis vectors at non-pivot
        columns.  They are already an RREF basis, pivoting at those columns,
        so nothing is eliminated."""
        n, f = self.ambient, self.field
        pivset = set(self._pivots)
        free = tuple(j for j in range(n) if j not in pivset)
        zero = (f.zero(),) * n
        one = (f.one(),)
        return Subspace(Matrix._of(f, [zero[:j] + one + zero[j + 1:] for j in free], n), free)


def _kernel_rows(f: Field, rows: Sequence[Sequence], piv: Sequence[int],
                 cols: Sequence[int], ncols: int) -> List[Vector]:
    """Kernel vectors read off rows that `_eliminate` left in RREF, row k
    pivoting at piv[k], with an order that visited the columns cols first,
    so that the rows pivoting elsewhere are zero at cols: one vector of
    ncols entries per non-pivot j of cols (increasing), 1 at j, minus
    rows[k][j] at each pivot piv[k] and zero elsewhere.  They are a basis
    of the kernel of the rows' columns cols, padded with zeros.  When the
    order visited cols in descending order, the nonzeros of row k in cols
    other than its 1 sit at non-pivots left of piv[k], so each vector is 0
    at every other non-pivot and nonzero only at j and at pivots right of
    it: the vectors are the RREF basis of that kernel, pivoting at the
    non-pivots of cols, with no second elimination."""
    p = f.p
    zero, one = f.zero(), f.one()
    pivset = set(piv)
    out = []
    for j in cols:
        if j in pivset:
            continue
        v = [zero] * ncols
        v[j] = one
        for row, c in zip(rows, piv):
            x = row[j]          # 0 when c is outside cols
            if x:
                v[c] = -x if p is None else p - x
        out.append(tuple(v))
    return out


def kernel_basis(m: Matrix) -> Subspace:
    """Solution space of m v = 0: one elimination with the columns visited
    in descending order, whose kernel vectors are already its RREF basis
    (`_kernel_rows`)."""
    n = m.ncols
    rows = _working_rows(m)
    piv, _ = _eliminate(m.field, rows, n, range(n - 1, -1, -1))
    return Subspace(Matrix._of(m.field, _kernel_rows(m.field, rows, piv, range(n), n), n),
                    tuple(sorted(set(range(n)).difference(piv))))


def image_basis(m: Matrix) -> Subspace:
    """Column space of m: the nonzero rows of the RREF of its transpose."""
    red, piv = rref(m.transpose())
    return Subspace(Matrix._of(m.field, red.rows[:len(piv)], m.nrows), piv)


def minus_scalar(m: Matrix, c: Scalar) -> Matrix:
    """m - c I for a square m and a canonical scalar c.  Only the diagonal
    changes, with one % p per diagonal entry over F_p; the other entries
    are m's own."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("not square")
    p = m.field.p
    rows = [list(r) for r in m.rows]
    for i, r in enumerate(rows):
        r[i] = r[i] - c if p is None else (r[i] - c) % p
    return Matrix._of(m.field, rows, n)


def eigenspace(m: Matrix, c) -> Subspace:
    return kernel_basis(minus_scalar(m, m.field.coerce(c)))


def solve(aug: Matrix) -> Tuple[Vector | None, List[Vector]]:
    """For the augmented matrix [m | b], b its last column: one solution x
    of m x = b (zero at the free columns), or None if the system is
    inconsistent, and a basis of the kernel of m, one vector per free
    column.  Both are read off one RREF of aug, whose first ncols - 1
    columns are the RREF of m."""
    n = aug.ncols - 1
    if n < 0:
        raise ValueError("solve needs the column b")
    red, piv = rref(aug)
    kernel = _kernel_rows(aug.field, red.rows, piv, range(n), n)
    if n in piv:
        return None, kernel
    x = [aug.field.zero()] * n
    for r, c in enumerate(piv):
        x[c] = red.rows[r][n]
    return tuple(x), kernel


def char_poly(m: Matrix) -> Tuple[Scalar, ...]:
    """Coefficients (low to high) of det(x*I - m), by Berkowitz's
    division-free algorithm (Berkowitz 1984): O(n^4) and valid in any
    characteristic.  Split m as [[a, r], [c, t]] with a scalar a and the
    trailing block t of size k.  High to low, the coefficients of
    det(x*I - m) are T times those of det(x*I - t), where T is the
    lower-triangular Toeplitz matrix with first column
    1, -a, -r c, -r t c, ..., -r t^(k-1) c.  The loop applies this from the
    last diagonal entry up.  Nothing in the package calls this; the
    benchmark's tracer binds it by name, and tests read "splits" with it."""
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
    whose rational eigenvalues are +-1).  Nothing in the package calls
    this; the benchmark's tracer binds it by name, and tests read "splits"
    with it."""
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
