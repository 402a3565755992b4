"""Cyclic group actions on V and the derived modules the summand
formulas consume.

For G = <g> in GL_n(F) this computes, per element h = g^i: the fixed
space V^h = ker(1-h), the moved space V_h = im(1-h), the codimension,
and the character value chi_h(g) = det of g acting on V/V^h.  Three
induced modules feed the summands, all with the contragredient convention
(^g f)(m) = f(^{g^{-1}} m): `CyclicGroup.induced_action(i)` is h on
V tensor wedge^2 V*, its one module, and `CyclicGroup.summand_dim` reads
the chi_h-invariants of g on V/V_h (codim 2) or on V/V_h tensor (V^h)*
(codim 1).  No inverse is computed: h^{-1} = g^{N-i} is a stored power,
wedge^2 of a transpose is the transpose of wedge^2, and g^{-1} restricted
to the g-stable V^h is the inverse of g there, so each dual action is a
transpose (`Matrix.inverse` is kept only for the benchmark's tracer).  An
empty module is a 0x0 matrix, which the linear algebra handles like any
other (det 1, a 0x0 transpose, a 0x0 Kronecker product, rank 0 and so
chi-invariants of dimension 0), so no caller tests for one.

The matrices the group layer builds itself (wedge^2, the Kronecker
products, T and the two subspace actions) come from integer products
through one pair of `linalg` helpers: `_int_rows` gives a matrix's rows as ints
over one common denominator d (over F_p its canonical rows themselves,
uncopied, and d = 1) and `_of_ints` turns the integer result over its
denominator back into one canonical Fraction per nonzero entry (over F_p
into the matrix of the rows, which each loop reduced mod p entry by entry
as it made them).  So over Q no Fraction is added or multiplied entry by
entry:

* `wedge2_matrix` takes the 2x2 minors of g's integer rows over d, so it
  is over d^2; `kron` multiplies the integer rows of its two factors, over
  the product of their denominators; `CyclicGroup.transfer` sums the
  powers' integer rows over their common denominator.
* `quotient_matrix` and `restricted_matrix` read g's action off integer
  products with the RREF basis B of the subspace, over d_B, with pivots P.
  Let C be the projection of V onto the pivot-completion complement (the
  unit vectors at the non-pivots) along the subspace: d_B C has row
  d_B e_q - sum_k B_k[q] e_{P_k} at each non-pivot q, because a vector
  reduced against the RREF basis is zero at P.  The quotient action is C g
  read at the non-pivot columns, entry (q, j) being
  d_B g[q][j] - sum_k B_k[q] g[P_k][j] over d_B; the restriction is g B^T
  read at the rows P, the coordinates of g B_k on B.  The subspace is
  g-stable iff C g B^T = 0, and either builder raises NotGStableError
  otherwise.

All of this depends only on the subgroup <g^i>, so `CyclicGroup.element`
derives it once per divisor d of N = |G|, at h = g^d, and `element(i)`
returns the record of <g^i>, that of d = gcd(i, N).  What belongs to the
element alone is g^i itself (`CyclicGroup.power`) and det(g^i), which
`CyclicGroup.det` gives as det(g)^i.  `CyclicGroup.summand_dim` likewise
derives, once per divisor and when a summand first reads it, the one
chi_h-invariant dimension the codim-1 or codim-2 summand reads; it keeps
the int, not the action matrix it comes from.  Why g^i shares the data
of h:

* g^i and h generate the same subgroup.  Write i = d k; then k is prime
  to N/d, the order of h, so g^i = h^k and h = (h^k)^{k'} with
  k k' = 1 mod N/d.  Each of h, h^k is therefore a power of the other.
* 1 - h^k = (1 - h)(1 + h + ... + h^{k-1}), with commuting factors, so
  ker(1 - h) lies in ker(1 - h^k) and im(1 - h^k) lies in im(1 - h).
  Exchanging the roles of h and h^k gives the reverse inclusions, so V^h,
  V_h and the codimension agree, and with them chi_h(g) (the determinant
  of g on the same quotient V/V^h), the action of g on V/V_h and the
  action of g on (V^h)*.
* Squaring the factorisation, (1 - h^k)^2 is a multiple of (1 - h)^2, and
  the other way round, so (1 - h)^2 = 0 iff (1 - h^k)^2 = 0.  With the
  shared codimension this makes "h is a transvection" (a codimension-1
  element with (1 - h)^2 = 0) a property of the subgroup.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fields import Field, NotInvertibleError, Scalar, _is_prime
from .linalg import (Matrix, Subspace, _int_rows, _of_ints, image_basis, kernel_basis,
                     minus_scalar, rank)

DEFAULT_ORDER_BOUND = 10000


class OrderExceedsBoundError(ValueError):
    pass


class NotGStableError(ValueError):
    pass


def wedge_pairs(n: int) -> List[Tuple[int, int]]:
    """Basis index pairs (a, b), a < b, for wedge^2 of F^n, lexicographic."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def sym_pairs(n: int) -> List[Tuple[int, int]]:
    """Monomial index pairs (a, b), a <= b, for Sym^2 of F^n, lexicographic."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def wedge2_matrix(m: Matrix) -> Matrix:
    """Action on wedge^2 V in the e_a ^ e_b basis via 2x2 minors, taken of
    m's integer rows over d (`_int_rows`), so over d^2."""
    r, d = _int_rows(m)
    p = m.field.p
    pairs = wedge_pairs(m.nrows)
    rows = ([r[a][c] * r[b][e] - r[a][e] * r[b][c] for c, e in pairs] for a, b in pairs)
    if p is not None:
        rows = ([x % p for x in row] for row in rows)
    return _of_ints(m.field, rows, d * d, len(pairs))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; basis of the tensor ordered with a's index major.
    It multiplies the integer rows of a over da by those of b over db
    (`_int_rows`), so it is over da db.  The factors are mostly zeros, so a
    zero factor costs no product, and over F_p each product is reduced as
    it is made."""
    p = a.field.p
    ra, da = _int_rows(a)
    rb, db = _int_rows(b)
    blank = [0] * b.ncols
    rows = []
    for xs in ra:
        for ys in rb:
            row = []
            for x in xs:
                if not x:
                    row += blank
                elif p is None:
                    row += [x * y for y in ys]
                else:
                    row += [x * y % p for y in ys]
            rows.append(row)
    return _of_ints(a.field, rows, da * db, a.ncols * b.ncols)


def _int_action(m: Matrix, sub: Subspace):
    """m's integer rows g over dg and the rows B of sub's RREF basis over dB
    (`_int_rows`), after checking once that m is a square matrix over sub's
    field on sub's ambient space (ValueError otherwise)."""
    if m.field != sub.field or m.nrows != sub.ambient or m.ncols != sub.ambient:
        raise ValueError("a %dx%d matrix over %r does not act on F^%d over %r"
                         % (m.nrows, m.ncols, m.field, sub.ambient, sub.field))
    return _int_rows(m) + _int_rows(sub.basis)


def _projected(sub: Subspace, free: Sequence[int], b, db: int, x) -> List[Sequence[int]]:
    """dB C x for integer rows x, one row per non-pivot column q of sub (in
    `free`), C the projection of V onto the pivot-completion complement
    along sub and B over dB its RREF basis: row q is
    dB x[q] - sum_k B_k[q] x[P_k], P the pivots (x reduced against the basis
    and read at q), mod p over F_p."""
    p = sub.field.p
    out = []
    for q in free:
        row = x[q] if db == 1 else [db * y for y in x[q]]
        for brow, c in zip(b, sub._pivots):
            y = brow[q]
            if y:
                row = [s - y * t for s, t in zip(row, x[c])] if p is None \
                    else [(s - y * t) % p for s, t in zip(row, x[c])]
        out.append(row)
    return out


def _unstable(p: int | None, entries) -> bool:
    """Whether any of these ints is nonzero (mod p over F_p)."""
    return any(entries if p is None else (x % p for x in entries))


def restricted_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of m on the invariant subspace, in the subspace's RREF basis
    B: column k holds the coordinates of m B_k on B, its entries at the
    pivots.  So the matrix is m B^T read at the pivot rows, taken on the
    integer rows of m and B (`_int_action`); sub is m-stable iff
    C m B^T = 0 (`_projected`), else NotGStableError."""
    g, dg, b, db = _int_action(m, sub)
    p = m.field.p
    gb = [[sum(map(mul, row, brow)) for brow in b] for row in g]
    if _unstable(p, chain.from_iterable(_projected(sub, sub.complement()._pivots, b, db, gb))):
        raise NotGStableError("subspace is not preserved")
    rows = (gb[c] for c in sub._pivots)
    if p is not None:
        rows = ([x % p for x in row] for row in rows)
    return _of_ints(m.field, rows, dg * db, len(b))


def quotient_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of the action induced by m on V/sub, in the pivot-completion
    complement coordinates; sub must be m-stable.  Column j, for a
    non-pivot j, holds the quotient coordinates of m e_j, so the matrix is
    C m (`_projected`) read at the non-pivot columns, taken on the integer
    rows of m and B (`_int_action`); sub is m-stable iff C m B^T = 0, else
    NotGStableError."""
    g, dg, b, db = _int_action(m, sub)
    free = sub.complement()._pivots
    cg = _projected(sub, free, b, db, g)
    if _unstable(m.field.p, [sum(map(mul, row, brow)) for row in cg for brow in b]):
        raise NotGStableError("subspace is not preserved")
    return _of_ints(m.field, ([row[j] for j in free] for row in cg), dg * db, len(free))


def is_transvection(h_minus_1: Matrix, codim: int) -> bool:
    """Whether h is a transvection, read from h - 1 and its rank codim:
    codimension 1 and (h - 1)^2 = (1 - h)^2 = 0."""
    return codim == 1 and (h_minus_1 @ h_minus_1).is_zero()


class ElementData(NamedTuple):
    """What the summands read at h = g^i.  It depends only on the subgroup
    <h>, so every generator of <h> shares one record (module docstring)."""
    fixed_space: Subspace        # V^h
    moved_space: Subspace        # V_h
    codim: int
    chi_of_generator: Scalar     # chi_h(g)
    transvection: bool           # codim 1 and (1-h)^2 = 0


class CyclicGroup:
    """The cyclic group generated by an invertible matrix, with cached powers."""

    def __init__(self, generator: Matrix, order_bound: int = DEFAULT_ORDER_BOUND):
        if generator.nrows != generator.ncols:
            raise ValueError("generator must be square")
        field, n = generator.field, generator.nrows
        ident = Matrix.identity(field, n)
        det = generator.det()
        if det == 0:
            raise NotInvertibleError("generator is singular")
        if field.p is None:
            _check_rational_order(generator, det, order_bound)
        powers = [ident]
        cur = generator
        while cur.rows != ident.rows and len(powers) <= order_bound:
            powers.append(cur)
            cur = cur @ generator
        if len(powers) > order_bound:
            raise _order_exceeds(order_bound)
        self.field = field
        self.n = n
        self.generator = generator
        self.order = len(powers)
        self.powers = powers
        self._det = det
        self._classes: dict[int, ElementData] = {}     # keyed by gcd(i, N)
        self._summand_dim: dict[int, int] = {}         # keyed by gcd(i, N)
        self._transfer: Optional[Subspace] = None

    def power(self, i: int) -> Matrix:
        return self.powers[i % self.order]

    def invariants(self) -> Subspace:
        """V^G = fixed space of the generator."""
        return self.element(1 % self.order).fixed_space

    def element(self, i: int) -> ElementData:
        """The record of the subgroup <g^i>, shared by all its generators."""
        d = math.gcd(i % self.order, self.order)
        ed = self._classes.get(d)
        if ed is None:
            ed = self._classes[d] = self._subgroup_data(d)
        return ed

    def det(self, i: int) -> Scalar:
        """det(g^i) = det(g)^i."""
        i %= self.order
        return pow(self._det, i, self.field.p) if self.field.p is not None else self._det ** i

    def _subgroup_data(self, d: int) -> ElementData:
        """The record of h = g^d, read from h - 1: V^h = ker(h - 1) and
        V_h = im(h - 1), as for 1 - h."""
        h_minus_1 = minus_scalar(self.power(d), self.field.one())
        fixed = kernel_basis(h_minus_1)
        moved = image_basis(h_minus_1)
        codim = self.n - fixed.dim
        assert moved.dim == codim
        return ElementData(
            fixed_space=fixed, moved_space=moved, codim=codim,
            chi_of_generator=quotient_matrix(self.generator, fixed).det(),
            transvection=is_transvection(h_minus_1, codim))

    def summand_dim(self, i: int) -> int:
        """The chi_h-invariant dimension the summand of h = g^i reads:
        dim (V/V_h)^{chi_h} at codim 2 and dim (V/V_h tensor (V^h)*)^{chi_h}
        at codim 1, from the actions of g on V/V_h and on (V^h)*.  Derived
        on first use, once per subgroup <h> (module docstring); only the
        int is kept.  No other codim has such a summand: ValueError."""
        d = math.gcd(i % self.order, self.order)
        dim = self._summand_dim.get(d)
        if dim is None:
            ed = self.element(d)
            if ed.codim not in (1, 2):
                raise ValueError("element %d has codim %d, not 1 or 2" % (i, ed.codim))
            action = quotient_matrix(self.generator, ed.moved_space)
            if ed.codim == 1:
                dual_fixed = restricted_matrix(self.power(-1), ed.fixed_space).transpose()
                action = kron(action, dual_fixed)
            dim = self._summand_dim[d] = chi_invariants(action, ed.chi_of_generator)
        return dim

    def transfer(self) -> Subspace:
        """im T for the transfer T = sum of the powers of g; it lies in V^G."""
        if self._transfer is None:
            f, n, p = self.field, self.n, self.field.p
            if p is None:
                # each power's integer rows over its own e, scaled to the common d
                parts = [_int_rows(m) for m in self.powers]
                d = math.lcm(*(e for _, e in parts))
                flat = [[x * (d // e) for row in rows for x in row] for rows, e in parts]
            else:
                d, flat = 1, [chain.from_iterable(m.rows) for m in self.powers]
            # entry (r, c) of d T sums entry (r, c) of every power, one pass over the powers
            sums = [sum(xs) for xs in zip(*flat)]
            if p is not None:
                sums = [x % p for x in sums]
            img = image_basis(_of_ints(f, (sums[r * n:(r + 1) * n] for r in range(n)), d, n))
            if not self.invariants().contains_space(img):
                raise AssertionError("im T not contained in V^G")
            self._transfer = img
        return self._transfer

    def induced_action(self, i: int) -> Matrix:
        """Matrix of h = g^i on V tensor wedge^2 V*."""
        return kron(self.power(i), wedge2_matrix(self.power(-i)).transpose())


def _order_exceeds(bound: int) -> OrderExceedsBoundError:
    return OrderExceedsBoundError(
        "order exceeds bound %d; infinite order or raise the cap" % bound)


def _check_rational_order(g: Matrix, det: Scalar, bound: int) -> None:
    """Reject a rational g of order above bound, infinite order included,
    before any power of g is stored (the entries of the powers of an
    infinite-order g grow without bound).

    Let q be the least odd prime that divides no denominator of g and not
    det g, so g lies in GL_n(Z_(q)).  Reduction mod an odd q is injective on
    the finite-order elements of GL_n(Z_(q)) (Minkowski), so a finite-order
    g has the order N of g mod q.  Hence N > bound rejects g, and otherwise
    g has finite order iff g^N = 1, checked by repeated squaring."""
    dens = {x.denominator for r in g.rows for x in r}
    q = 3
    while not _is_prime(q) or det.numerator % q == 0 or any(d % q == 0 for d in dens):
        q += 2
    gq = Matrix(Field.prime(q), g.rows)
    ident = Matrix.identity(gq.field, g.nrows)
    order, cur = 1, gq
    while cur != ident:
        order += 1
        if order > bound:
            raise _order_exceeds(bound)
        cur = cur @ gq
    one = power = Matrix.identity(g.field, g.nrows)
    for bit in bin(order)[2:]:
        power = power @ power
        if bit == "1":
            power = power @ g
    if power != one:
        raise OrderExceedsBoundError("generator has infinite order")


def group_from_generator(field: Field, rows, order_bound: int = DEFAULT_ORDER_BOUND) -> CyclicGroup:
    return CyclicGroup(Matrix(field, rows), order_bound=order_bound)


def chi_invariants(action_of_g: Matrix, chi_value) -> int:
    """The dimension of the chi-isotypic invariants: for a cyclic group,
    that of the eigenspace of the generator's action at chi(g), which is
    ncols - rank(action - chi(g) I), one elimination."""
    m = action_of_g
    return m.ncols - rank(minus_scalar(m, m.field.coerce(chi_value)))
