"""Cyclic group actions on V and the derived modules the summand
formulas consume.

For G = <g> in GL_n(F) this computes, per element h = g^i: the fixed
space V^h = ker(1-h), the moved space V_h = im(1-h), the codimension,
and the character value chi_h(g) = det of g acting on V/V^h.  Three
induced modules feed the summands, all with the contragredient convention
(^g f)(m) = f(^{g^{-1}} m): `CyclicGroup.induced_action(i)` is h on
V tensor wedge^2 V*, its one module, and `CyclicGroup.subgroup_actions`
gives g on V/V_h and on (V^h)*.  No inverse is computed: h^{-1} = g^{N-i}
is a stored power, wedge^2 of a transpose is the transpose of wedge^2, and
g^{-1} restricted to the g-stable V^h is the inverse of g there, so each
dual action is a transpose (`Matrix.inverse` is kept only for the
benchmark's tracer).  An empty module is a 0x0 matrix, which the linear
algebra handles like any other (det 1, a 0x0 transpose, a 0x0 Kronecker
product, rank 0 and so chi-invariants of dimension 0), so no caller tests
for one.

All of this depends only on the subgroup <g^i>, so `CyclicGroup.element`
derives it once per divisor d of N = |G|, at h = g^d, and `element(i)`
returns the record of <g^i>, that of d = gcd(i, N).  What belongs to the
element alone is g^i itself (`CyclicGroup.power`) and det(g^i), which
`CyclicGroup.det` gives as det(g)^i.  `CyclicGroup.subgroup_actions`
likewise builds the actions of g on V/V_h and (V^h)* once per divisor,
when a summand first reads them.  Why g^i shares the data of h:

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
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

from .fields import Field, NotInvertibleError, Scalar, _is_prime
from .linalg import Matrix, Subspace, image_basis, kernel_basis, rank

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
    """Action on wedge^2 V in the e_a ^ e_b basis via 2x2 minors."""
    r = m.rows
    pairs = wedge_pairs(m.nrows)
    return m._reduced(([r[a][c] * r[b][d] - r[a][d] * r[b][c] for c, d in pairs]
                       for a, b in pairs), len(pairs))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; basis of the tensor ordered with a's index major.
    The factors are mostly zeros, so a zero factor costs no product."""
    zero = a.field.zero()
    blank = [zero] * b.ncols
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            row = []
            for x in ra:
                row += [x * y if y else zero for y in rb] if x else blank
            rows.append(row)
    return a._reduced(rows, a.ncols * b.ncols)


def _acts_on(m: Matrix, sub: Subspace) -> None:
    """Raise ValueError unless m is a square matrix over sub's field on
    sub's ambient space, once, so the vectors below go through the trusted
    `_apply` and `_coordinates`."""
    if m.field != sub.field or m.nrows != sub.ambient or m.ncols != sub.ambient:
        raise ValueError("a %dx%d matrix over %r does not act on F^%d over %r"
                         % (m.nrows, m.ncols, m.field, sub.ambient, sub.field))


def restricted_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of m on the invariant subspace, in the subspace's RREF basis."""
    _acts_on(m, sub)
    f = m.field
    cols = []
    for u in sub.basis.rows:
        coords, rest = sub._coordinates(m._apply(u))
        if any(rest):
            raise NotGStableError("subspace is not preserved")
        cols.append(coords)
    return Matrix._of(f, zip(*cols), len(cols))


def quotient_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of the action induced by m on V/sub, in the pivot-completion
    complement coordinates; sub must be m-stable."""
    _acts_on(m, sub)
    f = m.field
    for u in sub.basis.rows:
        if any(sub._coordinates(m._apply(u))[1]):
            raise NotGStableError("subspace is not preserved")
    cols = [sub._coordinates(m._apply(w))[1] for w in sub.complement().basis.rows]
    return Matrix._of(f, zip(*cols), len(cols))


def is_transvection(one_minus_h: Matrix, codim: int) -> bool:
    """Whether h is a transvection, read from 1 - h and its rank codim:
    codimension 1 and (1 - h)^2 = 0."""
    return codim == 1 and (one_minus_h @ one_minus_h).is_zero()


@dataclass(frozen=True)
class ElementData:
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
        self._actions: dict[int, Tuple[Matrix, Matrix]] = {}   # keyed by gcd(i, N)
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
        """The record of h = g^d."""
        one_minus = Matrix.identity(self.field, self.n) - self.power(d)
        fixed = kernel_basis(one_minus)
        moved = image_basis(one_minus)
        codim = self.n - fixed.dim
        assert moved.dim == codim
        return ElementData(
            fixed_space=fixed, moved_space=moved, codim=codim,
            chi_of_generator=quotient_matrix(self.generator, fixed).det(),
            transvection=is_transvection(one_minus, codim))

    def subgroup_actions(self, i: int) -> Tuple[Matrix, Matrix]:
        """The actions of g on V/V_h and on (V^h)* for h = g^i, which the
        codim-1 and codim-2 summands read.  Built on first use, once per
        subgroup <h> (module docstring): the oracle and the group summary
        never read them."""
        d = math.gcd(i % self.order, self.order)
        acts = self._actions.get(d)
        if acts is None:
            ed, g = self.element(d), self.generator
            acts = self._actions[d] = (
                quotient_matrix(g, ed.moved_space),
                restricted_matrix(self.power(-1), ed.fixed_space).transpose())
        return acts

    def transfer(self) -> Subspace:
        """im T for the transfer T = sum of the powers of g; it lies in V^G."""
        if self._transfer is None:
            # entry (r, c) of T sums entry (r, c) of every power, one pass over the powers
            sums = [sum(xs, self.field.zero())
                    for xs in zip(*(chain.from_iterable(m.rows) for m in self.powers))]
            n = self.n
            img = image_basis(self.generator._reduced(sums[r * n:(r + 1) * n]
                                                      for r in range(n)))
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
    if m.nrows != m.ncols:
        raise ValueError("not square")
    c = m.field.coerce(chi_value)
    return m.ncols - rank(m._reduced([x - c if i == j else x for j, x in enumerate(r)]
                                     for i, r in enumerate(m.rows)))
