"""Cyclic group actions on V and the derived modules the summand
formulas consume.

For G = <g> in GL_n(F) this computes, per element h = g^i: the fixed
space V^h = ker(1-h), the moved space V_h = im(1-h), the codimension,
and the character value chi_h(g) = det of g acting on V/V^h.  It also
builds the induced actions on V*, wedge^2 V, V tensor wedge^2 V*,
quotients V/U and duals of restrictions, all with the contragredient
convention (^g f)(m) = f(^{g^{-1}} m).

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
from typing import List, Optional, Tuple

from .fields import Field, NotInvertibleError, Scalar, _is_prime
from .linalg import Matrix, Subspace, eigenspace, image_basis, kernel_basis

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
    f = m.field
    pairs = wedge_pairs(m.nrows)
    rows = []
    for (a, b) in pairs:
        row = []
        for (c, d) in pairs:
            minor = f.sub(f.mul(m.rows[a][c], m.rows[b][d]),
                          f.mul(m.rows[a][d], m.rows[b][c]))
            row.append(minor)
        rows.append(row)
    return Matrix._of(f, rows, len(pairs))


def dual_matrix(m: Matrix) -> Matrix:
    """Contragredient action on V*: inverse transpose."""
    return m.inverse().transpose()


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; basis of the tensor ordered with a's index major."""
    f = a.field
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = []
            for j in range(a.ncols):
                for l in range(b.ncols):
                    row.append(f.mul(a.rows[i][j], b.rows[k][l]))
            rows.append(row)
    return Matrix._of(f, rows, a.ncols * b.ncols)


def restricted_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of m on the invariant subspace, in the subspace's RREF basis."""
    f = m.field
    cols = []
    for u in sub.basis.rows:
        coords, rest = sub.coordinates(m.apply(u))
        if any(rest):
            raise NotGStableError("subspace is not preserved")
        cols.append(coords)
    return Matrix._of(f, zip(*cols), len(cols))


def quotient_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """Matrix of the action induced by m on V/sub, in the pivot-completion
    complement coordinates; sub must be m-stable."""
    f = m.field
    for u in sub.basis.rows:
        if not sub.contains(m.apply(u)):
            raise NotGStableError("subspace is not preserved")
    cols = [sub.coordinates(m.apply(w))[1] for w in sub.complement().basis.rows]
    return Matrix._of(f, zip(*cols), len(cols))


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

    def __init__(self, field: Field, generator: Matrix, order_bound: int = DEFAULT_ORDER_BOUND):
        if generator.nrows != generator.ncols:
            raise ValueError("generator must be square")
        if generator.field != field:
            raise ValueError("field mismatch")
        n = generator.nrows
        ident = Matrix.identity(field, n)
        det = generator.det()
        if det == 0:
            raise NotInvertibleError("generator is singular")
        if field.p is None:
            _check_rational_order(generator, det, order_bound)
        powers = [ident]
        cur = generator
        while cur != ident and len(powers) <= order_bound:
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
        f = self.field
        h = self.power(d)
        one_minus = Matrix.identity(f, self.n) - h
        fixed = kernel_basis(one_minus)
        moved = image_basis(one_minus)
        codim = self.n - fixed.dim
        assert moved.dim == codim
        # chi_h(g) = det of g on V/V^h; the 0x0 case (h = 1) gives 1
        if fixed.dim == self.n:
            chi = f.one()
        else:
            chi = quotient_matrix(self.generator, fixed).det()
        return ElementData(
            fixed_space=fixed, moved_space=moved, codim=codim, chi_of_generator=chi,
            transvection=codim == 1 and (one_minus @ one_minus).is_zero())

    def subgroup_actions(self, i: int) -> Tuple[Matrix, Matrix]:
        """The actions of g on V/V_h and on (V^h)* for h = g^i, which the
        codim-1 and codim-2 summands read.  Built on first use, once per
        subgroup <h> (module docstring): the oracle and the group summary
        never read them."""
        d = math.gcd(i % self.order, self.order)
        acts = self._actions.get(d)
        if acts is None:
            ed, g = self.element(d), 1 % self.order
            acts = self._actions[d] = (
                self.induced_action(g, "quotient_by", ed.moved_space),
                self.induced_action(g, "dual_restricted_to", ed.fixed_space))
        return acts

    def transfer(self) -> Subspace:
        """im T for the transfer T = sum of the powers of g; it lies in V^G."""
        if self._transfer is None:
            f = self.field
            t = Matrix.zeros(f, self.n, self.n)
            for p in self.powers:
                t = t + p
            img = image_basis(t)
            if not self.invariants().contains_space(img):
                raise AssertionError("im T not contained in V^G")
            self._transfer = img
        return self._transfer

    def induced_action(self, i: int, module: str, subspace: Optional[Subspace] = None) -> Matrix:
        """Matrix of h = g^i on a derived module.

        module is one of 'V_tensor_wedge2dual', 'quotient_by' (with
        subspace), 'dual_restricted_to' (with subspace).
        """
        h = self.power(i)
        if module == "V_tensor_wedge2dual":
            return kron(h, wedge2_matrix(dual_matrix(h)))
        if module == "quotient_by":
            if subspace is None:
                raise ValueError("quotient_by needs a subspace")
            return quotient_matrix(h, subspace)
        if module == "dual_restricted_to":
            if subspace is None:
                raise ValueError("dual_restricted_to needs a subspace")
            r = restricted_matrix(h, subspace)
            return dual_matrix(r) if r.nrows else r
        raise ValueError("unknown module %r" % (module,))


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
    return CyclicGroup(field, Matrix(field, rows), order_bound=order_bound)


def chi_invariants(action_of_g: Matrix, chi_value) -> Subspace:
    """chi-isotypic invariants: for a cyclic group this is the eigenspace of
    the generator's action at chi(g)."""
    return eigenspace(action_of_g, chi_value)
