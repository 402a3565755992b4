"""Brute-force cochain complex for the degree -1 part of HH^2, one group
element at a time.

A 2-cochain at h = g^i is a pair (lambda, alpha) with lambda in V*
(attached to the group element hg) and alpha: wedge^2 V -> V (attached
to h).  The cocycle conditions are

    (1)  lambda(im T) = 0,
    (2)  (alpha - ^{g^{-1}}alpha)(u ^ v) = lambda(v)(u - ^h u) - lambda(u)(v - ^h v)   in V,
    (3)  alpha(u^v)(w - ^h w) + alpha(v^w)(u - ^h u) + alpha(w^u)(v - ^h v) = 0        in Sym^2 V,

with the twist (^{g^{-1}}alpha)(u^v) = ^{g^{-1}}(alpha(^g u ^ ^g v)), and a
coboundary is d(f tensor h) for f in V*:

    lambda(u) = f(u - ^g u),     alpha(u ^ v) = f(v)(u - ^h u) - f(u)(v - ^h v).

Everything is assembled as matrices over the flat coordinates
(lambda_0..lambda_{n-1}, then alpha(e_a ^ e_b) vector by vector), so
dimensions, containments, and distinguished representatives are plain
rank/kernel computations.

Each condition has one row builder, placed by column offset: `_vanish_rows`
(condition (1)), `_jacobi_rows` (condition (3)) and `_coboundary_rows`
(d(f tensor h)).  The test suite's assembled complex reuses them at other
offsets, with condition (2) in its pre-decomposition form, as an
independent check of the lambda-to-hg bookkeeping.

The elimination takes the first candidate row as the pivot, and a dense
pivot row fills every row it is subtracted from.  So `_condition_rows`
lists the sparse rows first, condition (3) (at most six nonzeros a row),
then (1), then (2), and builds no all-zero row: a condition (3) row whose
entries 1 - h kills is skipped before it is built (at h = 1 all of them
are), and so is a condition (2) row that comes out zero.  The row space,
and so the RREF, z and the stored rows, are those of every row in any
order.

What does not depend on the element is the group's record, `GroupRows`,
built once by `group_rows`: the condition (1) rows from im T, the
alpha-twist block of condition (2), which is I - (wedge^2 g)^T kron g^{-1}
(g^{-1} acting on Hom(wedge^2 V, V); one `kron` and `minus_scalar`, never
the formula's `induced_action`), and 1 - g, which gives the coboundary's
lambda rows.  Every complex is built from a record, which is a required
argument: `oracle_report`, the CLI's `reps` and `reduce_to_representative`
each build one per call, and `cocycle_conditions` one for its complex.
Only `coboundary_matrix`, which is no complex, takes none and builds just
1 - g.  Per element there remain h - 1 (from `minus_scalar`), 1 - h, the
lambda coupling of condition (2), condition (3) and the coboundary's
alpha rows, which `_condition_rows` and `_coboundary_rows` build as lists
of ints (one `% p` per entry over F_p).  Each complex gets new lists, the
record's rows copied, since it is then eliminated in place.  Every element
index is checked to lie in 0..|G|-1; none is read mod |G|.

Over Q every complex is built on ints too, so that no Fraction is made or
tested while it is built, guarded or eliminated.  The record clears the
denominators once per group, with one positive integer L (its `scale`):
the lcm of every denominator of g's powers and of the alpha-twist block,
1 for an integral generator.  It holds L (1 - g), the twist rows times L,
and the im T rows over their common denominator D (`linalg._int_rows`,
which gamma, f0 and the kernel vectors below go through too).  Per
element, `_signed_shifts` reads each entry of h once, through its
Fraction slots, into L (h - 1) and L (1 - h).  So every condition row is
a positive integer multiple of its row over Q (L, or D), and the
coboundary rows are L times dmat.  Scaling rows by positive integers
changes neither a kernel nor a rank nor which rows are zero, so z, b, the
RREF (hence every representative), d^2 = 0, and the index of the first
row a cochain violates are those of the unscaled complex.
`cocycle_conditions` hands out the integer rows as Fractions
(`linalg._of_ints`); `coboundary_matrix` stays the exact, unscaled dmat.

The distinguished representatives satisfy pi_h o alpha = 0, where pi_h
projects V onto V_h along the pivot-completion complement of V_h: the span
of the unit vectors e_j at the columns j that are not pivots of V_h's RREF
basis.  A vector lies in that complement iff it vanishes at the pivot
columns, so the cut is "alpha(e_a ^ e_b)_c = 0 for every pivot column c of
V_h", with no matrix inverse.  Besides it, lambda = 0 on (V^G)^perp at
codim 0, and on (V^h)^perp at codim 1 when chi_h is nontrivial; that
perp is again a pivot-completion complement, so lambda_j = 0 at the
non-pivot columns j of V^G or V^h.  Each part sets single flat
coordinates to zero, so `distinguished_constraints` returns the cut as
the strictly increasing tuple of those coordinates, and no matrix.

The other case conditions of the distinguished representatives hold on
every cocycle in this cut, and the cut is only ever applied to cocycles
(`representative_basis` reads Z's kernel outside it,
`reduce_to_representative` reads the cocycle columns [dmat | gamma] at
it), so they get no coordinates.  Sym V is a domain, and u, v lie in
V^h below:

- codim 1, alpha on wedge^2 V^h: condition (3) at (u, v, w) reads
  alpha(u ^ v)(w - ^h w) = 0; pick w with w != ^h w, so alpha(u ^ v) = 0.
- codim 2, alpha(u ^ v) for u in V^h, v in V: if v is in V^h, as above.
  Otherwise x = v - ^h v != 0; pick w with y = w - ^h w independent of x
  (dim V_h = 2), and (3) gives alpha(u ^ v) y = alpha(u ^ w) x.  So x
  divides alpha(u ^ v), which puts it in V_h, and the pi_h cut puts it in
  the complement of V_h: it is 0.
- codim 2, lambda on V^h: g keeps V^h, so by the last point condition (2)
  at (u, v) reads 0 = -lambda(u)(v - ^h v); pick v with v != ^h v, so
  lambda(u) = 0.
- codim > 2: no row forces Z to meet the cut in 0 (the formula's zero
  summand); `representative_basis`'s size == hh_dim check and
  `reduce_to_representative`'s uniqueness check test it.

`_guarded_complex` multiplies the condition rows of one element, as
built, by its coboundary rows (`_product`, the product behind `@`): the
d^2 = 0 check, on every complex, so every condition matrix the oracle
hands out has passed it.  `_cohomology` then eliminates the coboundary
rows and the condition rows in place (`_eliminate`), once each: b and z
are read from the pivots.  `per_element_cohomology` keeps the dimensions
and reads no row, so neither elimination reduces a row above its pivot
or writes a Fraction back.  `representative_basis` has the elimination
visit the coordinates outside the distinguished cut first, in descending
order, and then the cut, and reads the distinguished basis off the RREF
rows that pivot outside the cut, at the coordinates outside it
(`_kernel_rows`), with no second elimination; only those rows are
reduced above their pivots and, over Q, written back as Fractions.

`reduce_to_representative` eliminates nothing of the complex and reads
each matrix once: the guard's one product cond @ [dmat | gamma] (dmat the
coboundary rows) checks d^2 = 0 and gamma's conditions on the rows as
built, so a `NotACocycleError` names the first violated row of
`cocycle_conditions`.  Over Q the product runs on L dmat beside gamma
times the lcm of its denominators, so it is the unscaled one with its
columns scaled.  Its rows at the distinguished cut, selected with no
product and, over Q, divided back by L into exact Fractions, and one
`solve` give the witness f0 and the kernel.  The integer rows applied to
one vector give gamma - dmat f0, exactly, and applied to each kernel
vector give dmat there; the representative is checked at the cut by
reading it there, and its docstring and comments say why it needs no
further cocycle check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from math import comb, lcm
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple

from .fields import Field, Scalar
from .group_action import CyclicGroup, kron, wedge_pairs, sym_pairs, wedge2_matrix
from .linalg import (Matrix, Vector, _eliminate, _int_rows, _kernel_rows, _numerators, _of_ints,
                     _product, minus_scalar, rank, solve)

# Nothing here calls `rank`: the benchmark's tracer rebinds it in every
# module that imports it, and its self-test reads it as `oracle.rank`.
_TRACED = rank


class NotACocycleError(ValueError):
    """A cochain outside Z^2_{-1}(h).  From reduce_to_representative it
    carries the witness: h = g^element_index, and `row`, the first row of
    cocycle_conditions(gr, element_index) that the cochain violates."""

    def __init__(self, message: str, element_index: int | None = None,
                 row: int | None = None):
        super().__init__(message)
        self.element_index = element_index
        self.row = row


class DimensionMismatchError(AssertionError):
    pass


class CochainTwo(NamedTuple):
    """(lambda, alpha) at element index i; lambda's group tag is hg = g^{i+1}."""
    field: Field
    n: int
    element_index: int
    lam: Tuple[Scalar, ...]                    # lambda(e_0), ..., lambda(e_{n-1})
    alpha: Tuple[Tuple[Scalar, ...], ...]      # per wedge pair (a<b, lex), the value in V

    def flat(self) -> Tuple[Scalar, ...]:
        out = list(self.lam)
        for col in self.alpha:
            out.extend(col)
        return tuple(out)

    @staticmethod
    def from_flat(field: Field, n: int, i: int, flat) -> "CochainTwo":
        flat = [field.coerce(x) for x in flat]
        if len(flat) != cochain_dim(n):
            raise ValueError("flat vector has wrong length")
        return CochainTwo._of(field, n, i, flat)

    @staticmethod
    def _of(field: Field, n: int, i: int, flat: Sequence[Scalar]) -> "CochainTwo":
        """Trusted `from_flat`: flat holds cochain_dim(n) canonical scalars
        (see Matrix._of); nothing is checked."""
        lam = tuple(flat[:n])
        alpha = tuple(tuple(flat[n + k * n: n + (k + 1) * n])
                      for k in range(len(wedge_pairs(n))))
        return CochainTwo(field, n, i, lam, alpha)


class CochainOne(NamedTuple):
    f: Tuple[Scalar, ...]


class ComplexDims(NamedTuple):
    z_dim: int
    b_dim: int
    hh_dim: int


def cochain_dim(n: int) -> int:
    return n + n * comb(n, 2)


def _negated(f: Field, rows) -> List[List[Scalar]]:
    return [[-x for x in r] for r in rows] if f.p is None else \
        [[-x % f.p for x in r] for r in rows]


def _signed_shifts(f: Field, h: Matrix, scale: int | None = None
                   ) -> Tuple[List[List[Scalar]], Sequence[Sequence[Scalar]]]:
    """The rows of 1 - h and of h - 1: h - 1 from `minus_scalar`, which
    rewrites only the diagonal, and 1 - h its negation.  Given a scale (over
    Q, a group record's), the integer rows of scale (1 - h) and
    scale (h - 1) instead, each entry of h read once through its slots."""
    if scale is None:
        h_minus_1 = minus_scalar(h, f.one()).rows
    else:
        h_minus_1 = [_numerators(row, scale) for row in h.rows]
        for k, row in enumerate(h_minus_1):
            row[k] -= scale
    return _negated(f, h_minus_1), h_minus_1


def _vanish_rows(zero: Scalar, dim: int, vectors, at: int) -> List[List[Scalar]]:
    """One row per vector u: the block of coordinates starting at column
    `at` vanishes on u, i.e. lambda(u) = 0 when that block is lambda.  Like
    the other row builders it takes the zero of the entries it is given: 0
    for the oracle's rows, which hold ints over both fields."""
    rows = []
    for u in vectors:
        row = [zero] * dim
        row[at:at + len(u)] = u
        rows.append(row)
    return rows


def _jacobi_rows(zero: Scalar, dim: int, one_minus_h, h_minus_1, at: int) -> List[List[Scalar]]:
    """Condition (3) at h, one Sym^2-valued condition per basis triple, with
    alpha(e_a ^ e_b)_s (pair number w) in column at + w*n + s; one_minus_h
    and h_minus_1 are the rows of 1 - h and of h - 1, both of which the
    caller holds, so neither is negated here.  The row at {i0, j0} reads
    the coordinates i0 and j0 of the triple's three vectors, so it is
    built only when one of them is nonzero (at h = 1 none is)."""
    n = len(one_minus_h)
    pos = {p: k for k, p in enumerate(wedge_pairs(n))}
    x = list(zip(*one_minus_h))           # the vectors (1-h)e_t
    minus_x = list(zip(*h_minus_1))
    spairs = sym_pairs(n)
    rows: List[List[Scalar]] = []
    for a, b, c in combinations(range(n), 3):
        # alpha(e_a^e_b) (1-h)e_c + alpha(e_b^e_c) (1-h)e_a - alpha(e_a^e_c) (1-h)e_b;
        # the three pairs differ, so no two terms share a column
        terms = ((at + pos[(a, b)] * n, x[c]), (at + pos[(b, c)] * n, x[a]),
                 (at + pos[(a, c)] * n, minus_x[b]))
        live = [x[a][t] or x[b][t] or x[c][t] for t in range(n)]
        if not any(live):
            continue
        for i0, j0 in spairs:
            if not (live[i0] or live[j0]):
                continue
            # alpha(w)_s times the e_t coordinate of its vector, for {s, t} = {i0, j0}
            row = [zero] * dim
            for base, xt in terms:
                row[base + i0] = xt[j0]
                row[base + j0] = xt[i0]
            rows.append(row)
    return rows


def _coboundary_rows(zero: Scalar, one_minus_g, one_minus_h, h_minus_1) -> List[List[Scalar]]:
    """The cochain_dim(n) x n matrix of f -> d(f tensor h), column j the
    image of e_j^*: lambda(e_k) = (1-g)[j][k] in row k, and
    alpha(e_a ^ e_b) = f(e_b)(1-h)e_a + f(e_a)(h-1)e_b (pair number w) in
    rows n + w*n .. n + w*n + n-1.  The arguments are row lists."""
    n = len(one_minus_h)
    rows = [list(col) for col in zip(*one_minus_g)]
    for a, b in wedge_pairs(n):
        for r in range(n):
            row = [zero] * n
            row[b] = one_minus_h[r][a]
            row[a] = h_minus_1[r][b]
            rows.append(row)
    return rows


class GroupRows(NamedTuple):
    """The parts of every complex of one group that do not depend on the
    element h = g^i: build it with `group_rows` and hand it to every complex
    of the group.  Condition (2) at the pair (a, b) and coordinate r is its
    alpha-twist row, (alpha - ^{g^{-1}}alpha)(e_a ^ e_b)_r, whose lambda
    block is zero, plus a lambda coupling that depends on h.  Over F_p the
    rows hold canonical ints and `scale` is None; over Q they hold ints,
    the twist rows and 1 - g times `scale`, L (module docstring), and the
    transfer rows over their common denominator."""
    transfer: List[List[Scalar]]                      # condition (1): lambda(im T) = 0
    twist: List[Tuple[int, int, int, Vector]]         # (a, b, r, alpha-twist row)
    one_minus_g: List[List[Scalar]]
    scale: int | None


def group_rows(gr: CyclicGroup) -> GroupRows:
    """The record of gr.  The twist row at (w0, r) holds
    delta - (wedge^2 g)[w][w0] (g^{-1})[r][s] at alpha(w)_s, column
    n + w*n + s: the rows of I - (wedge^2 g)^T kron g^{-1}, in order, behind
    n zero lambda columns.  g^{-1} is read off the stored powers.  Over Q
    the scale L is the lcm of every denominator of the powers and of that
    block, read once here."""
    f = gr.field
    n = gr.n
    neg_ginv = Matrix._of(f, _negated(f, gr.power(-1).rows), n)
    block = minus_scalar(kron(wedge2_matrix(gr.generator).transpose(), neg_ginv),
                         f.coerce(-1)).rows
    scale = None
    if f.p is None:
        scale = lcm(*{x._denominator for rows in chain((m.rows for m in gr.powers), [block])
                      for row in rows for x in row})
        block = [_numerators(row, scale) for row in block]
    transfer = _int_rows(f, gr.transfer().basis.rows)[0]
    lam = (0,) * n
    twist = [(a, b, r, lam + tuple(row))
             for ((a, b), r), row in zip(product(wedge_pairs(n), range(n)), block)]
    return GroupRows(_vanish_rows(0, cochain_dim(n), transfer, 0), twist,
                     _signed_shifts(f, gr.generator, scale)[0], scale)


def _condition_rows(rows: GroupRows, one_minus_h, h_minus_1) -> List[List[Scalar]]:
    """The condition rows of the complex at the h of these 1 - h and h - 1
    (over Q times the record's scale), as new lists of ints."""
    n = len(one_minus_h)
    # (3) one Sym^2-valued condition per basis triple (none below n = 3); the
    # sparsest rows come first, so they are the pivot rows of the elimination
    out = _jacobi_rows(0, cochain_dim(n), one_minus_h, h_minus_1, n) if n > 2 else []

    # (1) lambda vanishes on im T
    out += map(list, rows.transfer)

    # (2) one V-valued condition per basis pair, in its g^{-1}-twisted form:
    # the twist row plus - lambda(e_b)(e_a - ^h e_a)_r + lambda(e_a)(e_b - ^h e_b)_r
    for a, b, r, twist in rows.twist:
        u, v = h_minus_1[r][a], one_minus_h[r][b]
        if u or v or any(twist):
            row = list(twist)
            row[b] = u
            row[a] = v
            out.append(row)
    return out


def cocycle_conditions(gr: CyclicGroup, i: int) -> Matrix:
    """Matrix whose kernel is Z^2_{-1}(h), h = g^i, in flat coordinates:
    the condition rows of the complex, as built, once d^2 = 0 holds on them
    (over Q the integer rows, each a positive multiple of its condition, as
    Fractions: `_of_ints`)."""
    cond = _guarded_complex(gr, i, group_rows(gr))[0]
    return _of_ints(gr.field, cond, 1, cochain_dim(gr.n))


def coboundary_matrix(gr: CyclicGroup, i: int) -> Matrix:
    """The (n + n*C(n,2)) x n matrix taking f in V* to d(f tensor h) in the
    flat coordinates at h = g^i (lambda lands at tag hg).  Only 1 - g and
    1 - h are built, so im T is not derived for it."""
    _check_index(gr, i)
    f = gr.field
    return Matrix._of(f, _coboundary_rows(f.zero(), _signed_shifts(f, gr.generator)[0],
                                          *_signed_shifts(f, gr.power(i))), gr.n)


def distinguished_constraints(gr: CyclicGroup, i: int) -> Tuple[int, ...]:
    """The flat coordinates, strictly increasing, at which the distinguished
    representatives at h = g^i vanish: the cocycles that are zero there are
    the distinguished ones.  pi_h o alpha = 0 sets alpha's values to 0 at
    the pivot columns of V_h; lambda = 0 on (V^G)^perp at codim 0, or on
    (V^h)^perp at codim 1 with chi_h nontrivial, sets lambda_j to 0 at the
    non-pivot columns j of that space.  Every other case condition holds on
    the cocycles of this cut (module docstring), so no coordinate states it."""
    _check_index(gr, i)
    n, ed = gr.n, gr.element(i)
    kept = range(n)                 # the lambda coordinates outside the cut
    if ed.codim == 0:
        kept = gr.invariants()._pivots
    elif ed.codim == 1 and ed.chi_of_generator != gr.field.one():
        kept = ed.fixed_space._pivots
    # pi_h o alpha = 0: alpha's values vanish at the pivot columns of V_h
    return tuple(j for j in range(n) if j not in kept) + tuple(
        n + w * n + c for w in range(len(wedge_pairs(n))) for c in ed.moved_space._pivots)


def _check_index(gr: CyclicGroup, i: int) -> None:
    if not 0 <= i < gr.order:
        raise ValueError("element index %d outside 0..%d" % (i, gr.order - 1))


def _guarded_complex(gr: CyclicGroup, i: int, rows: GroupRows,
                     gamma: Sequence[Scalar] | None = None) -> Tuple[List[list], List[list]]:
    """The rows of the cocycle conditions and of the coboundary matrix at
    h = g^i, built from gr's record `rows` as new lists of ints (over Q
    times the record's scale), once d^2 = 0 holds on them.  Every complex
    the oracle builds comes from here.

    Given gamma, a cochain of cochain_dim(n) ints (over F_p canonical, over
    Q a positive multiple of the cochain), the
    coboundary rows come back as [cob | gamma], one column more, and the
    one product cond @ [cob | gamma] serves both checks: its n coboundary
    columns are tested for zero first, on every row, and then its last
    column, cond gamma, whose first nonzero entry raises NotACocycleError
    with that row of cocycle_conditions.  So on return every column of the
    product is zero."""
    _check_index(gr, i)
    f = gr.field
    shifts = _signed_shifts(f, gr.power(i), rows.scale)
    cond = _condition_rows(rows, *shifts)
    cob = _coboundary_rows(0, rows.one_minus_g, *shifts)
    if gamma is not None:
        cob = [r + [x] for r, x in zip(cob, gamma)]
    d2 = _product(cond, cob, gr.n + (gamma is not None), f.p)
    if any(map(any, d2 if gamma is None else (r[:-1] for r in d2))):
        raise AssertionError("coboundaries violate the cocycle conditions at element %d" % i)
    if gamma is not None:
        bad = next((r for r, row in enumerate(d2) if row[-1]), None)
        if bad is not None:
            raise NotACocycleError("cochain violates the cocycle conditions at element %d: "
                                   "first violated row %d of cocycle_conditions" % (i, bad),
                                   i, bad)
    return cond, cob


def _cohomology(gr: CyclicGroup, i: int, rows: GroupRows, order: Sequence[int] | None = None,
                reduced: int | None = None) -> Tuple[ComplexDims, List[list], Tuple[int, ...]]:
    """The dimensions of the complex at h = g^i, the nonzero rows of its
    conditions' elimination with respect to `order` (the same kernel, in at
    most cochain_dim rows) and their pivot columns, row k pivoting at the
    k-th.  `_eliminate` visits the columns in that order, and the rows that
    pivot among its first `reduced` columns (by default all of them) are
    RREF rows there; the rest are not to be read.  b is the rank of the
    coboundary rows, which nothing reads after it."""
    f, dim = gr.field, cochain_dim(gr.n)
    cond, cob = _guarded_complex(gr, i, rows)
    b = len(_eliminate(f, cob, gr.n, None, 0)[0])
    piv, _ = _eliminate(f, cond, dim, order, reduced)
    z = dim - len(piv)
    hh = z - b
    if hh < 0:
        raise AssertionError("negative cohomology dimension at element %d" % i)
    return ComplexDims(z, b, hh), cond[:len(piv)], piv


def per_element_cohomology(gr: CyclicGroup, i: int, rows: GroupRows) -> ComplexDims:
    """z, b and hh of the complex at h = g^i; `rows` is gr's record.  Only
    ranks are read, so no row is reduced above its pivot."""
    return _cohomology(gr, i, rows, None, 0)[0]


def oracle_report(gr: CyclicGroup) -> List[ComplexDims]:
    """The dimensions of every element's complex, all from one record; each
    complex's rows are dropped as soon as its dimensions are read."""
    rows = group_rows(gr)
    return [per_element_cohomology(gr, i, rows) for i in range(gr.order)]


def representative_basis(gr: CyclicGroup, i: int, rows: GroupRows) -> List[CochainTwo]:
    """Basis of Z^2_{-1}(h) cut down by the distinguished constraints; its
    size must equal hh_dim (that is the uniqueness statement).  `rows` is
    gr's record.  The conditions are eliminated once, visiting the
    coordinates outside the cut in descending order and then the cut.  The
    first steps see only the free coordinates, and the cut steps subtract
    rows that are zero there, so the rows pivoting outside the cut, read
    there, are a descending RREF whose kernel is {x in Z : x = 0 on the
    cut}.  Their kernel vectors (`_kernel_rows`), zero at the cut, are its
    RREF basis: the basis of ker [Z; unit rows at the cut].  Only those rows
    are read, and only at the free coordinates, so the cut steps reduce no
    row above their pivot."""
    f, dim = gr.field, cochain_dim(gr.n)
    cut = distinguished_constraints(gr, i)
    free = sorted(set(range(dim)).difference(cut))
    dims, zrows, piv = _cohomology(gr, i, rows, free[::-1] + list(cut), len(free))
    k = len(set(piv).difference(cut))           # the rows pivoting outside the cut
    basis = _kernel_rows(f, zrows[:k], piv[:k], free, dim)
    if len(basis) != dims.hh_dim:
        raise DimensionMismatchError(
            "distinguished space has dim %d but hh_dim is %d at element %d"
            % (len(basis), dims.hh_dim, i))
    return [CochainTwo._of(f, gr.n, i, flat) for flat in basis]


def reduce_to_representative(gr: CyclicGroup, gamma: CochainTwo) -> Tuple[CochainTwo, CochainOne]:
    """The distinguished representative of gamma's class, plus the 1-cochain
    witness f with gamma - d(f tensor h) distinguished.

    Each matrix is read once.  The d^2 = 0 guard carries gamma, so one
    product cond @ [dmat | gamma] tests both d^2 = 0 and gamma's cocycle
    conditions, on the rows as built; neither the rank of the coboundaries
    nor the RREF of the conditions is taken, and the representative, a
    combination of the columns of [dmat | gamma], is a cocycle by that
    product.  The rows of [dmat | gamma] at the distinguished cut and one
    elimination of them (`solve`) give f and the kernel of dmat's rows
    there; the rows as built, applied to one vector and to each kernel
    vector, give the representative and dmat there.  A non-cocycle raises
    NotACocycleError with the element index and the first violated row of
    cocycle_conditions(gr, i)."""
    i = gamma.element_index
    f = gr.field
    if gamma.field != f or gamma.n != gr.n:
        raise ValueError("cochain over %r with n = %d, group over %r with n = %d"
                         % (gamma.field, gamma.n, f, gr.n))
    # the input boundary: a hand-built gamma may be ragged, or hold entries
    # >= p, or Fractions over F_p, so its shape is checked and its entries
    # are coerced once, here, and every vector below is canonical.  Its
    # entries are scalars: a str is refused.
    n, k = gr.n, len(wedge_pairs(gr.n))
    if len(gamma.lam) != n or len(gamma.alpha) != k or any(len(a) != n for a in gamma.alpha):
        raise ValueError("cochain needs %d lambda entries and %d alpha values of %d entries"
                         % (n, k, n))
    flat = gamma.flat()
    if any(isinstance(x, str) for x in flat):
        raise TypeError("cochain entries must be scalars, not strings")
    flat = [f.coerce(x) for x in flat]
    rows = group_rows(gr)
    p, s = f.p, rows.scale or 1
    # aug holds the rows of [s dmat | d gamma] as built, ints (s = d = 1
    # over F_p); the guard found every column of cond @ aug zero
    (gamma_ints,), d = _int_rows(f, [flat])
    aug = _guarded_complex(gr, i, rows, gamma_ints)[1]
    cut = distinguished_constraints(gr, i)
    # the rows of [dmat | gamma] at the cut, exactly: over Q dmat's over s
    at_cut = [aug[c] for c in cut] if p is not None else \
        [[Fraction(x, s) for x in aug[c][:n]] + [flat[c]] for c in cut]
    f0, kernel = solve(Matrix._of(f, at_cut, n + 1))
    if f0 is None:
        raise AssertionError("no coboundary reaches the distinguished subspace")
    def applied(v):
        # aug v for an int vector v, reduced mod p over F_p
        out = [sum(map(mul, row, v)) for row in aug]
        return out if p is None else [x % p for x in out]

    # with f0 = f0_ints / e, aug v for v = (-d f0_ints, s e) is
    # s e d (gamma - dmat f0), the representative.  It is a cocycle with no
    # further check: cond (aug v) = (cond @ aug) v, and the guard found
    # cond @ aug zero
    (f0_ints,), e = _int_rows(f, [f0])
    rep_flat = applied([-d * x for x in f0_ints] + [s * e])
    if any(rep_flat[c] for c in cut):
        raise AssertionError("representative escapes the distinguished subspace")
    # uniqueness: every f-freedom (dmat k = 0 at the cut) leaves the
    # representative untouched (dmat k = 0)
    if any(any(applied([*k, 0])) for k in _int_rows(f, kernel)[0]):
        raise AssertionError("distinguished representative is not unique")
    if p is None:
        rep_flat = [Fraction(x, s * e * d) for x in rep_flat]
    return CochainTwo._of(f, n, i, rep_flat), CochainOne(f0)
