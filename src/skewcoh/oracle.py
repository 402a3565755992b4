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
(condition (1) and the lambda cuts, and the pi_h cut on alpha),
`_jacobi_rows` (condition (3)), `_coboundary_rows` (d(f tensor h)) and
`_wedge_vanish_rows` (the alpha(u ^ v) = 0 cuts).  The test suite's
assembled complex reuses them at other offsets, with condition (2) in its
pre-decomposition form, as an independent check of the lambda-to-hg
bookkeeping.

The elimination takes the first candidate row as the pivot, and a dense
pivot row fills every row it is subtracted from.  So `cocycle_conditions`
lists the sparse rows first, condition (3) (at most six nonzeros a row),
then (1), then (2), and builds no all-zero row: a condition (3) row whose
entries 1 - h kills is skipped before it is built (at h = 1 all of them
are), and so is a condition (2) row that comes out zero.  The row space,
and so the RREF, z and the stored rows, are those of every row in any
order.

What does not depend on the element is built once per group, by
`_group_rows`: the condition (1) rows from im T, the alpha-twist block of
condition (2) (from g^{-1}, the stored power g^{N-1}, and wedge^2 g), and
1 - g, which gives the coboundary's lambda rows.  `oracle_report` builds
that record once and hands it to every element, and so does the CLI's
`reps` to `representative_basis`; a caller that passes none
(`reduce_to_representative`, a direct call) gets one built for the call,
or, from `coboundary_matrix`, just 1 - g.  Per element there remain
1 - h, the lambda coupling of condition (2) (two entries on a copy of each
twist row), condition (3) and the coboundary's alpha rows, all built entry
by entry with plain int or Fraction arithmetic (one `% p` per entry over
F_p), and then, on every complex, the d^2 = 0 product, `rank` of the
coboundary matrix and one `rref` of the conditions.

The distinguished representatives satisfy pi_h o alpha = 0, where pi_h
projects V onto V_h along the pivot-completion complement of V_h: the span
of the unit vectors e_j at the columns j that are not pivots of V_h's RREF
basis.  A vector lies in that complement iff it vanishes at the pivot
columns, so the cut is "alpha(e_a ^ e_b)_c = 0 for every pivot column c of
V_h", with no matrix inverse.  Distinguished constraints are built only by
`representative_basis` and `reduce_to_representative`.

`per_element_cohomology` builds each complex and eliminates its cocycle
conditions once: z is read from the pivots of their RREF, and
`PerElementComplex.cocycle_condition_matrix` keeps the nonzero RREF rows
(the same kernel, in at most cochain_dim rows).  `representative_basis`
stacks the distinguished cut under those rows, and
`reduce_to_representative` tests cocycle membership against them.  The
d^2 = 0 check multiplies the unreduced conditions by the coboundary matrix
every time a complex is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

from .fields import Field, Scalar
from .group_action import CyclicGroup, wedge_pairs, sym_pairs, wedge2_matrix
from .linalg import Matrix, kernel_basis, rank, rref, solve


class NotACocycleError(ValueError):
    pass


class DimensionMismatchError(AssertionError):
    pass


@dataclass(frozen=True)
class CochainTwo:
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


@dataclass(frozen=True)
class CochainOne:
    element_index: int
    f: Tuple[Scalar, ...]


@dataclass(frozen=True)
class ComplexDims:
    element_index: int
    z_dim: int
    b_dim: int
    hh_dim: int


@dataclass(frozen=True)
class PerElementComplex(ComplexDims):
    cocycle_condition_matrix: Matrix     # nonzero RREF rows of cocycle_conditions
    coboundary_matrix: Matrix


def cochain_dim(n: int) -> int:
    return n + n * len(wedge_pairs(n))


def _one_minus(f: Field, m: Matrix) -> List[List[Scalar]]:
    """The rows of 1 - m, entry by entry."""
    rows = [[(a == b) - x for b, x in enumerate(r)] for a, r in enumerate(m.rows)]
    return rows if f.p is None else [[x % f.p for x in r] for r in rows]


def _negated(f: Field, rows) -> List[List[Scalar]]:
    return [[-x for x in r] for r in rows] if f.p is None else \
        [[-x % f.p for x in r] for r in rows]


def _vanish_rows(f: Field, dim: int, vectors, at: int) -> List[List[Scalar]]:
    """One row per vector u: the block of coordinates starting at column
    `at` vanishes on u, i.e. lambda(u) = 0 when that block is lambda."""
    zero = f.zero()
    rows = []
    for u in vectors:
        row = [zero] * dim
        row[at:at + len(u)] = u
        rows.append(row)
    return rows


def _jacobi_rows(f: Field, dim: int, one_minus_h, at: int) -> List[List[Scalar]]:
    """Condition (3) at h, one Sym^2-valued condition per basis triple, with
    alpha(e_a ^ e_b)_s (pair number w) in column at + w*n + s; one_minus_h
    is the rows of 1 - h.  The row at {i0, j0} reads the coordinates i0
    and j0 of the triple's three vectors, so it is built only when one of
    them is nonzero (at h = 1 none is)."""
    n = len(one_minus_h)
    zero = f.zero()
    pos = {p: k for k, p in enumerate(wedge_pairs(n))}
    x = list(zip(*one_minus_h))           # the vectors (1-h)e_t
    minus_x = list(zip(*_negated(f, one_minus_h)))
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


def _coboundary_rows(f: Field, one_minus_g, one_minus_h) -> List[List[Scalar]]:
    """The cochain_dim(n) x n matrix of f -> d(f tensor h), column j the
    image of e_j^*: lambda(e_k) = (1-g)[j][k] in row k, and
    alpha(e_a ^ e_b) = f(e_b)(1-h)e_a - f(e_a)(1-h)e_b (pair number w) in
    rows n + w*n .. n + w*n + n-1.  Both arguments are row lists."""
    n = len(one_minus_h)
    zero = f.zero()
    h_minus_1 = _negated(f, one_minus_h)
    rows = [list(col) for col in zip(*one_minus_g)]
    for a, b in wedge_pairs(n):
        for r in range(n):
            row = [zero] * n
            row[b] = one_minus_h[r][a]
            row[a] = h_minus_1[r][b]
            rows.append(row)
    return rows


def _wedge_vanish_rows(f: Field, dim: int, uv_pairs, at: int) -> List[List[Scalar]]:
    """alpha(u ^ v) = 0 for each (u, v), one row per coordinate r of the
    value: coefficient u_a v_b - u_b v_a on alpha(e_a ^ e_b)_r, alpha's block
    starting at column `at`.  A pair with u ^ v = 0 gives only zero rows,
    which are dropped."""
    p = f.p
    rows: List[List[Scalar]] = []
    for u, v in uv_pairs:
        n = len(u)
        coefs = [u[a] * v[b] - u[b] * v[a] for (a, b) in wedge_pairs(n)]
        if p is not None:
            coefs = [c % p for c in coefs]
        if not any(coefs):
            continue
        for r in range(n):
            row = [f.zero()] * dim
            for w, c in enumerate(coefs):
                if c != 0:
                    row[at + w * n + r] = c
            rows.append(row)
    return rows


@dataclass(frozen=True)
class _GroupRows:
    """The parts of every complex of one group that do not depend on the
    element h = g^i.  Condition (2) at the pair (a, b) and coordinate r is
    its alpha-twist row, (alpha - ^{g^{-1}}alpha)(e_a ^ e_b)_r, whose lambda
    block is zero, plus a lambda coupling that depends on h."""
    transfer: List[List[Scalar]]                      # condition (1): lambda(im T) = 0
    twist: List[Tuple[int, int, int, List[Scalar]]]   # (a, b, r, alpha-twist row)
    one_minus_g: List[List[Scalar]]


def _group_rows(gr: CyclicGroup) -> _GroupRows:
    """The record of gr, with g^{-1} read off the stored powers."""
    f = gr.field
    p = f.p
    n = gr.n
    pairs = wedge_pairs(n)
    dim = cochain_dim(n)
    ginv = gr.power(-1).rows
    w2g = wedge2_matrix(gr.generator).rows
    zero, one = f.zero(), f.one()
    twist = []
    for w0, (a, b) in enumerate(pairs):
        for r in range(n):
            row = [zero] * dim
            # alpha(w0)_r itself
            row[n + w0 * n + r] = one
            # minus (^{g^{-1}}alpha)(w0)_r = sum_w sum_s w2g[w][w0] ginv[r][s] alpha(w)_s
            for w in range(len(pairs)):
                c = w2g[w][w0]
                if c:
                    for s, y in enumerate(ginv[r]):
                        row[n + w * n + s] -= c * y
            twist.append((a, b, r, row if p is None else [x % p for x in row]))
    return _GroupRows(_vanish_rows(f, dim, gr.transfer().basis_rows(), 0), twist,
                      _one_minus(f, gr.generator))


def cocycle_conditions(gr: CyclicGroup, i: int, rows: _GroupRows | None = None) -> Matrix:
    """Matrix whose kernel is Z^2_{-1}(h), h = g^i, in flat coordinates."""
    f = gr.field
    n = gr.n
    dim = cochain_dim(n)
    if rows is None:
        rows = _group_rows(gr)
    one_minus_h = _one_minus(f, gr.power(i))
    h_minus_1 = _negated(f, one_minus_h)

    # (3) one Sym^2-valued condition per basis triple; the sparsest rows
    # come first, so they are the pivot rows of the elimination
    out = _jacobi_rows(f, dim, one_minus_h, n)

    # (1) lambda vanishes on im T
    out += rows.transfer

    # (2) one V-valued condition per basis pair, in its g^{-1}-twisted form:
    # the twist row plus - lambda(e_b)(e_a - ^h e_a)_r + lambda(e_a)(e_b - ^h e_b)_r
    for a, b, r, twist in rows.twist:
        u, v = h_minus_1[r][a], one_minus_h[r][b]
        if u or v or any(twist):
            row = list(twist)
            row[b] = u
            row[a] = v
            out.append(row)
    return Matrix._of(f, out, dim)


def coboundary_matrix(gr: CyclicGroup, i: int, rows: _GroupRows | None = None) -> Matrix:
    """The (n + n*C(n,2)) x n matrix taking f in V* to d(f tensor h) in the
    flat coordinates at h = g^i (lambda lands at tag hg)."""
    f = gr.field
    # without a record only 1 - g is needed, so im T is not derived for it
    one_minus_g = _one_minus(f, gr.generator) if rows is None else rows.one_minus_g
    return Matrix._of(f, _coboundary_rows(f, one_minus_g, _one_minus(f, gr.power(i))), gr.n)


def distinguished_constraints(gr: CyclicGroup, i: int) -> Matrix:
    """Linear constraints cutting out the distinguished representatives at
    h = g^i: pi_h o alpha = 0 always, plus the codimension case conditions."""
    f = gr.field
    n = gr.n
    dim = cochain_dim(n)
    ed = gr.element(i)
    rows: List[List[Scalar]] = []

    # pi_h o alpha = 0: alpha's values vanish at the pivot columns of V_h
    unit = Matrix.identity(f, n).rows
    at_pivots = [unit[c] for c in ed.moved_space._pivots]
    for w in range(len(wedge_pairs(n))):
        rows += _vanish_rows(f, dim, at_pivots, n + w * n)

    codim = ed.codim
    fixed = ed.fixed_space.basis_rows()
    if codim == 0:
        # lambda = 0 on (V^G)^perp
        rows += _vanish_rows(f, dim, gr.invariants().complement().basis_rows(), 0)
    elif codim == 1:
        # alpha = 0 on wedge^2 V^h
        rows += _wedge_vanish_rows(f, dim, combinations(fixed, 2), n)
        # chi_h nontrivial: lambda = 0 on (V^h)^perp
        if ed.chi_of_generator != f.one():
            rows += _vanish_rows(f, dim, ed.fixed_space.complement().basis_rows(), 0)
    elif codim == 2:
        # alpha(u ^ v) = 0 for u in V^h, v in V; lambda = 0 on V^h
        rows += _wedge_vanish_rows(f, dim, [(u, e) for u in fixed for e in unit], n)
        rows += _vanish_rows(f, dim, fixed, 0)
    else:
        # codim > 2: the zero cochain
        rows += Matrix.identity(f, dim).rows

    return Matrix._of(f, rows, dim)


def per_element_cohomology(gr: CyclicGroup, i: int,
                           rows: _GroupRows | None = None) -> PerElementComplex:
    if not 0 <= i < gr.order:
        raise ValueError("element index %d outside 0..%d" % (i, gr.order - 1))
    if rows is None:
        rows = _group_rows(gr)
    cond = cocycle_conditions(gr, i, rows)
    cob = coboundary_matrix(gr, i, rows)
    if not (cond @ cob).is_zero():
        raise AssertionError("coboundaries violate the cocycle conditions at element %d" % i)
    b = rank(cob)
    red, piv = rref(cond)
    z = cond.ncols - len(piv)
    hh = z - b
    if hh < 0:
        raise AssertionError("negative cohomology dimension at element %d" % i)
    zrows = Matrix._of(gr.field, red.rows[:len(piv)], cond.ncols)
    return PerElementComplex(i, z, b, hh, zrows, cob)


def oracle_report(gr: CyclicGroup) -> List[ComplexDims]:
    """The dimensions of every element's complex; each complex's matrices
    are dropped as soon as its dimensions are read."""
    rows = _group_rows(gr)
    out = []
    for i in range(gr.order):
        pec = per_element_cohomology(gr, i, rows)
        out.append(ComplexDims(i, pec.z_dim, pec.b_dim, pec.hh_dim))
    return out


def representative_basis(gr: CyclicGroup, i: int,
                         rows: _GroupRows | None = None) -> List[CochainTwo]:
    """Basis of Z^2_{-1}(h) cut down by the distinguished constraints; its
    size must equal hh_dim (that is the uniqueness statement).  `rows` is
    gr's record, as for per_element_cohomology."""
    pec = per_element_cohomology(gr, i, rows)
    ker = kernel_basis(pec.cocycle_condition_matrix.stack(distinguished_constraints(gr, i)))
    if ker.dim != pec.hh_dim:
        raise DimensionMismatchError(
            "distinguished space has dim %d but hh_dim is %d at element %d"
            % (ker.dim, pec.hh_dim, i))
    return [CochainTwo._of(gr.field, gr.n, i, row) for row in ker.basis_rows()]


def reduce_to_representative(gr: CyclicGroup, gamma: CochainTwo) -> Tuple[CochainTwo, CochainOne]:
    """The distinguished representative of gamma's class, plus the 1-cochain
    witness f with gamma - d(f tensor h) distinguished."""
    i = gamma.element_index
    f = gr.field
    if gamma.field != f or gamma.n != gr.n:
        raise ValueError("cochain over %r with n = %d, group over %r with n = %d"
                         % (gamma.field, gamma.n, f, gr.n))
    pec = per_element_cohomology(gr, i)
    cond = pec.cocycle_condition_matrix
    # the input boundary: a hand-built gamma may hold entries >= p, or
    # Fractions over F_p, so its entries are coerced once, here, and every
    # vector below is canonical.  Its entries are scalars: a str is refused.
    flat = gamma.flat()
    if any(isinstance(x, str) for x in flat):
        raise TypeError("cochain entries must be scalars, not strings")
    flat = [f.coerce(x) for x in flat]
    if len(flat) != cond.ncols:
        raise ValueError("vector length mismatch")
    if any(cond._apply(flat)):
        raise NotACocycleError("cochain violates the cocycle conditions")
    dmat = pec.coboundary_matrix
    dist = distinguished_constraints(gr, i)
    m = dist @ dmat
    f0 = solve(m, dist._apply(flat))
    if f0 is None:
        raise AssertionError("no coboundary reaches the distinguished subspace")
    correction = dmat._apply(f0)
    p = f.p
    rep_flat = [x - y if p is None else (x - y) % p for x, y in zip(flat, correction)]
    if any(dist._apply(rep_flat)):
        raise AssertionError("representative escapes the distinguished subspace")
    if any(cond._apply(rep_flat)):
        raise AssertionError("representative is not a cocycle")
    # uniqueness: every f-freedom leaves the representative untouched
    for k in kernel_basis(m).basis_rows():
        if any(dmat._apply(k)):
            raise AssertionError("distinguished representative is not unique")
    return CochainTwo._of(f, gr.n, i, rep_flat), CochainOne(i, f0)
