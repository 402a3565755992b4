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

Each condition has one row builder, placed by column offset, which the
per-element matrices and `assembled_complex` share: `_vanish_rows`
(condition (1) and the lambda cuts, and the pi_h cut on alpha),
`_jacobi_rows` (condition (3)), `_coboundary_cols` (d(f tensor h)) and
`_wedge_vanish_rows` (the alpha(u ^ v) = 0 cuts).  Condition (2) alone is
written twice on purpose: per element in the g^{-1}-twisted form above, and
in `assembled_complex` in its pre-decomposition form, where lambda_j and
alpha_{j-1} sit in different blocks.  The second form is what makes the
assembled complex an independent check of the lambda-to-hg bookkeeping.
Distinguished constraints are built only by `representative_basis` and
`reduce_to_representative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

from .fields import Field, Scalar
from .group_action import CyclicGroup, wedge_pairs, sym_pairs, wedge2_matrix
from .linalg import Matrix, kernel_basis, rank, solve


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
        w = len(wedge_pairs(n))
        flat = [field.coerce(x) for x in flat]
        if len(flat) != n + w * n:
            raise ValueError("flat vector has wrong length")
        lam = tuple(flat[:n])
        alpha = tuple(tuple(flat[n + k * n: n + (k + 1) * n]) for k in range(w))
        return CochainTwo(field, n, i, lam, alpha)

    @staticmethod
    def zero(field: Field, n: int, i: int) -> "CochainTwo":
        w = len(wedge_pairs(n))
        return CochainTwo(field, n, i, tuple([field.zero()] * n),
                          tuple(tuple([field.zero()] * n) for _ in range(w)))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.flat())


@dataclass(frozen=True)
class CochainOne:
    element_index: int
    f: Tuple[Scalar, ...]


@dataclass(frozen=True)
class PerElementComplex:
    element_index: int
    cocycle_condition_matrix: Matrix
    coboundary_matrix: Matrix
    z_dim: int
    b_dim: int
    hh_dim: int


def cochain_dim(n: int) -> int:
    return n + n * len(wedge_pairs(n))


def _vanish_rows(f: Field, dim: int, vectors, at: int) -> List[List[Scalar]]:
    """One row per vector u: the block of coordinates starting at column
    `at` vanishes on u, i.e. lambda(u) = 0 when that block is lambda."""
    rows = []
    for u in vectors:
        row = [f.zero()] * dim
        row[at:at + len(u)] = u
        rows.append(row)
    return rows


def _jacobi_rows(f: Field, dim: int, one_minus_h: Matrix, at: int) -> List[List[Scalar]]:
    """Condition (3) at h, one Sym^2-valued condition per basis triple, with
    alpha(e_a ^ e_b)_s (pair number w) in column at + w*n + s."""
    n = one_minus_h.nrows
    pos = {p: k for k, p in enumerate(wedge_pairs(n))}
    x = [one_minus_h.col(t) for t in range(n)]     # the vectors (1-h)e_t
    spairs = sym_pairs(n)
    rows: List[List[Scalar]] = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                # alpha(e_a^e_b) (1-h)e_c + alpha(e_b^e_c) (1-h)e_a - alpha(e_a^e_c) (1-h)e_b
                terms = [(pos[(a, b)], x[c], f.one()), (pos[(b, c)], x[a], f.one()),
                         (pos[(a, c)], x[b], f.neg(f.one()))]
                for (i0, j0) in spairs:
                    row = [f.zero()] * dim
                    for (w, xt, sign) in terms:
                        # coefficient of alpha(w)_s in the monomial e_{i0} e_{j0}
                        for s, t in ((i0, j0), (j0, i0)) if i0 != j0 else ((i0, i0),):
                            coef = f.mul(sign, xt[t])
                            if coef != 0:
                                idx = at + w * n + s
                                row[idx] = f.add(row[idx], coef)
                    rows.append(row)
    return rows


def _coboundary_cols(f: Field, dim: int, one_minus_g: Matrix, one_minus_h: Matrix,
                     lam_at: int, alpha_at: int) -> List[List[Scalar]]:
    """The columns d(e_j^* tensor h), j = 0..n-1: lambda(e_k) = (1-g)[j][k] in
    column lam_at + k, and alpha(e_a ^ e_b) = f(e_b)(1-h)e_a - f(e_a)(1-h)e_b
    (pair number w) in columns alpha_at + w*n .. alpha_at + w*n + n-1."""
    n = one_minus_g.nrows
    pairs = wedge_pairs(n)
    cols: List[List[Scalar]] = []
    for j in range(n):
        col = [f.zero()] * dim
        col[lam_at:lam_at + n] = one_minus_g.rows[j]
        for w, (a, b) in enumerate(pairs):
            for r in range(n):
                v = f.zero()
                if b == j:
                    v = f.add(v, one_minus_h.rows[r][a])
                if a == j:
                    v = f.sub(v, one_minus_h.rows[r][b])
                col[alpha_at + w * n + r] = v
        cols.append(col)
    return cols


def _wedge_vanish_rows(f: Field, dim: int, uv_pairs, at: int) -> List[List[Scalar]]:
    """alpha(u ^ v) = 0 for each (u, v), one row per coordinate r of the
    value: coefficient u_a v_b - u_b v_a on alpha(e_a ^ e_b)_r, alpha's block
    starting at column `at`.  A pair with u ^ v = 0 gives only zero rows,
    which are dropped."""
    rows: List[List[Scalar]] = []
    for u, v in uv_pairs:
        n = len(u)
        coefs = [f.sub(f.mul(u[a], v[b]), f.mul(u[b], v[a])) for (a, b) in wedge_pairs(n)]
        if all(c == 0 for c in coefs):
            continue
        for r in range(n):
            row = [f.zero()] * dim
            for w, c in enumerate(coefs):
                if c != 0:
                    row[at + w * n + r] = c
            rows.append(row)
    return rows


def cocycle_conditions(gr: CyclicGroup, i: int) -> Matrix:
    """Matrix whose kernel is Z^2_{-1}(h), h = g^i, in flat coordinates."""
    f = gr.field
    n = gr.n
    pairs = wedge_pairs(n)
    dim = cochain_dim(n)
    g = gr.generator
    ginv = g.inverse()
    w2g = wedge2_matrix(g)
    one_minus_h = Matrix.identity(f, n) - gr.power(i)

    # (1) lambda vanishes on im T
    rows = _vanish_rows(f, dim, gr.transfer().image.basis_rows(), 0)

    # (2) one V-valued condition per basis pair, in its g^{-1}-twisted form
    for w0, (a, b) in enumerate(pairs):
        for r in range(n):
            row = [f.zero()] * dim
            # alpha(w0)_r itself
            row[n + w0 * n + r] = f.one()
            # minus (^{g^{-1}}alpha)(w0)_r = sum_w sum_s w2g[w][w0] ginv[r][s] alpha(w)_s
            for w in range(len(pairs)):
                c = w2g.rows[w][w0]
                if c == 0:
                    continue
                for s in range(n):
                    coef = f.mul(c, ginv.rows[r][s])
                    if coef != 0:
                        idx = n + w * n + s
                        row[idx] = f.sub(row[idx], coef)
            # - lambda(e_b)(e_a - ^h e_a)_r + lambda(e_a)(e_b - ^h e_b)_r
            row[b] = f.sub(row[b], one_minus_h.rows[r][a])
            row[a] = f.add(row[a], one_minus_h.rows[r][b])
            rows.append(row)

    # (3) one Sym^2-valued condition per basis triple
    rows += _jacobi_rows(f, dim, one_minus_h, n)
    return Matrix(f, rows, ncols=dim)


def coboundary_matrix(gr: CyclicGroup, i: int) -> Matrix:
    """The (n + n*C(n,2)) x n matrix taking f in V* to d(f tensor h) in the
    flat coordinates at h = g^i (lambda lands at tag hg)."""
    f = gr.field
    n = gr.n
    one = Matrix.identity(f, n)
    return Matrix.from_columns(f, _coboundary_cols(
        f, cochain_dim(n), one - gr.generator, one - gr.power(i), 0, n))


def distinguished_constraints(gr: CyclicGroup, i: int) -> Matrix:
    """Linear constraints cutting out the distinguished representatives at
    h = g^i: pi_h o alpha = 0 always, plus the codimension case conditions."""
    f = gr.field
    n = gr.n
    dim = cochain_dim(n)
    ed = gr.element(i)
    rows: List[List[Scalar]] = []

    # pi_h o alpha = 0: alpha values have no V_h component (w.r.t. (V_h)^perp)
    d = ed.moved_space.dim
    if d > 0:
        cols = list(ed.moved_space.basis_rows()) + list(ed.moved_complement.basis_rows())
        proj = Matrix.from_columns(f, cols).inverse().rows[:d]   # V_h coordinates of a vector
        for w in range(len(wedge_pairs(n))):
            rows += _vanish_rows(f, dim, proj, n + w * n)

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
            rows += _vanish_rows(f, dim, ed.fixed_complement.basis_rows(), 0)
    elif codim == 2:
        # alpha(u ^ v) = 0 for u in V^h, v in V; lambda = 0 on V^h
        basis = Matrix.identity(f, n).rows
        rows += _wedge_vanish_rows(f, dim, [(u, e) for u in fixed for e in basis], n)
        rows += _vanish_rows(f, dim, fixed, 0)
    else:
        # codim > 2: the zero cochain
        rows += [list(r) for r in Matrix.identity(f, dim).rows]

    return Matrix(f, rows, ncols=dim)


def per_element_cohomology(gr: CyclicGroup, i: int) -> PerElementComplex:
    cond = cocycle_conditions(gr, i)
    cob = coboundary_matrix(gr, i)
    if not (cond @ cob).is_zero():
        raise AssertionError("coboundaries violate the cocycle conditions at element %d" % i)
    z = cochain_dim(gr.n) - rank(cond)
    b = rank(cob)
    hh = z - b
    if hh < 0:
        raise AssertionError("negative cohomology dimension at element %d" % i)
    return PerElementComplex(i, cond, cob, z, b, hh)


def oracle_report(gr: CyclicGroup) -> List[PerElementComplex]:
    return [per_element_cohomology(gr, i) for i in range(gr.order)]


def representative_basis(gr: CyclicGroup, i: int) -> List[CochainTwo]:
    """Basis of Z^2_{-1}(h) cut down by the distinguished constraints; its
    size must equal hh_dim (that is the uniqueness statement)."""
    pec = per_element_cohomology(gr, i)
    ker = kernel_basis(pec.cocycle_condition_matrix.stack(distinguished_constraints(gr, i)))
    if ker.dim != pec.hh_dim:
        raise DimensionMismatchError(
            "distinguished space has dim %d but hh_dim is %d at element %d"
            % (ker.dim, pec.hh_dim, i))
    return [CochainTwo.from_flat(gr.field, gr.n, i, row) for row in ker.basis_rows()]


def reduce_to_representative(gr: CyclicGroup, gamma: CochainTwo) -> Tuple[CochainTwo, CochainOne]:
    """The distinguished representative of gamma's class, plus the 1-cochain
    witness f with gamma - d(f tensor h) distinguished."""
    i = gamma.element_index
    f = gr.field
    pec = per_element_cohomology(gr, i)
    flat = gamma.flat()
    cond = pec.cocycle_condition_matrix
    if any(x != 0 for x in cond.apply(flat)):
        raise NotACocycleError("cochain violates the cocycle conditions")
    dmat = pec.coboundary_matrix
    dist = distinguished_constraints(gr, i)
    m = dist @ dmat
    target = dist.apply(flat)
    f0 = solve(m, target)
    if f0 is None:
        raise AssertionError("no coboundary reaches the distinguished subspace")
    correction = dmat.apply(f0)
    rep_flat = tuple(f.sub(x, y) for x, y in zip(flat, correction))
    if any(x != 0 for x in dist.apply(rep_flat)):
        raise AssertionError("representative escapes the distinguished subspace")
    if any(x != 0 for x in cond.apply(rep_flat)):
        raise AssertionError("representative is not a cocycle")
    # uniqueness: every f-freedom leaves the representative untouched
    for k in kernel_basis(m).basis_rows():
        if any(x != 0 for x in dmat.apply(k)):
            raise AssertionError("distinguished representative is not unique")
    return CochainTwo.from_flat(f, gr.n, i, rep_flat), CochainOne(i, f0)


def assembled_complex(gr: CyclicGroup) -> Tuple[Matrix, Matrix]:
    """The full-degree complex built WITHOUT the per-element split, straight
    from the pre-decomposition conditions: coordinates are lambda_j and
    alpha_j per group element g^j (each attached to its own element, no
    shift pairing), so comparing its nullity/rank against the per-element
    sums exercises the lambda-to-hg bookkeeping.

    Returns (cocycle condition matrix, coboundary matrix of d^1).
    """
    f = gr.field
    n = gr.n
    N = gr.order
    pairs = wedge_pairs(n)
    blk = cochain_dim(n)
    dim = N * blk
    g = gr.generator
    w2g = wedge2_matrix(g)
    one = Matrix.identity(f, n)
    imt = gr.transfer().image.basis_rows()

    rows: List[List[Scalar]] = []
    cols: List[List[Scalar]] = []
    for j in range(N):
        hj = gr.power(j)
        lam = j * blk                       # lambda_j
        prev = ((j - 1) % N) * blk + n      # alpha_{j-1}
        # (1) lambda_j(im T) = 0
        rows += _vanish_rows(f, dim, imt, lam)
        # (2) at group element g^j:
        # 0 = g alpha_{j-1}(u^v) - alpha_{j-1}(^g u ^ ^g v)
        #     - lambda_j(v)(^g u - ^{g^j} u) + lambda_j(u)(^g v - ^{g^j} v)
        gm = g - hj   # (^g - ^{g^j}) as a matrix
        for w0, (a, b) in enumerate(pairs):
            for r in range(n):
                row = [f.zero()] * dim
                for s in range(n):
                    c = g.rows[r][s]
                    if c != 0:
                        idx = prev + w0 * n + s
                        row[idx] = f.add(row[idx], c)
                for wi in range(len(pairs)):
                    c = w2g.rows[wi][w0]
                    if c != 0:
                        idx = prev + wi * n + r
                        row[idx] = f.sub(row[idx], c)
                row[lam + b] = f.sub(row[lam + b], gm.rows[r][a])
                row[lam + a] = f.add(row[lam + a], gm.rows[r][b])
                rows.append(row)
        # (3) the commutator Jacobi condition, valued in Sym^2 V, at g^j
        rows += _jacobi_rows(f, dim, one - hj, lam + n)
        # d^1 on f_j tensor g^j: lambda at g^{j+1} plus alpha at g^j
        cols += _coboundary_cols(f, dim, one - g, one - hj, ((j + 1) % N) * blk, lam + n)

    return Matrix(f, rows, ncols=dim), Matrix.from_columns(f, cols)
