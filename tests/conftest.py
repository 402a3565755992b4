"""Shared fixtures: the regression suite of cyclic groups used across the
test modules, with their hand-checked invariants (order, per-element fixed
space codimensions, total dimension, transfer image), the assembled
cochain complex the oracle tests check the per-element split against, and
the per-element derivation that `CyclicGroup.element` shares per cyclic
subgroup, kept here as a reference, Fraction Gauss-Jordan, the
reference for the library's elimination on integer rows over Q, the
kernel and the distinguished representatives as they were once read off
three eliminations, the references for the one reversed-order
elimination of `kernel_basis` and `representative_basis`, the
entrywise alpha-twist rows of condition (2), the reference for the
oracle's Kronecker form, the dense square bracket, the reference for
the deformation layer's sparse one, the per-vector quotient and
restricted actions and the entrywise minors, Kronecker product and
transfer sum, the references for the group layer's integer-row builders,
and the helpers several test modules share (`full`, `random_cocycle`, `trial_division_is_prime`)."""

from fractions import Fraction
from typing import List, Tuple

import pytest

from skewcoh import (
    CochainTwo,
    CohomologyReport,
    CyclicGroup,
    Field,
    Matrix,
    NotGStableError,
    Scalar,
    Subspace,
    SummandReport,
    cochain_dim,
    cocycle_conditions,
    distinguished_constraints,
    eigenspace,
    group_from_generator,
    group_rows,
    image_basis,
    kernel_basis,
    kron,
    rref,
    wedge2_matrix,
    wedge_pairs,
)
from skewcoh.oracle import _coboundary_rows, _cohomology, _jacobi_rows, _vanish_rows

F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
Q = Field.rational()

# name -> (field, generator rows, order, codims, per-element dims, dim im T)
SUITE = {
    "transvection_f3": (F3, [[1, 1], [0, 1]], 3, [0, 1, 1], [2, 2, 2], 0),
    "transvection_f5": (F5, [[1, 1], [0, 1]], 5, [0, 1, 1, 1, 1], [2] * 5, 0),
    "transvection_f7": (F7, [[1, 1], [0, 1]], 7, [0] + [1] * 6, [2] * 7, 0),
    "diag_1_m1_f5": (F5, [[1, 0], [0, -1]], 2, [0, 1], [1, 0], 1),
    "diag_2_3_f5": (F5, [[2, 0], [0, 3]], 4, [0, 2, 2, 2], [0, 0, 0, 0], 0),
    "rot4_f5": (F5, [[0, -1], [1, 0]], 4, [0, 2, 2, 2], [0, 0, 0, 0], 0),
    "rot4_q": (Q, [[0, -1], [1, 0]], 4, [0, 2, 2, 2], [0, 0, 0, 0], 0),
    "jordan3_refl_f3": (F3, [[1, 1, 0], [0, 1, 0], [0, 0, -1]], 6,
                        [0, 2, 1, 1, 1, 2], [3, 0, 3, 0, 3, 0], 0),
    "jordan4_refl_f3": (F3, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, -1]], 6,
                        [0, 3, 2, 1, 2, 3], [4, 0, 1, 0, 1, 0], 1),
    "diag_2_3_4_f5": (F5, [[2, 0, 0], [0, 3, 0], [0, 0, 4]], 4,
                      [0, 3, 2, 3], [2, 0, 0, 0], 0),
    "companion8_f3": (F3, [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 8,
                      [0] + [4] * 7, [0] * 8, 0),
    "trivial_n1_q": (Q, [[1]], 1, [0], [0], 1),
    "trivial_n2_f3": (F3, [[1, 0], [0, 1]], 1, [0], [2], 2),
    "trivial_n3_q": (Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, [0], [9], 3),
}


# ROADMAP's n = 8 case, kept out of SUITE because `reps` on it is slow:
# J_2(1) + (-1) + I_5 over F_3, |G| = 6, and its per-element (z, b)
JORDAN2_REFL_I5_F3 = [[int(a == b) for b in range(8)] for a in range(8)]
JORDAN2_REFL_I5_F3[0][1] = 1
JORDAN2_REFL_I5_F3[2][2] = -1
JORDAN2_REFL_I5_F3_ZB = [(115, 2), (8, 8), (45, 7), (8, 8), (45, 7), (8, 8)]


def suite_group(name):
    field, rows = SUITE[name][0], SUITE[name][1]
    return group_from_generator(field, rows)


def reduced_conditions(gr: CyclicGroup, i: int, record=None) -> Matrix:
    """The nonzero RREF rows of the conditions at g^i, as the oracle keeps
    them, wrapped by the trusted constructor so that nothing is coerced."""
    rows = _cohomology(gr, i, group_rows(gr) if record is None else record)[1]
    return Matrix._of(gr.field, rows, cochain_dim(gr.n))


def reference_kernel_basis(m: Matrix) -> Subspace:
    """The kernel of m as three eliminations' worth of code once built it:
    rref(m), one vector per free column j (1 at j, minus column j of the
    RREF at the pivot columns), and those vectors eliminated again into
    their RREF basis (`span`).  The reference for `kernel_basis`, which
    reads the same basis off one elimination."""
    f, n = m.field, m.ncols
    red, piv = rref(m)
    vectors = []
    for j in range(n):
        if j in piv:
            continue
        v = [f.zero()] * n
        v[j] = f.one()
        for row, c in zip(red.rows, piv):
            v[c] = f.coerce(-row[j])
        vectors.append(v)
    return span(f, n, vectors)


def reference_representative_basis(gr: CyclicGroup, i: int, record) -> List[Tuple[Scalar, ...]]:
    """The flat distinguished representatives at g^i as they were once
    built: the kernel (reference_kernel_basis) of the conditions' nonzero
    RREF rows at the coordinates outside the cut, with zeros put back at
    the cut.  The reference for `representative_basis`, which reads them
    off the conditions' one elimination."""
    f, dim = gr.field, cochain_dim(gr.n)
    zrows = _cohomology(gr, i, record)[1]
    cut = set(distinguished_constraints(gr, i))
    free = [j for j in range(dim) if j not in cut]
    ker = reference_kernel_basis(Matrix._of(f, [[r[j] for j in free] for r in zrows], len(free)))
    out = []
    for vec in ker.basis.rows:
        flat = [f.zero()] * dim
        for j, x in zip(free, vec):
            flat[j] = x
        out.append(tuple(flat))
    return out


@pytest.fixture(params=sorted(SUITE))
def suite_entry(request):
    """(name, group, order, codims, per-element dims, dim im T) for each
    suite member in turn."""
    name = request.param
    field, rows, order, codims, dims, imt = SUITE[name]
    return name, group_from_generator(field, rows), order, codims, dims, imt


def zeros(field: Field, r: int, c: int) -> Matrix:
    """The r x c zero matrix."""
    return Matrix(field, [[0] * c] * r, ncols=c)


def difference(a: Matrix, b: Matrix) -> Matrix:
    """a - b entry by entry, brought back into the field by the coercing
    constructor: the tests' own subtraction, independent of the library's
    `minus_scalar`, which rewrites only the diagonal."""
    return Matrix(a.field, [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)],
                  ncols=a.ncols)


def span(field: Field, ambient: int, rows=()) -> Subspace:
    """The span of rows in F^ambient, coerced: the column space of their
    transpose."""
    return image_basis(Matrix(field, rows, ncols=ambient).transpose())


def full(field: Field, ambient: int) -> Subspace:
    """The whole of F^ambient."""
    return span(field, ambient, Matrix.identity(field, ambient).rows)


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division, the reference for the library's test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def random_cocycle(gr: CyclicGroup, i: int, rng, low: int = 0, high: int = 6) -> CochainTwo:
    """A random element of Z at h = g^i (possibly zero): the kernel basis
    rows of the conditions, each times rng.randint(low, high), drawn in
    row order."""
    f = gr.field
    flat = [f.zero()] * cochain_dim(gr.n)
    for row in kernel_basis(cocycle_conditions(gr, i)).basis.rows:
        c = f.coerce(rng.randint(low, high))
        flat = [f.add(x, f.mul(c, y)) for x, y in zip(flat, row)]
    return CochainTwo.from_flat(f, gr.n, i, flat)


def cut_matrix(gr: CyclicGroup, i: int) -> Matrix:
    """The distinguished cut at g^i as linear constraints: one unit row of
    length cochain_dim(n) per coordinate of distinguished_constraints(gr, i).
    The kernel of Z stacked on it, [Z; cut_matrix], is the reference for
    `representative_basis`, which eliminates only the coordinates outside
    the cut."""
    dim = cochain_dim(gr.n)
    unit = Matrix.identity(gr.field, dim).rows
    return Matrix._of(gr.field, [unit[c] for c in distinguished_constraints(gr, i)], dim)


def one_minus(m: Matrix) -> Matrix:
    """1 - m for a square m, entry by entry."""
    return difference(Matrix.identity(m.field, m.nrows), m)


def elementary_conjugate(rows, steps) -> List[List[Fraction]]:
    """U g U^{-1} as Fractions, U the product of the elementary matrices
    1 + c E_ij of `steps` ((i, j, c) with i != j), each applied as the row
    step row_i += c row_j and its inverse, the column step
    col_j -= c col_i.  U and U^{-1} come from the same steps, with no
    matrix inverse; integer c make U unimodular."""
    g = [[Fraction(x) for x in r] for r in rows]
    for i, j, c in steps:
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for r in g:
            r[j] -= c * r[i]
    return g


def reference_twist(gr: CyclicGroup) -> List[Tuple[int, int, int, Tuple[Scalar, ...]]]:
    """The alpha-twist rows of condition (2), (alpha - ^{g^{-1}}alpha)(e_a ^ e_b)_r
    for each pair (a, b) and coordinate r, written out entry by entry:
    alpha(w)_s has coefficient delta - (wedge^2 g)[w][w0] (g^{-1})[r][s] in
    the row at pair number w0; the lambda columns are zero.  The reference
    for the record's Kronecker form."""
    f = gr.field
    p = f.p
    n = gr.n
    pairs = wedge_pairs(n)
    ginv = gr.power(-1).rows
    w2g = wedge2_matrix(gr.generator).rows
    twist = []
    for w0, (a, b) in enumerate(pairs):
        for r in range(n):
            row = [f.zero()] * cochain_dim(n)
            # alpha(w0)_r itself
            row[n + w0 * n + r] = f.one()
            # minus (^{g^{-1}}alpha)(w0)_r = sum_w sum_s w2g[w][w0] ginv[r][s] alpha(w)_s
            for w in range(len(pairs)):
                c = w2g[w][w0]
                if c:
                    for s, y in enumerate(ginv[r]):
                        row[n + w * n + s] -= c * y
            twist.append((a, b, r, tuple(row if p is None else [x % p for x in row])))
    return twist


def reference_square_bracket(params) -> List[Tuple[Scalar, ...]]:
    """[gamma,gamma](g^i tensor v1 ^ v2) for each i, with kappa = c (v2
    tensor g), by the dense loops `square_bracket_transvection` once ran:
    every entry of every lambda row is read, zeros included, and each
    accumulator is reduced mod p.  The reference for its sparse form."""
    gr = params.group
    N = gr.order
    table = params.lambda_table
    c = params.kappa_v2[1 % N]

    def gamma_on_ga(acc, v, k, scale):
        for j, x in enumerate(v):
            if x:
                for m, y in enumerate(table[(j, k)]):
                    acc[m] += scale * x * y

    out = []
    for i in range(N):
        acc = [0] * N
        gamma_on_ga(acc, table[(i, 2)], 1, 1)
        gamma_on_ga(acc, table[(i, 1)], 2, -1)
        for m, x in enumerate(table[(i, 2)]):
            acc[(m + 1) % N] -= c * x
        out.append(tuple(x % gr.field.p for x in acc))
    return out


def fraction_rref(m: Matrix) -> Tuple[Tuple[Tuple[Fraction, ...], ...], Tuple[int, ...], Fraction]:
    """Textbook Gauss-Jordan on the Fraction entries of m over Q, the
    reference for the library's elimination on integer rows: the RREF rows,
    the pivot columns, and (-1)^swaps times the product of the pivots met,
    which is det(m) when m is square and every column has a pivot."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots: List[int] = []
    det = Fraction(1)
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
        det *= pv
        prow[c] = Fraction(1)
        nz = [(j, prow[j] / pv) for j in range(c + 1, ncols) if prow[j]]
        for j, y in nz:
            prow[j] = y
        for i, row in enumerate(rows):
            x = row[c]
            if x and i != r:
                row[c] = Fraction(0)
                for j, y in nz:
                    row[j] -= x * y
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows)), tuple(pivots), det


def dual_matrix(m: Matrix) -> Matrix:
    """Contragredient action on V*, the inverse transpose: the independent
    reference for the library, which reads inverses off the stored powers
    of g instead."""
    return m.inverse().transpose()


def reference_restricted_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """m on the m-stable sub in its RREF basis, one basis vector u at a
    time: the coordinates of m u on the basis, by `_apply` and
    `_coordinates` in field arithmetic.  The reference for
    `restricted_matrix`, which reads m B^T at the pivots on integer rows."""
    cols = []
    for u in sub.basis.rows:
        coords, rest = sub._coordinates(m._apply(u))
        if any(rest):
            raise NotGStableError("subspace is not preserved")
        cols.append(coords)
    return Matrix._of(m.field, zip(*cols), len(cols))


def reference_quotient_matrix(m: Matrix, sub: Subspace) -> Matrix:
    """m on V/sub in the pivot-completion complement coordinates, one
    complement vector w at a time: the quotient coordinates of m w, after
    checking that m keeps every basis vector of sub in sub.  The reference
    for `quotient_matrix`, which reads C m on integer rows."""
    for u in sub.basis.rows:
        if any(sub._coordinates(m._apply(u))[1]):
            raise NotGStableError("subspace is not preserved")
    cols = [sub._coordinates(m._apply(w))[1] for w in sub.complement().basis.rows]
    return Matrix._of(m.field, zip(*cols), len(cols))


def reference_wedge2_matrix(m: Matrix) -> Matrix:
    """The 2x2 minors of m in field arithmetic, each reduced mod p over F_p:
    the reference for `wedge2_matrix`, which takes them of integer rows."""
    f, r = m.field, m.rows
    pairs = wedge_pairs(m.nrows)
    rows = [[r[a][c] * r[b][d] - r[a][d] * r[b][c] for c, d in pairs] for a, b in pairs]
    if f.p is not None:
        rows = [[x % f.p for x in row] for row in rows]
    return Matrix._of(f, rows, len(pairs))


def reference_kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product entry by entry in field arithmetic, a's index
    major: the reference for `kron`, which multiplies integer rows."""
    f = a.field
    rows = [[f.mul(x, y) for x in ra for y in rb] for ra in a.rows for rb in b.rows]
    return Matrix._of(f, rows, a.ncols * b.ncols)


def transfer_matrix(gr: CyclicGroup) -> Matrix:
    """The transfer T = sum of the powers of g, entry by entry in field
    arithmetic; `gr.transfer()` is im T, summed on integer rows."""
    n = gr.n
    return Matrix(gr.field, [[sum(p.rows[r][c] for p in gr.powers) for c in range(n)]
                             for r in range(n)], ncols=n)


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
    imt = gr.transfer().basis.rows

    rows: List[List[Scalar]] = []
    cob = [[f.zero()] * (N * n) for _ in range(dim)]
    for j in range(N):
        hj = gr.power(j)
        lam = j * blk                       # lambda_j
        prev = ((j - 1) % N) * blk + n      # alpha_{j-1}
        # (1) lambda_j(im T) = 0
        rows += _vanish_rows(f.zero(), dim, imt, lam)
        # (2) at group element g^j:
        # 0 = g alpha_{j-1}(u^v) - alpha_{j-1}(^g u ^ ^g v)
        #     - lambda_j(v)(^g u - ^{g^j} u) + lambda_j(u)(^g v - ^{g^j} v)
        gm = difference(g, hj)   # (^g - ^{g^j}) as a matrix
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
        rows += _jacobi_rows(f.zero(), dim, one_minus(hj).rows, difference(hj, one).rows, lam + n)
        # d^1 on f_j tensor g^j, in columns j*n .. j*n + n-1: its lambda rows
        # land at g^{j+1}, its alpha rows at g^j
        block = _coboundary_rows(f.zero(), one_minus(g).rows, one_minus(hj).rows,
                                 difference(hj, one).rows)
        for k, row in enumerate(block):
            at = ((j + 1) % N) * blk + k if k < n else lam + k
            cob[at][j * n:(j + 1) * n] = row

    return Matrix._of(f, rows, dim), Matrix._of(f, cob, N * n)


def reference_element(gr: CyclicGroup, i: int) -> dict:
    """What `gr.element(i)` and `gr.det(i)` report, and the actions of g
    that `gr.summand_dim(i)` reads (on V/V_h, and at codim 1 on (V^h)*),
    derived from h = g^i alone: no data
    is shared between elements, det(h) is an elimination, and both induced
    actions of g come from the per-vector `reference_quotient_matrix` and
    `reference_restricted_matrix`.  It keeps its own
    branches for the empty modules (chi = 1 at h = 1 here, the 0x0 guards
    in `reference_report`), so the library's uniform 0x0 handling is
    checked against them."""
    f = gr.field
    h = gr.power(i)
    one_minus_h = one_minus(h)
    fixed = kernel_basis(one_minus_h)
    moved = image_basis(one_minus_h)
    codim = gr.n - fixed.dim
    chi = f.one() if codim == 0 else reference_quotient_matrix(gr.generator, fixed).det()
    return {
        "fixed_space": fixed, "moved_space": moved, "codim": codim,
        "chi_of_generator": chi, "det": h.det(),
        "transvection": (codim == 1 and not one_minus_h.is_zero()
                         and (one_minus_h @ one_minus_h).is_zero()),
        "quotient_action": reference_quotient_matrix(gr.generator, moved),
        "dual_fixed_action": (dual_matrix(reference_restricted_matrix(gr.generator, fixed))
                              if fixed.dim else reference_restricted_matrix(gr.generator, fixed)),
    }


def reference_report(gr: CyclicGroup) -> CohomologyReport:
    """The formula route's report, one summand per element from
    `reference_element`."""
    f = gr.field
    out = []
    for i in range(gr.order):
        ref = reference_element(gr, i)
        quot, chi = ref["quotient_action"], ref["chi_of_generator"]
        if ref["codim"] == 0:
            piece1 = (reference_element(gr, 1 % gr.order)["fixed_space"].dim
                      - image_basis(transfer_matrix(gr)).dim)
            piece2 = eigenspace(gr.induced_action(1 % gr.order), f.one()).dim
            out.append(SummandReport(i, "identity", (("(V^G/im T)*", piece1),
                                                     ("(V tensor wedge2 V*)^G", piece2)),
                                     piece1 + piece2))
        elif ref["codim"] == 1:
            dual_fix = ref["dual_fixed_action"]
            piece_f = 1 if chi == f.one() else 0
            piece_t = (eigenspace(kron(quot, dual_fix), chi).dim
                       if quot.nrows and dual_fix.nrows else 0)
            out.append(SummandReport(i, "codim1", (("F^{chi_h}", piece_f),
                                                   ("(V/V_h tensor (V^h)*)^{chi_h}", piece_t)),
                                     piece_f + piece_t))
        elif ref["codim"] == 2:
            piece = eigenspace(quot, chi).dim if quot.nrows else 0
            out.append(SummandReport(i, "codim2", (("(V/V_h)^{chi_h}", piece),), piece))
        else:
            out.append(SummandReport(i, "vanishing", (("codim > 2", 0),), 0))
    return CohomologyReport(tuple(out), sum(s.total for s in out))
