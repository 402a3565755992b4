"""Shared fixtures: the regression suite of cyclic groups used across the
test modules, with their hand-checked invariants (order, per-element fixed
space codimensions, total dimension, transfer image), the assembled
cochain complex the oracle tests check the per-element split against, and
the per-element derivation that `CyclicGroup.element` shares per cyclic
subgroup, kept here as a reference, and Fraction Gauss-Jordan, the
reference for the library's elimination on integer rows over Q."""

from fractions import Fraction
from typing import List, Tuple

import pytest

from skewcoh import (
    CohomologyReport,
    CyclicGroup,
    Field,
    Matrix,
    Scalar,
    SummandReport,
    chi_invariants,
    cochain_dim,
    group_from_generator,
    identity_contribution,
    image_basis,
    kernel_basis,
    kron,
    wedge2_matrix,
    wedge_pairs,
)
from skewcoh.group_action import quotient_matrix, restricted_matrix
from skewcoh.oracle import _coboundary_rows, _jacobi_rows, _vanish_rows

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


def suite_group(name):
    field, rows = SUITE[name][0], SUITE[name][1]
    return group_from_generator(field, rows)


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


def transfer_matrix(gr: CyclicGroup) -> Matrix:
    """The transfer T = sum of the powers of g; `gr.transfer()` is im T."""
    t = zeros(gr.field, gr.n, gr.n)
    for p in gr.powers:
        t = t + p
    return t


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
    imt = gr.transfer().basis_rows()

    rows: List[List[Scalar]] = []
    cob = [[f.zero()] * (N * n) for _ in range(dim)]
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
        rows += _jacobi_rows(f, dim, (one - hj).rows, lam + n)
        # d^1 on f_j tensor g^j, in columns j*n .. j*n + n-1: its lambda rows
        # land at g^{j+1}, its alpha rows at g^j
        block = _coboundary_rows(f, (one - g).rows, (one - hj).rows)
        for k, row in enumerate(block):
            at = ((j + 1) % N) * blk + k if k < n else lam + k
            cob[at][j * n:(j + 1) * n] = row

    return Matrix._of(f, rows, dim), Matrix._of(f, cob, N * n)


def reference_element(gr: CyclicGroup, i: int) -> dict:
    """What `gr.element(i)`, `gr.det(i)` and `gr.subgroup_actions(i)`
    report, derived from h = g^i alone: no data is shared between elements,
    det(h) is an elimination, and both induced actions of g come straight
    from `quotient_matrix` and `restricted_matrix`.  It keeps its own
    branches for the empty modules (chi = 1 at h = 1 here, the 0x0 guards
    in `reference_report`), so the library's uniform 0x0 handling is
    checked against them."""
    f = gr.field
    h = gr.power(i)
    one_minus = Matrix.identity(f, gr.n) - h
    fixed = kernel_basis(one_minus)
    moved = image_basis(one_minus)
    codim = gr.n - fixed.dim
    chi = f.one() if codim == 0 else quotient_matrix(gr.generator, fixed).det()
    return {
        "fixed_space": fixed, "moved_space": moved, "codim": codim,
        "chi_of_generator": chi, "det": h.det(),
        "transvection": (codim == 1 and not one_minus.is_zero()
                         and (one_minus @ one_minus).is_zero()),
        "quotient_action": quotient_matrix(gr.generator, moved),
        "dual_fixed_action": (dual_matrix(restricted_matrix(gr.generator, fixed))
                              if fixed.dim else restricted_matrix(gr.generator, fixed)),
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
            out.append(identity_contribution(gr))
        elif ref["codim"] == 1:
            dual_fix = ref["dual_fixed_action"]
            piece_f = 1 if chi == f.one() else 0
            piece_t = (chi_invariants(kron(quot, dual_fix), chi).dim
                       if quot.nrows and dual_fix.nrows else 0)
            out.append(SummandReport(i, "codim1", (("F^{chi_h}", piece_f),
                                                   ("(V/V_h tensor (V^h)*)^{chi_h}", piece_t)),
                                     piece_f + piece_t))
        elif ref["codim"] == 2:
            piece = chi_invariants(quot, chi).dim if quot.nrows else 0
            out.append(SummandReport(i, "codim2", (("(V/V_h)^{chi_h}", piece),), piece))
        else:
            out.append(SummandReport(i, "vanishing", (("codim > 2", 0),), 0))
    return CohomologyReport(tuple(out), sum(s.total for s in out))
