"""Brute-force cochain complex: cocycle conditions, coboundaries,
per-element dimensions, distinguished representatives, and the
assembled (unsplit) complex.

Flat coordinates at an element h are (lambda_1, ..., lambda_n,
alpha(e_a ^ e_b) vector by vector, pairs lexicographic).  For n = 2 that
is (lambda_1, lambda_2, alpha(e1^e2)_1, alpha(e1^e2)_2).

Worked values for the transvection over F_3 at h = g (derived by
substituting basis vectors into the three conditions):

    Z   = { (l1, l2, x, y) : y = l1 }               dim 3
    B   = { (0, -f1, f1, 0) }                       dim 1
    distinguished cut: x = 0 (the V_h component of alpha)
    representatives: (t, s, 0, t)                   dim 2 = hh
"""

import json
import random

import pytest

from skewcoh import (
    CochainOne,
    CochainTwo,
    Field,
    Matrix,
    NotACocycleError,
    Subspace,
    coboundary_matrix,
    cochain_dim,
    cocycle_conditions,
    distinguished_constraints,
    kernel_basis,
    per_element_cohomology,
    oracle_report,
    rank,
    reduce_to_representative,
    representative_basis,
    rref,
)
from skewcoh import oracle
from skewcoh.cli import EXIT_FAIL, main

from conftest import assembled_complex, suite_group

F3 = Field.prime(3)
F5 = Field.prime(5)


def in_kernel(m, v):
    return all(x == 0 for x in m.apply(v))


def random_cocycle(gr, i, rng):
    """Random element of Z at h = g^i (possibly zero)."""
    f = gr.field
    ker = kernel_basis(cocycle_conditions(gr, i))
    flat = [f.zero()] * cochain_dim(gr.n)
    for row in ker.basis_rows():
        c = f.coerce(rng.randint(0, 6))
        flat = [f.add(x, f.mul(c, y)) for x, y in zip(flat, row)]
    return CochainTwo.from_flat(f, gr.n, i, flat)


# -- cochain plumbing -----------------------------------------------------

def test_cochain_dim():
    assert cochain_dim(2) == 4
    assert cochain_dim(3) == 12
    assert cochain_dim(4) == 28


def test_flat_round_trip():
    c = CochainTwo.from_flat(F3, 2, 1, (2, 1, 0, 2))
    assert c.lam == (2, 1)
    assert c.alpha == ((0, 2),)
    assert c.flat() == (2, 1, 0, 2)
    assert CochainTwo.from_flat(F3, 2, 1, c.flat()) == c
    with pytest.raises(ValueError):
        CochainTwo.from_flat(F3, 2, 1, (1, 2, 3))
    zero = CochainTwo.from_flat(F3, 2, 0, (0, 0, 0, 0))
    assert zero.lam == (0, 0) and zero.alpha == ((0, 0),)


# -- cocycle conditions ------------------------------------------------------

def test_transvection_cocycle_membership():
    gr = suite_group("transvection_f3")
    cond = cocycle_conditions(gr, 1)
    # n = 2: no triples, no transfer rows; one V-valued condition per pair
    assert cond.nrows == 2
    # y = l1 is the only cut: alpha(e2^e1) = e2 alone is NOT closed ...
    assert not in_kernel(cond, (0, 0, 0, 2))
    # ... it needs the matching lambda(e1) = -1
    assert in_kernel(cond, (2, 0, 0, 2))
    assert in_kernel(cond, (2, 1, 0, 2))
    assert in_kernel(cond, (1, 2, 2, 1))
    assert not in_kernel(cond, (1, 0, 0, 2))
    z = kernel_basis(cond)
    assert z.dim == 3


def test_conditions_include_transfer_block():
    # diag(1,-1) over F_5 has im T = span{e1}: lambda(e1) = 0 is a condition
    gr = suite_group("diag_1_m1_f5")
    cond = cocycle_conditions(gr, 1)
    assert cond.nrows == 3   # one transfer row + one pair condition valued in V
    assert not in_kernel(cond, (1, 0, 0, 0))


def test_triple_conditions_appear_for_n3():
    gr = suite_group("diag_2_3_4_f5")
    cond = cocycle_conditions(gr, 1)
    # 0 transfer rows + 3 pairs * 3 coords + 1 triple * 6 sym coords
    assert cond.nrows == 9 + 6
    assert cond.ncols == 12


def test_coboundaries_are_cocycles_randomized():
    gr = suite_group("diag_1_m1_f5")
    rng = random.Random(123)
    for _ in range(100):
        i = rng.randrange(gr.order)
        cond = cocycle_conditions(gr, i)
        cob = coboundary_matrix(gr, i)
        f = [rng.randrange(5), rng.randrange(5)]
        assert in_kernel(cond, cob.apply(f))


# -- coboundaries ---------------------------------------------------------------

def test_transvection_coboundary_of_dual_fixed_vector_vanishes():
    # f = e2* pairs to zero with e_k - ^g e_k and e1 is fixed, so d(f) = 0
    gr = suite_group("transvection_f3")
    for i in range(3):
        cob = coboundary_matrix(gr, i)
        assert cob.apply((0, 1)) == (0, 0, 0, 0)


def test_transvection_coboundary_of_e1_dual():
    gr = suite_group("transvection_f3")
    for i in range(3):
        cob = coboundary_matrix(gr, i)
        # lambda = (0, -f1), alpha(e1^e2) = i * f1 * e1
        assert cob.apply((1, 0)) == (0, 2, i % 3, 0)


def test_diag_reflection_coboundary():
    gr = suite_group("diag_1_m1_f5")
    cob = coboundary_matrix(gr, 1)
    # f = e2*: lambda(e2) = f(2 e2) = 2, alpha = 0
    assert cob.apply((0, 1)) == (0, 2, 0, 0)


def test_trivial_group_has_no_coboundaries():
    gr = suite_group("trivial_n2_f3")
    assert coboundary_matrix(gr, 0).is_zero()


# -- per-element dimensions --------------------------------------------------------

def test_per_element_dims_match_formula(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    for i, expected in enumerate(dims):
        pec = per_element_cohomology(gr, i)
        assert pec.hh_dim == expected
        assert pec.hh_dim == pec.z_dim - pec.b_dim
        assert pec.element_index == i


def test_stored_cocycle_rows_are_the_reduced_conditions(suite_entry):
    # per_element_cohomology keeps the nonzero RREF rows of the conditions,
    # which representative_basis and reduce_to_representative read
    name, gr, order, codims, dims, imt = suite_entry
    for i in range(order):
        zrows = per_element_cohomology(gr, i).cocycle_condition_matrix
        assert zrows.ncols == cochain_dim(gr.n)
        red, piv = rref(zrows)
        assert red == zrows and len(piv) == zrows.nrows     # RREF, no zero rows
        assert kernel_basis(zrows) == kernel_basis(cocycle_conditions(gr, i))


def perturb_coboundaries(monkeypatch):
    """Make coboundary_matrix add 1 to one entry of d(e_0^* tensor h), in a
    row that the cocycle conditions read, so that d^2 != 0."""
    real = oracle.coboundary_matrix

    def perturbed(gr, i, rows=None):
        cob = real(gr, i, rows)
        cond = cocycle_conditions(gr, i)
        r = next(r for r in range(cond.ncols) if any(row[r] for row in cond.rows))
        rows = [list(row) for row in cob.rows]
        rows[r][0] = gr.field.add(rows[r][0], gr.field.one())
        return Matrix(gr.field, rows, ncols=cob.ncols)
    monkeypatch.setattr(oracle, "coboundary_matrix", perturbed)


def test_d_squared_guard_fires_on_a_perturbed_coboundary(monkeypatch, tmp_path, capsys):
    gr = suite_group("transvection_f3")
    perturb_coboundaries(monkeypatch)
    for i in range(gr.order):
        with pytest.raises(AssertionError, match="coboundaries violate"):
            per_element_cohomology(gr, i)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"type": "prime", "p": 3},
                                "generator": [[1, 1], [0, 1]]}))
    assert main(["compare", str(path)]) == EXIT_FAIL
    assert "coboundaries violate the cocycle conditions" in capsys.readouterr().err


def test_oracle_report_builds_the_group_rows_once(monkeypatch):
    # g^{-1}, wedge^2 g and the twist rows do not depend on the element:
    # one wedge2_matrix per report, and g^{-1} is a stored power
    calls = {"wedge2": 0, "inverse": 0}
    real_wedge2, real_inverse = oracle.wedge2_matrix, Matrix.inverse

    def wedge2(m):
        calls["wedge2"] += 1
        return real_wedge2(m)

    def inverse(m):
        calls["inverse"] += 1
        return real_inverse(m)
    monkeypatch.setattr(oracle, "wedge2_matrix", wedge2)
    monkeypatch.setattr(Matrix, "inverse", inverse)
    gr = suite_group("companion8_f3")
    assert [p.hh_dim for p in oracle_report(gr)] == [0] * 8
    assert calls == {"wedge2": 1, "inverse": 0}


def test_transvection_z_and_b():
    gr = suite_group("transvection_f3")
    report = oracle_report(gr)
    assert [p.z_dim for p in report] == [3, 3, 3]
    assert [p.b_dim for p in report] == [1, 1, 1]


def test_diag_reflection_z_and_b():
    # at h = 1: Z = {lambda(e1) = 0, alpha_1 = 0}, B = {(0, 2 f2, 0, 0)}
    # at h = g: same Z cuts, B = {(0, 2 f2, 0, -2 f1)}
    report = oracle_report(suite_group("diag_1_m1_f5"))
    assert [(p.z_dim, p.b_dim, p.hh_dim) for p in report] == [(2, 1, 1), (2, 2, 0)]


def test_codim_above_two_gives_zero():
    gr = suite_group("companion8_f3")
    pec = per_element_cohomology(gr, 3)
    assert pec.hh_dim == 0


def test_trivial_group_invariant_alphas():
    pec = per_element_cohomology(suite_group("trivial_n2_f3"), 0)
    assert (pec.z_dim, pec.b_dim, pec.hh_dim) == (2, 0, 2)


# -- distinguished representatives ----------------------------------------------------

def test_distinguished_cut_transvection():
    gr = suite_group("transvection_f3")
    dist = distinguished_constraints(gr, 1)
    # the single cut is the V_h component of alpha
    assert rank(dist) == 1
    assert in_kernel(dist, (2, 1, 0, 2))
    assert not in_kernel(dist, (0, 0, 1, 0))


def test_distinguished_forces_zero_above_codim_two():
    gr = suite_group("companion8_f3")
    dist = distinguished_constraints(gr, 2)
    assert kernel_basis(dist).dim == 0


def test_trivial_group_distinguished_is_everything():
    gr = suite_group("trivial_n2_f3")
    dist = distinguished_constraints(gr, 0)
    assert rank(dist) == 0


def test_representative_basis_sizes(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    for i, expected in enumerate(dims):
        basis = representative_basis(gr, i)
        assert len(basis) == expected
        for c in basis:
            assert c.element_index == i
            assert in_kernel(cocycle_conditions(gr, i), c.flat())
            assert in_kernel(distinguished_constraints(gr, i), c.flat())


def test_transvection_representative_basis():
    gr = suite_group("transvection_f3")
    basis = representative_basis(gr, 1)
    flats = [c.flat() for c in basis]
    assert flats == [(1, 0, 0, 1), (0, 1, 0, 0)]
    # the class with alpha(e2 ^ e1) = e2 (i.e. alpha(e1 ^ e2) = -e2) is
    # -1 times the first basis vector: lambda(e1) = -1 comes with it
    assert CochainTwo.from_flat(F3, 2, 1, (2, 0, 0, 2)) in [
        CochainTwo.from_flat(F3, 2, 1, tuple(F3.mul(2, x) for x in flats[0]))]


def test_diag_reflection_has_no_representatives():
    assert representative_basis(suite_group("diag_1_m1_f5"), 1) == []


def test_reduce_fixes_distinguished_cocycles():
    gr = suite_group("transvection_f3")
    gamma = CochainTwo.from_flat(F3, 2, 1, (2, 1, 0, 2))
    rep, f = reduce_to_representative(gr, gamma)
    assert rep == gamma
    assert f == CochainOne(1, (0, 0))


def test_reduce_kills_coboundaries():
    gr = suite_group("transvection_f3")
    for i in range(3):
        cob = coboundary_matrix(gr, i)
        gamma = CochainTwo.from_flat(F3, 2, i, cob.apply((1, 2)))
        rep, f = reduce_to_representative(gr, gamma)
        assert not any(rep.flat())
        assert cob.apply(f.f) == gamma.flat()


def test_reduce_rejects_non_cocycles():
    gr = suite_group("transvection_f3")
    with pytest.raises(NotACocycleError):
        reduce_to_representative(gr, CochainTwo.from_flat(F3, 2, 1, (0, 0, 0, 2)))


def test_reduce_rejects_a_cochain_of_another_field():
    gr3, gr5 = suite_group("transvection_f3"), suite_group("transvection_f5")
    gamma = representative_basis(gr5, 1)[0]
    assert reduce_to_representative(gr5, gamma)[0] == gamma
    with pytest.raises(ValueError, match="cochain over F_5 with n = 2, group over F_3"):
        reduce_to_representative(gr3, gamma)


def test_reduce_rejects_a_cochain_of_another_dimension():
    gr = suite_group("transvection_f3")
    gamma = representative_basis(suite_group("jordan3_refl_f3"), 0)[0]
    with pytest.raises(ValueError, match="n = 3, group over F_3 with n = 2"):
        reduce_to_representative(gr, gamma)


@pytest.mark.parametrize("index", [-1, 3, 4])
def test_reduce_rejects_an_element_index_out_of_range(index):
    gr = suite_group("transvection_f3")
    gamma = CochainTwo.from_flat(F3, 2, index, (2, 1, 0, 2))    # a cocycle at g^1
    with pytest.raises(ValueError, match="element index %d outside 0..2" % index):
        reduce_to_representative(gr, gamma)


@pytest.mark.parametrize("compute", [per_element_cohomology, representative_basis])
@pytest.mark.parametrize("index", [-1, 3])
def test_element_index_out_of_range_is_rejected(compute, index):
    # the complex at i mod N would come back labelled with the raw index
    with pytest.raises(ValueError, match="element index %d outside 0..2" % index):
        compute(suite_group("transvection_f3"), index)


@pytest.mark.parametrize("name", ["transvection_f3", "diag_1_m1_f5", "jordan3_refl_f3"])
def test_reduce_is_idempotent(name):
    gr = suite_group(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(30):
        i = rng.randrange(gr.order)
        gamma = random_cocycle(gr, i, rng)
        rep, f = reduce_to_representative(gr, gamma)
        rep2, f2 = reduce_to_representative(gr, rep)
        assert rep2 == rep
        assert all(x == 0 for x in f2.f)


def test_codim1_cocycles_vanish_on_fixed_wedge():
    # at a codimension-1 element with dim V^h = 2 every cocycle's alpha
    # kills wedge^2 V^h
    gr = suite_group("jordan3_refl_f3")
    i = 3       # g^3 = diag(1,1,-1), V^h = span{e1,e2}
    ed = gr.element(i)
    assert ed.codim == 1
    assert ed.fixed_space == Subspace(F3, 3, [[1, 0, 0], [0, 1, 0]])
    for row in kernel_basis(cocycle_conditions(gr, i)).basis_rows():
        assert row[3:6] == (0, 0, 0)    # alpha(e1 ^ e2) coordinates


# -- assembled complex ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["transvection_f3", "diag_1_m1_f5", "diag_2_3_f5",
                                  "rot4_q", "trivial_n2_f3"])
def test_assembled_complex_agrees_with_per_element_sums(name):
    gr = suite_group(name)
    cond, cob = assembled_complex(gr)
    assert (cond @ cob).is_zero()
    report = oracle_report(gr)
    assert kernel_basis(cond).dim == sum(p.z_dim for p in report)
    assert rank(cob) == sum(p.b_dim for p in report)


def test_assembled_complex_frozen_dims():
    cond, cob = assembled_complex(suite_group("transvection_f3"))
    assert (kernel_basis(cond).dim, rank(cob)) == (9, 3)
    cond, cob = assembled_complex(suite_group("diag_1_m1_f5"))
    assert (kernel_basis(cond).dim, rank(cob)) == (4, 3)
