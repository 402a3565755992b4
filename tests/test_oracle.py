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

import copy
import hashlib
import json
import random

import pytest

from skewcoh import (
    CochainOne,
    CochainTwo,
    CyclicGroup,
    Field,
    Matrix,
    NotACocycleError,
    coboundary_matrix,
    cochain_dim,
    cocycle_conditions,
    distinguished_constraints,
    full_report,
    group_from_generator,
    group_rows,
    kernel_basis,
    per_element_cohomology,
    oracle_report,
    rank,
    reduce_to_representative,
    representative_basis,
    rref,
)
from skewcoh import linalg, oracle
from skewcoh.cli import EXIT_FAIL, EXIT_PASS, main

from conftest import (
    JORDAN2_REFL_I5_F3, JORDAN2_REFL_I5_F3_ZB, SUITE, assembled_complex, cut_matrix,
    random_cocycle, reduced_conditions, span, suite_group)

F3 = Field.prime(3)
F5 = Field.prime(5)


def in_kernel(m, v):
    return all(x == 0 for x in m.apply(v))


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
    # n = 2: no triples, no transfer rows; one V-valued condition per pair,
    # whose e_2 coordinate is identically zero here and so is not built
    assert cond.nrows == 1
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
    # 0 transfer rows + 3 pairs * 3 coords + 1 triple * 6 sym coords, less
    # the two pair conditions that vanish identically (alpha(e_1^e_3)_2 and
    # alpha(e_2^e_3)_1 are fixed by the twist, and h is diagonal), which are
    # not built
    assert cond.nrows == 9 - 2 + 6
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
    record = group_rows(gr)
    for i, expected in enumerate(dims):
        pec = per_element_cohomology(gr, i, record)
        assert pec.hh_dim == expected
        assert pec.hh_dim == pec.z_dim - pec.b_dim


# diag(a, b, ab): at its codim-2 element h the fixed line is e_3, on which g
# acts by mu = ab = chi_h(g) with mu^2 != 1, so V/V_h (where g acts by mu)
# and (V^h)* (by mu^{-1}) give different codim-2 summands
CODIM2_DIAGONALS = {
    "diag_3_3_2_f7": (Field.prime(7), [[3, 0, 0], [0, 3, 0], [0, 0, 2]], [1, 0, 0, 1, 0, 0]),
    "diag_2_2_4_f13": (Field.prime(13), [[2, 0, 0], [0, 2, 0], [0, 0, 4]],
                       [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(CODIM2_DIAGONALS))
def test_codim2_summand_is_the_chi_part_of_v_mod_v_h(name):
    field, gen, dims = CODIM2_DIAGONALS[name]
    gr = group_from_generator(field, gen)
    assert [s.total for s in full_report(gr).per_element] == dims
    assert [c.hh_dim for c in oracle_report(gr)] == dims


def test_stored_cocycle_rows_are_the_reduced_conditions(suite_entry):
    # the oracle keeps the nonzero RREF rows of the conditions, which
    # representative_basis reads (reduce_to_representative reads the rows
    # as built)
    name, gr, order, codims, dims, imt = suite_entry
    for i in range(order):
        zrows = reduced_conditions(gr, i)
        assert zrows.ncols == cochain_dim(gr.n)
        red, piv = rref(zrows)
        assert red == zrows and len(piv) == zrows.nrows     # RREF, no zero rows
        assert kernel_basis(zrows) == kernel_basis(cocycle_conditions(gr, i))


# the 3-cycle, prime to p: its im T row (1, 1, 1) has nonzeros at lambda
# columns where later condition rows pivot, so an elimination that reached
# the record would rewrite it (on the suite groups it would not)
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
RECORD_GROUPS = {**{name: SUITE[name][:2] for name in SUITE},
                 "cycle3_f5": (F5, CYCLE3), "cycle3_q": (Field.rational(), CYCLE3)}


@pytest.mark.parametrize("name", sorted(RECORD_GROUPS))
def test_a_shared_record_is_read_and_never_written(name, monkeypatch):
    # each complex eliminates its condition rows in place, so the rows it
    # takes from the group record must be copies: after oracle_report and
    # representative_basis share one record, the record is as built, and
    # every result equals the one from a second record built separately
    gr = group_from_generator(*RECORD_GROUPS[name])
    order = gr.order
    alone = (oracle_report(gr),
             [representative_basis(gr, i, group_rows(gr)) for i in range(order)])
    record = group_rows(gr)
    built = copy.deepcopy(record)
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "group_rows", lambda g: record)
        shared = (oracle_report(gr), [representative_basis(gr, i, record) for i in range(order)])
    assert record == built
    assert shared == alone
    # the stored rows are exactly the nonzero rows of the conditions' RREF
    for i in range(order):
        red, piv = rref(cocycle_conditions(gr, i))
        assert reduced_conditions(gr, i, record) == \
            Matrix(gr.field, red.rows[:len(piv)], ncols=red.ncols)
    assert record == built


def perturb_coboundaries(monkeypatch, j=0):
    """Make the coboundary row builder that the d^2 = 0 guard reads add 1
    to one entry of d(e_j^* tensor h), in a row that the condition rows
    built just before it read, so that d^2 != 0.  Over F_p the entry may
    reach p, which the guard's product reduces like (x + 1) mod p."""
    real_conditions, real_coboundary = oracle._condition_rows, oracle._coboundary_rows
    column = None

    def conditions(*args):
        nonlocal column
        cond = real_conditions(*args)
        column = next(c for c in range(len(cond[0])) if any(row[c] for row in cond))
        return cond

    def perturbed(zero, *args):
        cob = real_coboundary(zero, *args)
        cob[column][j] += 1
        return cob
    monkeypatch.setattr(oracle, "_condition_rows", conditions)
    monkeypatch.setattr(oracle, "_coboundary_rows", perturbed)


def test_d_squared_guard_fires_on_a_perturbed_coboundary(monkeypatch, tmp_path, capsys):
    gr = suite_group("transvection_f3")
    perturb_coboundaries(monkeypatch)
    for i in range(gr.order):
        with pytest.raises(AssertionError, match="coboundaries violate"):
            per_element_cohomology(gr, i, group_rows(gr))
        # the condition matrix handed out alone passes the same guard
        with pytest.raises(AssertionError, match="coboundaries violate"):
            cocycle_conditions(gr, i)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"type": "prime", "p": 3},
                                "generator": [[1, 1], [0, 1]]}))
    assert main(["compare", str(path)]) == EXIT_FAIL
    assert "coboundaries violate the cocycle conditions" in capsys.readouterr().err


def test_negative_cohomology_dimension_is_refused(monkeypatch):
    # a coboundary rank above dim Z, injected, must not give a negative hh
    gr = suite_group("transvection_f3")
    real = oracle._eliminate

    def inflated(f, rows, ncols, *rest):
        # b is the rank of the coboundary rows, the one elimination of n columns
        piv, det = real(f, rows, ncols, *rest)
        return (tuple(range(cochain_dim(gr.n) + 1)) if ncols == gr.n else piv), det
    monkeypatch.setattr(oracle, "_eliminate", inflated)
    with pytest.raises(AssertionError, match="^negative cohomology dimension at element 1$"):
        per_element_cohomology(gr, 1, group_rows(gr))


def test_a_cut_that_misses_hh_dim_is_refused(monkeypatch):
    # with no distinguished rows the cut keeps all of Z (dim 3), not hh = 2
    gr = suite_group("transvection_f3")
    monkeypatch.setattr(oracle, "distinguished_constraints", lambda g, i: ())
    with pytest.raises(oracle.DimensionMismatchError,
                       match="^distinguished space has dim 3 but hh_dim is 2 at element 1$"):
        representative_basis(gr, 1, group_rows(gr))


def test_oracle_report_builds_the_group_rows_once(monkeypatch, tmp_path):
    # g^{-1}, wedge^2 g and the twist rows do not depend on the element:
    # one wedge2_matrix per report, and g^{-1} is a stored power.  A CLI
    # run builds one record too, for compare and for reps
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
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"type": "prime", "p": 3},
                                "generator": SUITE["companion8_f3"][1]}))
    for command in ("compare", "reps"):
        calls["wedge2"] = 0
        assert main([command, "--json", str(path)]) == EXIT_PASS
        assert calls == {"wedge2": 1, "inverse": 0}, command


@pytest.mark.parametrize("name", sorted(SUITE))
def test_coboundary_matrix_without_a_record_derives_no_transfer(name, monkeypatch):
    # coboundary_matrix takes no record and builds only 1 - g, so a caller
    # that wants no im T (nor anything it would warm) can call it; its rows
    # are the coboundary rows of the guarded complex.  cocycle_conditions
    # needs condition (1), so it derives im T
    gr = suite_group(name)
    record = group_rows(gr)
    guarded = [oracle._guarded_complex(gr, i, record)[1] for i in range(gr.order)]

    def no_transfer(self):
        raise AssertionError("im T derived")
    monkeypatch.setattr(CyclicGroup, "transfer", no_transfer)
    gr = suite_group(name)
    for i in range(gr.order):
        assert coboundary_matrix(gr, i).rows == tuple(map(tuple, guarded[i]))
        with pytest.raises(AssertionError, match="im T derived"):
            cocycle_conditions(gr, i)


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


def test_n8_jordan_reflection_z_and_b():
    # the n = 8 case, where most condition (3) rows vanish at every h
    gr = group_from_generator(F3, JORDAN2_REFL_I5_F3)
    assert gr.order == 6
    assert [(p.z_dim, p.b_dim) for p in oracle_report(gr)] == JORDAN2_REFL_I5_F3_ZB


def test_codim_above_two_gives_zero():
    gr = suite_group("companion8_f3")
    pec = per_element_cohomology(gr, 3, group_rows(gr))
    assert pec.hh_dim == 0


def test_trivial_group_invariant_alphas():
    gr = suite_group("trivial_n2_f3")
    pec = per_element_cohomology(gr, 0, group_rows(gr))
    assert (pec.z_dim, pec.b_dim, pec.hh_dim) == (2, 0, 2)


# -- distinguished representatives ----------------------------------------------------

def test_distinguished_cut_transvection():
    gr = suite_group("transvection_f3")
    # the single cut is the V_h component of alpha, alpha(e_0 ^ e_1)_0
    assert distinguished_constraints(gr, 1) == (2,)
    dist = cut_matrix(gr, 1)
    assert rank(dist) == 1
    assert in_kernel(dist, (2, 1, 0, 2))
    assert not in_kernel(dist, (0, 0, 1, 0))


def test_distinguished_forces_zero_above_codim_two():
    # the cut holds no codim > 2 row of its own: it meets the cocycles in 0
    gr = suite_group("companion8_f3")
    assert gr.element(2).codim > 2
    cond, dist = cocycle_conditions(gr, 2), cut_matrix(gr, 2)
    assert kernel_basis(Matrix(gr.field, cond.rows + dist.rows, ncols=dist.ncols)).dim == 0


def test_trivial_group_distinguished_is_everything():
    gr = suite_group("trivial_n2_f3")
    assert distinguished_constraints(gr, 0) == ()
    assert rank(cut_matrix(gr, 0)) == 0


def test_representative_basis_sizes(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    record = group_rows(gr)
    for i, expected in enumerate(dims):
        basis = representative_basis(gr, i, record)
        assert len(basis) == expected
        for c in basis:
            assert c.element_index == i
            assert in_kernel(cocycle_conditions(gr, i), c.flat())
            assert in_kernel(cut_matrix(gr, i), c.flat())


def test_transvection_representative_basis():
    gr = suite_group("transvection_f3")
    basis = representative_basis(gr, 1, group_rows(gr))
    flats = [c.flat() for c in basis]
    assert flats == [(1, 0, 0, 1), (0, 1, 0, 0)]
    # the class with alpha(e2 ^ e1) = e2 (i.e. alpha(e1 ^ e2) = -e2) is
    # -1 times the first basis vector: lambda(e1) = -1 comes with it
    assert CochainTwo.from_flat(F3, 2, 1, (2, 0, 0, 2)) in [
        CochainTwo.from_flat(F3, 2, 1, tuple(F3.mul(2, x) for x in flats[0]))]


def test_diag_reflection_has_no_representatives():
    gr = suite_group("diag_1_m1_f5")
    assert representative_basis(gr, 1, group_rows(gr)) == []


def test_reduce_fixes_distinguished_cocycles():
    gr = suite_group("transvection_f3")
    gamma = CochainTwo.from_flat(F3, 2, 1, (2, 1, 0, 2))
    rep, f = reduce_to_representative(gr, gamma)
    assert rep == gamma
    assert f == CochainOne((0, 0))


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
    with pytest.raises(NotACocycleError, match="violates the cocycle conditions at element 1: "
                       "first violated row 0 of cocycle_conditions") as err:
        reduce_to_representative(gr, CochainTwo.from_flat(F3, 2, 1, (0, 0, 0, 2)))
    assert (err.value.element_index, err.value.row) == (1, 0)


def test_reduce_rejects_a_cochain_of_another_field():
    gr3, gr5 = suite_group("transvection_f3"), suite_group("transvection_f5")
    gamma = representative_basis(gr5, 1, group_rows(gr5))[0]
    assert reduce_to_representative(gr5, gamma)[0] == gamma
    with pytest.raises(ValueError, match="cochain over F_5 with n = 2, group over F_3"):
        reduce_to_representative(gr3, gamma)


def test_reduce_rejects_a_cochain_of_another_dimension():
    gr = suite_group("transvection_f3")
    jordan = suite_group("jordan3_refl_f3")
    gamma = representative_basis(jordan, 0, group_rows(jordan))[0]
    with pytest.raises(ValueError, match="n = 3, group over F_3 with n = 2"):
        reduce_to_representative(gr, gamma)


@pytest.mark.parametrize("index", [-1, 3, 4])
def test_reduce_rejects_an_element_index_out_of_range(index):
    gr = suite_group("transvection_f3")
    gamma = CochainTwo.from_flat(F3, 2, index, (2, 1, 0, 2))    # a cocycle at g^1
    with pytest.raises(ValueError, match="element index %d outside 0..2" % index):
        reduce_to_representative(gr, gamma)


# every oracle function that takes an element index, by name
INDEXED = {
    "per_element_cohomology": lambda gr, i: per_element_cohomology(gr, i, group_rows(gr)),
    "representative_basis": lambda gr, i: representative_basis(gr, i, group_rows(gr)),
    "cocycle_conditions": cocycle_conditions,
    "coboundary_matrix": coboundary_matrix,
    "distinguished_constraints": distinguished_constraints,
}


@pytest.mark.parametrize("compute", sorted(INDEXED))
@pytest.mark.parametrize("index", [-1, 3, 7])
def test_element_index_out_of_range_is_rejected(compute, index):
    # the complex at i mod N would come back labelled with the raw index,
    # or, from the matrix builders, unlabelled as the complex at i mod N
    with pytest.raises(ValueError, match="element index %d outside 0..2" % index):
        INDEXED[compute](suite_group("transvection_f3"), index)


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
    assert ed.fixed_space == span(F3, 3, [[1, 0, 0], [0, 1, 0]])
    for row in kernel_basis(cocycle_conditions(gr, i)).basis.rows:
        assert row[3:6] == (0, 0, 0)    # alpha(e1 ^ e2) coordinates


# -- reduction without elimination ------------------------------------------------------

REDUCE_GROUPS = ["transvection_f3", "jordan3_refl_f3", "diag_1_m1_f5", "rot4_q", "trivial_n3_q"]


def reduce_inputs(gr):
    """Per element: every class representative shifted by d(f tensor h),
    and d(f tensor h) itself, for one f with entries 1..n."""
    f = gr.field
    out = []
    for i in range(gr.order):
        d = coboundary_matrix(gr, i).apply(list(range(1, gr.n + 1)))
        out.append(CochainTwo.from_flat(f, gr.n, i, d))
        for c in representative_basis(gr, i, group_rows(gr)):
            out.append(CochainTwo.from_flat(f, gr.n, i, [f.add(x, y) for x, y in zip(c.flat(), d)]))
    return out


def forbid_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("reduce_to_representative must not eliminate the complex")
    for name in ("per_element_cohomology", "rank", "_eliminate"):
        monkeypatch.setattr(oracle, name, refuse)


@pytest.mark.parametrize("name", REDUCE_GROUPS)
def test_reduce_neither_builds_nor_eliminates_the_per_element_complex(name, monkeypatch):
    gr = suite_group(name)
    f = gr.field
    gammas = reduce_inputs(gr)
    expected = [reduce_to_representative(gr, g) for g in gammas]
    # the last unit cochain that is not a cocycle at the last element
    i = gr.order - 1
    cond = cocycle_conditions(gr, i)
    bad = next(e for e in reversed(Matrix.identity(f, cond.ncols).rows) if any(cond.apply(e)))
    row = next(r for r, x in enumerate(cond.apply(bad)) if x)

    forbid_elimination(monkeypatch)
    assert [reduce_to_representative(gr, g) for g in gammas] == expected
    with pytest.raises(NotACocycleError, match="cocycle conditions at element %d: first "
                       "violated row %d of cocycle_conditions" % (i, row)) as err:
        reduce_to_representative(gr, CochainTwo.from_flat(f, gr.n, i, bad))
    assert (err.value.element_index, err.value.row) == (i, row)
    # the guard reads every coboundary column beside gamma's, not only the first
    for j in (0, gr.n - 1):
        with monkeypatch.context() as mp:
            perturb_coboundaries(mp, j)
            for g in gammas:
                with pytest.raises(AssertionError, match="coboundaries violate the cocycle "
                                   "conditions at element %d" % g.element_index):
                    reduce_to_representative(gr, g)


# Two conjugates over F_5 of J2(1) + (-1) + 1 (|G| = 10) and of J2(1) + diag(2, 3)
# (|G| = 20), by one fixed invertible P, so that no coordinate is special
CONJUGATED_F5 = [
    [[1, 3, 1, 3], [0, 0, 2, 1], [0, 4, 2, 3], [0, 3, 1, 4]],
    [[0, 1, 2, 2], [0, 4, 4, 2], [4, 0, 2, 4], [2, 2, 4, 1]],
]

# sha256 over every (representative, witness) pair below, as the reduction
# gave them before it read f0 and the kernel off one elimination
REDUCE_DIGEST = "ecd90a83bbbafc387fda036df9fbcd5ee98dee0771cfdd2cbc6122eeb2d23543"


def test_reduce_gives_the_pinned_representatives_and_witnesses():
    # any f0 that reaches the distinguished subspace passes the other tests;
    # this pins the particular solution (zero at the free columns)
    groups = [suite_group(name) for name in REDUCE_GROUPS]
    groups += [group_from_generator(F5, gen) for gen in CONJUGATED_F5]
    assert [gr.order for gr in groups[-2:]] == [10, 20]
    digest = hashlib.sha256()
    count = 0
    for gr in groups:
        for gamma in reduce_inputs(gr):
            rep, f0 = reduce_to_representative(gr, gamma)
            digest.update(repr(([str(x) for x in rep.flat()], [str(x) for x in f0.f])).encode())
            count += 1
    assert count == 128
    assert digest.hexdigest() == REDUCE_DIGEST


def test_reduce_refuses_a_cut_that_leaves_the_representative_free(monkeypatch):
    # with no distinguished cut every f reaches it, and at h = g, where
    # b = 1, some f moves the representative
    gr = suite_group("transvection_f3")
    gamma = representative_basis(gr, 1, group_rows(gr))[0]
    monkeypatch.setattr(oracle, "distinguished_constraints", lambda gr, i: ())
    with pytest.raises(AssertionError, match="distinguished representative is not unique"):
        reduce_to_representative(gr, gamma)


def test_reduce_refuses_a_cut_that_no_coboundary_reaches(monkeypatch):
    # the cut gamma = 0 is reached only by the coboundaries, so a cocycle
    # with a nonzero class cannot be moved into it
    gr = suite_group("transvection_f3")
    gamma = representative_basis(gr, 1, group_rows(gr))[0]
    coboundary = CochainTwo.from_flat(gr.field, gr.n, 1,
                                      coboundary_matrix(gr, 1).apply([1, 2]))
    monkeypatch.setattr(oracle, "distinguished_constraints",
                        lambda gr, i: tuple(range(cochain_dim(gr.n))))
    rep, _ = reduce_to_representative(gr, coboundary)
    assert not any(rep.flat())
    with pytest.raises(AssertionError, match="no coboundary reaches the distinguished subspace"):
        reduce_to_representative(gr, gamma)


@pytest.mark.parametrize("name", REDUCE_GROUPS)
def test_reduce_selects_the_cut_rows_and_makes_no_product(name, monkeypatch):
    # the cut is a set of coordinates, so reduce reads the rows of
    # [dmat | gamma] there, with no product
    gr = suite_group(name)
    gammas = reduce_inputs(gr)
    expected = [reduce_to_representative(gr, g) for g in gammas]

    def refuse(*args):
        raise RuntimeError("reduce_to_representative must not multiply matrices")
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert [reduce_to_representative(gr, g) for g in gammas] == expected


def test_the_cut_builds_no_matrix(suite_entry, monkeypatch):
    # the element records are derived once per subgroup; past them the cut
    # is read off their pivots, with no matrix built
    name, gr, order, codims, dims, imt = suite_entry
    for i in range(order):
        gr.element(i)

    def refuse(*args, **kwargs):
        raise RuntimeError("distinguished_constraints must build no matrix")
    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Matrix, "_of", refuse)
    for i in range(order):
        cut = distinguished_constraints(gr, i)
        assert cut == tuple(sorted(set(cut)))


@pytest.mark.parametrize("name", REDUCE_GROUPS)
def test_reduce_eliminates_once_and_builds_no_kernel_subspace(name, monkeypatch):
    gr = suite_group(name)
    gammas = reduce_inputs(gr)
    real = linalg.rref
    shapes = []

    def counted(m):
        shapes.append((m.nrows, m.ncols))
        return real(m)

    def refuse(*args, **kwargs):
        raise RuntimeError("reduce_to_representative must read the kernel off solve")
    monkeypatch.setattr(linalg, "rref", counted)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    for gamma in gammas:
        shapes.clear()
        reduce_to_representative(gr, gamma)
        # the one elimination is of the rows of [dmat | gamma] at the cut
        assert len(shapes) == 1 and shapes[0][1] == gr.n + 1


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
