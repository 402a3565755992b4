"""Per-element group geometry: orders, fixed/moved spaces, the transfer
map, characters, reflections, and the induced module actions."""

import pytest

from skewcoh import (
    CyclicGroup,
    Field,
    Matrix,
    NotGStableError,
    NotInvertibleError,
    OrderExceedsBoundError,
    Subspace,
    chi_invariants,
    group_from_generator,
    image_basis,
    kron,
    wedge2_matrix,
    wedge_pairs,
)

from skewcoh.group_action import quotient_matrix, restricted_matrix

from conftest import SUITE, dual_matrix, suite_group, transfer_matrix

F3 = Field.prime(3)
F5 = Field.prime(5)
Q = Field.rational()


def full(field, n):
    return Subspace(field, n, Matrix.identity(field, n).rows)


# -- construction and order -------------------------------------------------

def test_orders(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    assert gr.order == order
    assert gr.power(order) == Matrix.identity(gr.field, gr.n)
    # no smaller positive power is the identity
    for i in range(1, order):
        assert gr.power(i) != Matrix.identity(gr.field, gr.n)


def test_singular_generator_rejected():
    with pytest.raises(NotInvertibleError):
        group_from_generator(F3, [[1, 1], [1, 1]])


def test_group_takes_the_field_of_its_generator():
    for f in (F5, Q):
        gr = CyclicGroup(Matrix(f, [[1, 0], [0, -1]]))
        assert gr.field == f and gr.order == 2


def test_nonsquare_generator_rejected():
    with pytest.raises(ValueError):
        group_from_generator(F3, [[1, 0]])


def test_infinite_order_hits_the_bound():
    # unipotent over Q never returns to the identity
    with pytest.raises(OrderExceedsBoundError):
        group_from_generator(Q, [[1, 1], [0, 1]], order_bound=50)


def test_rational_order_is_found_modulo_a_prime():
    # denominators 3 and 5 rule out q = 3 and 5, so the order is read mod 7;
    # a conjugate of the rotation of order 4
    gr = group_from_generator(Q, [[0, "-3/5"], ["5/3", 0]], order_bound=4)
    assert gr.order == 4
    with pytest.raises(OrderExceedsBoundError, match="order exceeds bound 3"):
        group_from_generator(Q, [[0, "-3/5"], ["5/3", 0]], order_bound=3)
    # diag(3, 1/3) has order 4 mod 5 but infinite order over Q
    with pytest.raises(OrderExceedsBoundError, match="infinite order"):
        group_from_generator(Q, [[3, 0], [0, "1/3"]])
    # -1 has order 2 everywhere; an order-6 rotation (x^2 - x + 1)
    assert group_from_generator(Q, [[-1]]).order == 2
    assert group_from_generator(Q, [[0, -1], [1, 1]]).order == 6


# -- element data -------------------------------------------------------------

def test_codims(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    assert [gr.element(i).codim for i in range(order)] == codims
    for i in range(order):
        ed = gr.element(i)
        assert ed.fixed_space.dim + ed.codim == gr.n
        assert ed.moved_space.dim == ed.codim
        for space in (ed.fixed_space, ed.moved_space):
            joined = space.basis.rows + space.complement().basis.rows
            assert Subspace(gr.field, gr.n, joined) == full(gr.field, gr.n)


def test_transvection_element_data():
    gr = suite_group("transvection_f3")
    ed = gr.element(1)
    e1 = Subspace(F3, 2, [[1, 0]])
    assert ed.fixed_space == e1
    assert ed.moved_space == e1
    assert ed.codim == 1
    assert ed.chi_of_generator == 1


def test_identity_element_data():
    gr = suite_group("transvection_f3")
    ed = gr.element(0)
    assert ed.fixed_space == full(F3, 2)
    assert ed.moved_space.dim == 0
    assert ed.codim == 0
    assert ed.chi_of_generator == 1


def test_diag_reflection_element_data():
    gr = suite_group("diag_1_m1_f5")
    ed = gr.element(1)
    assert ed.fixed_space == Subspace(F5, 2, [[1, 0]])
    assert ed.moved_space == Subspace(F5, 2, [[0, 1]])
    assert ed.codim == 1
    assert ed.chi_of_generator == F5.coerce(-1)


def test_chi_is_a_character(suite_entry):
    """det of the quotient action is multiplicative along the powers."""
    name, gr, order, codims, dims, imt = suite_entry
    f = gr.field
    for i in range(order):
        ed = gr.element(i)
        chi_g = ed.chi_of_generator
        expect = f.one()
        for a in range(order):
            q = quotient_matrix(gr.power(a), ed.fixed_space)
            assert q.det() == expect
            expect = f.mul(expect, chi_g)
        assert expect == f.one()   # chi^N = 1


def test_fixed_and_moved_spaces_are_stable(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    g = gr.generator
    for i in range(order):
        ed = gr.element(i)
        for u in ed.fixed_space.basis_rows():
            assert ed.fixed_space.contains(g.apply(u))
        for u in ed.moved_space.basis_rows():
            assert ed.moved_space.contains(g.apply(u))


# -- transfer -----------------------------------------------------------------

def test_transfer_dims(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    t = gr.transfer()
    assert t.dim == imt
    assert t == image_basis(transfer_matrix(gr))     # the sum of the powers, one by one
    assert gr.invariants().contains_space(t)
    for i in range(order):
        assert gr.element(i).fixed_space.contains_space(t)


def test_transvection_transfer_is_zero():
    gr = suite_group("transvection_f3")
    assert transfer_matrix(gr).is_zero()
    assert gr.transfer().dim == 0


def test_trivial_group_transfer_is_identity():
    gr = suite_group("trivial_n2_f3")
    assert transfer_matrix(gr) == Matrix.identity(F3, 2)
    assert gr.transfer() == full(F3, 2)


def test_nontrivial_transfer_image():
    gr = suite_group("jordan4_refl_f3")
    t = gr.transfer()
    assert t.dim == 1
    assert t.contains([1, 0, 0, 0])


# -- induced actions ------------------------------------------------------------

def test_wedge2_is_det_for_n2():
    m = Matrix(F5, [[2, 0], [0, 3]])
    assert wedge2_matrix(m) == Matrix(F5, [[1]])   # 6 = 1 mod 5
    assert wedge_pairs(2) == [(0, 1)]


def test_dual_is_inverse_transpose():
    g = Matrix(F3, [[1, 1], [0, 1]])
    assert dual_matrix(g) == Matrix(F3, [[1, 0], [-1, 1]])


def test_induced_action_is_h_on_v_tensor_wedge2_of_the_dual(suite_entry):
    # the library reads h^{-1} off the stored powers; the reference inverts h
    name, gr, order, codims, dims, imt = suite_entry
    for i in range(order):
        h = gr.power(i)
        assert gr.induced_action(i) == kron(h, wedge2_matrix(dual_matrix(h)))


def test_quotient_action_of_transvection():
    gr = suite_group("transvection_f3")
    ed = gr.element(1)
    q = quotient_matrix(gr.generator, ed.moved_space)
    assert q == Matrix.identity(F3, 1)


def test_induced_actions_are_homomorphisms(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    for action in (gr.power, lambda i: dual_matrix(gr.power(i)),
                   lambda i: wedge2_matrix(gr.power(i)),
                   gr.induced_action):
        a1 = action(1)
        if a1.nrows == 0:
            continue
        acc = Matrix.identity(gr.field, a1.nrows)
        for _ in range(order):
            acc = acc @ a1
        assert acc == Matrix.identity(gr.field, a1.nrows)
        # power i of the generator action equals the action of g^i
        a2 = action(2)
        assert a2 == a1 @ a1


def test_tensor_action_dimensions():
    gr = suite_group("trivial_n3_q")
    act = gr.induced_action(0)
    assert act.nrows == 3 * 3   # n * C(n,2)
    assert act == Matrix.identity(Q, 9)


def test_quotient_by_unstable_subspace():
    gr = suite_group("transvection_f3")
    with pytest.raises(NotGStableError):
        quotient_matrix(gr.generator, Subspace(F3, 2, [[0, 1]]))
    with pytest.raises(NotGStableError):
        restricted_matrix(gr.generator, Subspace(F3, 2, [[0, 1]]))


# -- chi invariants ----------------------------------------------------------------

def test_chi_invariants_trivial():
    assert chi_invariants(Matrix.identity(F5, 2), 1) == full(F5, 2)


def test_chi_invariants_sign():
    g = Matrix(F5, [[1, 0], [0, -1]])
    assert chi_invariants(g, -1) == Subspace(F5, 2, [[0, 1]])


def test_chi_invariants_unipotent_has_no_sign_part():
    g = Matrix(F3, [[1, 1], [0, 1]])
    assert chi_invariants(g, -1).dim == 0


# -- reflections -------------------------------------------------------------------

def reflection_kind(gr, i):
    """(is a reflection, is a nondiagonalizable reflection) for g^i."""
    ed = gr.element(i)
    return ed.codim == 1, ed.transvection


def test_transvection_is_nondiagonalizable_reflection():
    gr = suite_group("transvection_f3")
    assert reflection_kind(gr, 1) == (True, True)
    assert reflection_kind(gr, 2) == (True, True)


def test_diag_reflection_is_diagonalizable():
    gr = suite_group("diag_1_m1_f5")
    assert reflection_kind(gr, 1) == (True, False)


def test_identity_is_no_reflection():
    gr = suite_group("transvection_f3")
    assert reflection_kind(gr, 0) == (False, False)


def test_jordan3_reflection_types():
    gr = suite_group("jordan3_refl_f3")
    kinds = {i: reflection_kind(gr, i) for i in range(6)}
    # g^2 and g^4 are unipotent reflections, g^3 = diag(1,1,-1) is diagonalizable
    assert kinds[2] == (True, True)
    assert kinds[4] == (True, True)
    assert kinds[3] == (True, False)
    assert kinds[0] == (False, False)


def test_nondiagonalizable_reflection_kills_transfer(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    if any(gr.element(i).transvection for i in range(order)):
        assert gr.transfer().dim == 0

