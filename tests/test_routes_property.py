"""Property test: the formula route and the oracle route agree on random
groups, and the distinguished representatives behave.

On random invertible generators over F_3, F_5 and F_7 with n <= 3 and
order <= 30, and on signed permutation matrices over Q, every element h
must satisfy: the closed-form summand equals dim Z - dim B from the
cochain complex; the distinguished cut of Z (pi_h o alpha = 0 plus the
lambda cuts at codim 0, and at codim 1 with chi_h nontrivial) has exactly
hh_dim elements in its basis; and reducing a random cocycle to its
representative twice gives the representative again.  The prime-field
draws include diag(a, b, ab) over F_7 and F_13, whose codim-2 element
fixes a line on which g acts by chi_h(g), of order above 2, so that
V/V_h and (V^h)* give different summands.  On groups of order <= 12 the
complex assembled without the per-element split
(conftest.assembled_complex) must also satisfy d^2 = 0, and its nullity
and coboundary rank must be the sums of the per-element z and b; its
matrices grow with |G| * dim, so larger orders would dominate the run.

The same checks run in the paper's modular regime up to n = 6
(`modular_jordan_generators`): a Jordan block J_k(lam), k = 2..4, next to
one or two lines, over F_3, F_5 and F_7, conjugated, with p dividing
|G| <= 200.  An n = 6 group of order 20 to 42 takes about a second, so the
example count is small; most draws hold codim-1 and codim-2 elements in
one group, and a test counts them over 100 draws.

`reduce_to_representative` tests membership against the condition rows as
built, not the RREF rows that the oracle's `_cohomology` keeps.  On the same
groups, a random cochain must be refused with `NotACocycleError` exactly
when the stored RREF rows reject it, the error naming the element and the
first violated row of `cocycle_conditions`; a cocycle's representative
must be gamma - d(f tensor h) for the returned f and satisfy the
distinguished constraints.

The cut is a strictly increasing tuple of flat coordinates, and
`representative_basis` eliminates the conditions once, visiting the
coordinates outside the cut first, in descending order.  On random
generators over F_3, F_5 and F_7 with n <= 4 and on signed permutations,
its basis must equal, vector for vector, the RREF kernel basis of Z
stacked on the unit rows at the cut (conftest.cut_matrix), and vanish on
the cut.  On the same generators it must also equal the basis the
conditions' natural RREF rows gave through two more eliminations
(conftest.reference_representative_basis), from one `_eliminate` of the
conditions and one of the coboundary rows, for their rank, per element,
and no `rref`.

The cut holds no row for the other case conditions of the distinguished
representatives, since the cocycle conditions imply them on it (the
`oracle` module docstring gives the arguments).  So on every basis vector
of ker [Z; cut], for random generators over F_3, F_5 and F_7 with n <= 4
and for signed permutations, they are evaluated directly, at the
codimension that `reference_element` derives: alpha(u ^ v) = 0 for u, v
in V^h at codim 1, alpha(u ^ e_j) = 0 and lambda(u) = 0 for u in V^h at
codim 2, and no basis vector at all above codim 2.

Signed permutations are unimodular: every pivot of their conditions is
+-1 and no entry has a denominator, so an elimination that left a Q row
unnormalised would pass on them.  The route, reduction, implied-cut,
cut-coordinate and canonical-entry checks therefore run on signed
permutations with n <= 4 conjugated by elementary steps with
coefficients c/2 and c/7 as well (`test_condition_rows.rational_conjugates`).
"""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcoh import (
    CochainTwo,
    Field,
    Matrix,
    NotACocycleError,
    OrderExceedsBoundError,
    coboundary_matrix,
    cochain_dim,
    cocycle_conditions,
    distinguished_constraints,
    full_report,
    group_from_generator,
    group_rows,
    kernel_basis,
    oracle_report,
    rank,
    reduce_to_representative,
    representative_basis,
    wedge_pairs,
)
from skewcoh import linalg, oracle

from conftest import (assembled_complex, cut_matrix, random_cocycle, reduced_conditions,
                      reference_element, reference_representative_basis)
from test_condition_rows import rational_conjugates
from test_trusted_builders import (MODULAR_MAX_ORDER, SETTINGS, check_builders,
                                   modular_jordan_generators, prime_generators,
                                   signed_permutations)

MAX_ORDER = 30
ASSEMBLED_MAX_ORDER = 12
ROUTES = settings(SETTINGS, max_examples=60)
MODULAR = settings(SETTINGS, max_examples=8)


@st.composite
def diag_products(draw):
    """diag(a, b, ab) over F_7 or F_13."""
    f = Field.prime(draw(st.sampled_from([7, 13])))
    a, b = (draw(st.integers(1, f.p - 1)) for _ in range(2))
    return f, [[a, 0, 0], [0, b, 0], [0, 0, a * b]]


def bounded_group(field, rows, max_order=MAX_ORDER):
    try:
        return group_from_generator(field, rows, order_bound=max_order)
    except OrderExceedsBoundError:
        assume(False)


def check_routes(field, rows, seed, max_order=MAX_ORDER):
    gr = bounded_group(field, rows, max_order)
    rng = random.Random(seed)
    formula = full_report(gr).per_element
    report = oracle_report(gr)
    record = group_rows(gr)
    for i, complex_ in enumerate(report):
        assert formula[i].total == complex_.hh_dim, (field, rows, i)
        assert len(representative_basis(gr, i, record)) == complex_.hh_dim, (field, rows, i)
        rep, _ = reduce_to_representative(gr, random_cocycle(gr, i, rng, -3, 3))
        assert reduce_to_representative(gr, rep)[0] == rep, (field, rows, i)
    if gr.order <= ASSEMBLED_MAX_ORDER:
        cond, cob = assembled_complex(gr)
        assert (cond @ cob).is_zero(), rows
        assert kernel_basis(cond).dim == sum(c.z_dim for c in report), rows
        assert rank(cob) == sum(c.b_dim for c in report), rows


@ROUTES
@given(prime_generators(max_n=3) | diag_products(), st.integers(0, 2 ** 16))
def test_formula_equals_oracle_over_prime_fields(gen, seed):
    check_routes(*gen, seed)


@SETTINGS
@given(signed_permutations(), st.integers(0, 2 ** 16))
def test_formula_equals_oracle_on_signed_permutations(gen, seed):
    check_routes(*gen, seed)


@SETTINGS
@given(rational_conjugates(), st.integers(0, 2 ** 16))
def test_formula_equals_oracle_on_conjugated_rationals(gen, seed):
    check_routes(*gen, seed)


@MODULAR
@given(modular_jordan_generators(), st.integers(0, 2 ** 16))
def test_formula_equals_oracle_in_the_modular_regime(gen, seed):
    check_routes(*gen, seed, max_order=MODULAR_MAX_ORDER)


def test_modular_draws_meet_codim_1_and_codim_2_in_one_group():
    met = []

    @settings(MODULAR, max_examples=100)
    @given(modular_jordan_generators())
    def draw(gen):
        gr = group_from_generator(*gen, order_bound=MODULAR_MAX_ORDER)
        met.append({1, 2} <= {gr.element(i).codim for i in range(gr.order)})

    draw()
    assert 2 * sum(met) > len(met) >= 50, (sum(met), len(met))


def check_reduce_membership(field, rows, seed):
    gr = bounded_group(field, rows)
    f = gr.field
    rng = random.Random(seed)
    i = rng.randrange(gr.order)
    cond = cocycle_conditions(gr, i)
    zrows = reduced_conditions(gr, i)
    cob = coboundary_matrix(gr, i)
    dist = cut_matrix(gr, i)
    flats = [[f.coerce(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(cond.ncols)]
             for _ in range(3)]
    for gamma in [CochainTwo.from_flat(f, gr.n, i, v) for v in flats] + \
            [random_cocycle(gr, i, rng, -3, 3)]:
        flat = gamma.flat()
        try:
            rep, w = reduce_to_representative(gr, gamma)
        except NotACocycleError as err:
            assert any(zrows.apply(flat)), (rows, i, flat)
            row = next(r for r, x in enumerate(cond.apply(flat)) if x)
            assert (err.element_index, err.row) == (i, row)
            continue
        assert not any(zrows.apply(flat)), (rows, i, flat)
        assert rep.flat() == tuple(f.sub(x, y) for x, y in zip(flat, cob.apply(w.f)))
        assert not any(dist.apply(rep.flat()))
        # reduce proves this from its d^2 guard's product instead of checking it
        assert not any(zrows.apply(rep.flat()))


@SETTINGS
@given(prime_generators(max_n=3), st.integers(0, 2 ** 16))
def test_reduce_refuses_exactly_the_non_cocycles_over_prime_fields(gen, seed):
    check_reduce_membership(*gen, seed)


@SETTINGS
@given(signed_permutations(), st.integers(0, 2 ** 16))
def test_reduce_refuses_exactly_the_non_cocycles_on_signed_permutations(gen, seed):
    check_reduce_membership(*gen, seed)


@SETTINGS
@given(rational_conjugates(), st.integers(0, 2 ** 16))
def test_reduce_refuses_exactly_the_non_cocycles_on_conjugated_rationals(gen, seed):
    check_reduce_membership(*gen, seed)


def check_implied_cuts(field, rows):
    gr = bounded_group(field, rows)
    f, n = gr.field, gr.n
    unit = Matrix.identity(f, n).rows

    def alpha(flat, u, v):
        # alpha(u ^ v) = sum over a < b of (u_a v_b - u_b v_a) alpha(e_a ^ e_b)
        return [f.coerce(sum((u[a] * v[b] - u[b] * v[a]) * flat[n + w * n + r]
                             for w, (a, b) in enumerate(wedge_pairs(n))))
                for r in range(n)]

    for i in range(gr.order):
        ref = reference_element(gr, i)
        codim, fixed = ref["codim"], ref["fixed_space"].basis.rows
        cond, dist = cocycle_conditions(gr, i), cut_matrix(gr, i)
        cut = kernel_basis(Matrix(f, cond.rows + dist.rows, ncols=dist.ncols)).basis.rows
        assert codim <= 2 or not cut, (rows, i)
        for c in cut:
            if codim == 1:
                assert not any(any(alpha(c, u, v)) for u, v in combinations(fixed, 2)), (rows, i)
            elif codim == 2:
                assert not any(f.coerce(sum(x * y for x, y in zip(u, c))) for u in fixed), \
                    (rows, i)
                assert not any(any(alpha(c, u, e)) for u in fixed for e in unit), (rows, i)


@SETTINGS
@given(prime_generators())
def test_cut_cocycles_meet_the_implied_case_conditions_over_prime_fields(gen):
    check_implied_cuts(*gen)


@SETTINGS
@given(signed_permutations())
def test_cut_cocycles_meet_the_implied_case_conditions_on_signed_permutations(gen):
    check_implied_cuts(*gen)


@SETTINGS
@given(rational_conjugates())
def test_cut_cocycles_meet_the_implied_case_conditions_on_conjugated_rationals(gen):
    check_implied_cuts(*gen)


def check_cut_coordinates(field, rows):
    gr = bounded_group(field, rows)
    f, dim = gr.field, cochain_dim(gr.n)
    record = group_rows(gr)
    for i in range(gr.order):
        cut = distinguished_constraints(gr, i)
        assert type(cut) is tuple and all(type(c) is int for c in cut), (rows, i)
        assert all(a < b for a, b in zip(cut, cut[1:])), (rows, i)
        assert all(0 <= c < dim for c in cut), (rows, i)
        basis = [c.flat() for c in representative_basis(gr, i, record)]
        stacked = Matrix(f, cocycle_conditions(gr, i).rows + cut_matrix(gr, i).rows, ncols=dim)
        assert basis == list(kernel_basis(stacked).basis.rows), (rows, i)
        assert not any(flat[c] for flat in basis for c in cut), (rows, i)


@SETTINGS
@given(prime_generators())
def test_representatives_are_the_kernel_of_the_stacked_cut_over_prime_fields(gen):
    check_cut_coordinates(*gen)


@SETTINGS
@given(signed_permutations())
def test_representatives_are_the_kernel_of_the_stacked_cut_on_signed_permutations(gen):
    check_cut_coordinates(*gen)


@SETTINGS
@given(rational_conjugates())
def test_representatives_are_the_kernel_of_the_stacked_cut_on_conjugated_rationals(gen):
    check_cut_coordinates(*gen)


@SETTINGS
@given(rational_conjugates(), st.integers(0, 50))
def test_conjugated_rational_builders_hold_canonical_entries(gen, i):
    check_builders(*gen, i)


def check_reference_representatives(field, rows):
    gr = bounded_group(field, rows)
    record = group_rows(gr)
    for i in range(gr.order):
        gr.element(i)               # the element records are derived once, here
    calls = []

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    def refuse(*args):
        raise RuntimeError("representative_basis must read its kernel off one elimination")
    bases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_eliminate", counted("conditions", oracle._eliminate))
        mp.setattr(linalg, "rref", counted("rref", linalg.rref))
        mp.setattr(linalg, "_eliminate", counted("rref's", linalg._eliminate))
        mp.setattr(linalg, "kernel_basis", refuse)
        for i in range(gr.order):
            calls.clear()
            bases.append([c.flat() for c in representative_basis(gr, i, record)])
            # the conditions once, and the coboundary rows for their rank
            assert calls == ["conditions", "conditions"], (rows, i, calls)
    for i, basis in enumerate(bases):
        assert basis == reference_representative_basis(gr, i, record), (rows, i)


@SETTINGS
@given(prime_generators())
def test_representatives_are_the_eliminated_free_kernel_over_prime_fields(gen):
    check_reference_representatives(*gen)


@SETTINGS
@given(signed_permutations())
def test_representatives_are_the_eliminated_free_kernel_on_signed_permutations(gen):
    check_reference_representatives(*gen)
