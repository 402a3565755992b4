"""The cocycle that `deform` lifts is a nonzero class of the oracle's complex.

`deform` certifies that the built-in transvection parameters gamma lift
(square bracket, confluence, Hilbert count), and the oracle computes the
degree -1 part of HH^2 one element at a time.  This ties the two halves of
the worked example together.  At h = g the tables give the oracle's
cochain (lambda, alpha), with lambda tagged hg = g^2:

    lambda(v_k)     = the coefficient of g^2 in gamma(g tensor v_k),
    alpha(v1 ^ v2)  = -kappa(v2 ^ v1) at g.

Both are read off `builtin_transvection_gamma(p)`, not copied by hand, and
only the oracle's public API is called.  `reduce_to_representative`
returns the cochain unchanged, and it is nonzero, so it is a distinguished
representative of a nonzero class: gamma is not a coboundary.  Flipping
alpha's sign, dropping alpha or dropping lambda each leaves Z^2_{-1}(g),
and reduce names the element and row 0 of `cocycle_conditions`.

Every single-entry shift of lambda(g tensor v1), lambda(g tensor v2),
kappa_v1 or kappa_v2 breaks confluence, but at h = g the oracle sees only
four of those entries, and two of them stay cocycles (see
`test_single_entry_shifts_break_confluence_and_two_break_the_cocycle`).
"""

import dataclasses

import pytest

from skewcoh import (
    CochainTwo,
    NotACocycleError,
    builtin_transvection_gamma,
    confluence_check,
    group_rows,
    orbifold_algebra,
    per_element_cohomology,
    reduce_to_representative,
)

H = 1       # the element h = g


def lifted_cochain(params):
    """The group and the oracle cochain at h = g read off the tables."""
    gr = params.group
    f = gr.field
    hg = (H + 1) % gr.order
    lam = tuple(params.lambda_table[(H, k)][hg] for k in (1, 2))
    # kappa(v2 ^ v1) at g is kappa_v1[g] v1 + kappa_v2[g] v2
    alpha = ((f.coerce(-params.kappa_v1[H]), f.coerce(-params.kappa_v2[H])),)
    return gr, CochainTwo(f, 2, H, lam, alpha)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_lifted_cocycle_is_a_nonzero_class(p):
    gr, gamma = lifted_cochain(builtin_transvection_gamma(p))
    f = gr.field
    assert gamma.lam == (f.coerce(-1), f.coerce(-1))
    assert gamma.alpha == ((0, f.coerce(-1)),)
    rep, witness = reduce_to_representative(gr, gamma)
    assert rep == gamma
    assert any(rep.flat())
    assert not any(witness.f)
    assert per_element_cohomology(gr, H, group_rows(gr)).hh_dim == 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("change", ["flip alpha", "drop alpha", "drop lambda"])
def test_a_broken_lifted_cocycle_is_refused_at_row_0(p, change):
    gr, gamma = lifted_cochain(builtin_transvection_gamma(p))
    f = gr.field
    zero = (f.zero(), f.zero())
    lam, alpha = gamma.lam, gamma.alpha
    if change == "flip alpha":
        alpha = (tuple(f.coerce(-x) for x in alpha[0]),)
    elif change == "drop alpha":
        alpha = (zero,)
    else:
        lam = zero
    with pytest.raises(NotACocycleError) as err:
        reduce_to_representative(gr, CochainTwo(f, 2, H, lam, alpha))
    assert (err.value.element_index, err.value.row) == (H, 0)


def single_entry_shifts(params):
    """(table name, power m, params with that entry shifted by s) for the
    four tables at h = g, every power m and every nonzero shift s."""
    f = params.group.field
    N = params.group.order
    vectors = {"lambda_v1": params.lambda_table[(H, 1)], "lambda_v2": params.lambda_table[(H, 2)],
               "kappa_v1": params.kappa_v1, "kappa_v2": params.kappa_v2}
    for name, vec in vectors.items():
        for m in range(N):
            for s in range(1, f.p):
                shifted = vec[:m] + (f.add(vec[m], s),) + vec[m + 1:]
                if name.startswith("lambda"):
                    table = dict(params.lambda_table)
                    table[(H, int(name[-1]))] = shifted
                    yield name, m, dataclasses.replace(params, lambda_table=table)
                else:
                    yield name, m, dataclasses.replace(params, **{name: shifted})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_entry_shifts_break_confluence_and_two_break_the_cocycle(p):
    """Every shift breaks confluence.  The oracle cochain at h = g reads
    only lambda(g tensor v_k) at g^2 and kappa at g, so a shift at any
    other power leaves it unchanged and reduce accepts it.  A unit change
    of lambda(g tensor v2) at g^2, or of kappa_v1 at g, is itself in
    Z^2_{-1}(g), so those shifts are still cocycles.  The 2(p - 1) shifts
    of lambda(g tensor v1) at g^2 and of kappa_v2 at g leave Z^2_{-1}(g),
    and reduce names element 1 and row 0."""
    refused = []
    shifts = list(single_entry_shifts(builtin_transvection_gamma(p)))
    assert len(shifts) == 4 * p * (p - 1)
    for name, m, params in shifts:
        assert not confluence_check(orbifold_algebra(params)).ok
        gr, gamma = lifted_cochain(params)
        try:
            reduce_to_representative(gr, gamma)
        except NotACocycleError as err:
            assert (err.element_index, err.row) == (H, 0)
            refused.append((name, m))
    assert sorted(refused) == sorted([("kappa_v2", H)] * (p - 1)
                                     + [("lambda_v1", (H + 1) % p)] * (p - 1))
