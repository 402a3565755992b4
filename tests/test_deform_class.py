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
"""

import pytest

from skewcoh import (
    CochainTwo,
    NotACocycleError,
    builtin_transvection_gamma,
    group_rows,
    per_element_cohomology,
    reduce_to_representative,
)

H = 1       # the element h = g


def lifted_cochain(p):
    """The group and the oracle cochain at h = g read off the tables."""
    params = builtin_transvection_gamma(p)
    gr = params.group
    f = gr.field
    hg = (H + 1) % gr.order
    lam = tuple(params.lambda_table[(H, k)][hg] for k in (1, 2))
    # kappa(v2 ^ v1) at g is kappa_v1[g] v1 + kappa_v2[g] v2
    alpha = ((f.coerce(-params.kappa_v1[H]), f.coerce(-params.kappa_v2[H])),)
    return gr, CochainTwo(f, 2, H, lam, alpha)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_lifted_cocycle_is_a_nonzero_class(p):
    gr, gamma = lifted_cochain(p)
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
    gr, gamma = lifted_cochain(p)
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
