"""Property test for the per-subgroup sharing in `CyclicGroup.element`.

`element(i)` returns the record derived at d = gcd(i, |G|), the same
object for every generator of <g^i>, and `det(i)` gives det(g)^i;
`summand_dim` derives the one chi_h-invariant dimension a codim-1 or
codim-2 summand reads once per subgroup as well, with one
`chi_invariants` call.  On random groups whose orders have several
divisors, every element must report what `reference_element`
(tests/conftest.py) derives from g^i alone: fixed space, moved space,
codim, chi_h(g), det, the transvection flag, and the chi_h-invariants of
g on V/V_h at codim 2 and on V/V_h tensor (V^h)* at codim 1, taken by
`chi_invariants` of the reference actions.  The whole formula report must
equal `reference_report`, built one element at a time with
`quotient_matrix` and `restricted_matrix`.

diag(-1, 2) over F_7 has order 6, and g^2 = diag(1, 4) and g^3 = diag(-1, 1)
are both reflections with different mirrors, so class data keyed by codim
instead of gcd(i, N) fails here; so does a det taken from g^d, since
det(g^5) = 3 but det(g) = 5.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcoh import (
    Field,
    Matrix,
    OrderExceedsBoundError,
    chi_invariants,
    full_report,
    group_from_generator,
    kron,
)
from skewcoh import group_action

from conftest import SUITE, reference_element, reference_report, suite_group
from test_trusted_builders import SETTINGS, prime_generators, signed_permutations

MAX_ORDER = 120
PROPERTY = settings(SETTINGS, max_examples=60)
FIELDS = ("fixed_space", "moved_space", "codim", "chi_of_generator", "transvection")


@st.composite
def conjugated_diagonals(draw, primes=(7, 13)):
    """P D P^-1 over F_p, n <= 3: a split semisimple generator, with many
    subgroups of equal codim and different fixed spaces."""
    f = Field.prime(draw(st.sampled_from(primes)))
    n = draw(st.integers(1, 3))
    d = [draw(st.integers(1, f.p - 1)) for _ in range(n)]
    rows = draw(st.lists(st.lists(st.integers(0, f.p - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    p = Matrix(f, rows)
    assume(p.det() != 0)
    diag = Matrix(f, [[d[a] if a == b else 0 for b in range(n)] for a in range(n)])
    return f, (p @ diag @ p.inverse()).rows


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def check_against_reference(gr):
    """gr must be new: no `summand_dim` taken yet, so that each codim-1 or
    codim-2 divisor of |G| is counted as one `chi_invariants` call."""
    calls, divisors = [], set()

    def counted(*args):
        calls.append(args)
        return chi_invariants(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_action, "chi_invariants", counted)
        for i in range(gr.order):
            ed = gr.element(i)
            assert ed is gr.element(math.gcd(i, gr.order))
            ref = reference_element(gr, i)
            assert {k: getattr(ed, k) for k in FIELDS} == {k: ref[k] for k in FIELDS}, (gr.generator, i)
            assert gr.det(i) == ref["det"] == gr.power(i).det(), (gr.generator, i)
            quot, chi = ref["quotient_action"], ref["chi_of_generator"]
            if ref["codim"] == 1:
                piece = chi_invariants(kron(quot, ref["dual_fixed_action"]), chi)
            elif ref["codim"] == 2:
                piece = chi_invariants(quot, chi)
            else:
                with pytest.raises(ValueError):
                    gr.summand_dim(i)
                continue
            assert gr.summand_dim(i) == piece, (gr.generator, i)
            divisors.add(math.gcd(i, gr.order))
    assert len(calls) == len(divisors), (gr.generator, calls)
    assert full_report(gr) == reference_report(gr)


def check_random_group(field, rows):
    """check_against_reference on a group whose order has at least three
    divisors, so that some element lies in a proper nontrivial subgroup."""
    try:
        gr = group_from_generator(field, rows, order_bound=MAX_ORDER)
    except OrderExceedsBoundError:
        assume(False)
    assume(divisor_count(gr.order) >= 3)
    check_against_reference(gr)


def test_equal_codim_subgroups_with_different_mirrors():
    f = Field.prime(7)
    gr = group_from_generator(f, [[-1, 0], [0, 2]])
    assert gr.order == 6 and divisor_count(gr.order) == 4
    g2, g3 = gr.element(2), gr.element(3)
    assert g2.codim == g3.codim == 1 and g2.fixed_space != g3.fixed_space
    assert gr.det(5) == 3 and gr.det(1) == 5
    check_against_reference(gr)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_groups_match_reference(name):
    check_against_reference(suite_group(name))


def test_codim2_summand_builds_no_dual_action(monkeypatch):
    # element 3 of diag(3, 3, 2) over F_7 is diag(6, 6, 1), of codim 2: its
    # summand reads g on V/V_h alone, so neither (V^h)* nor a tensor is built
    gr = group_from_generator(Field.prime(7), [[3, 0, 0], [0, 3, 0], [0, 0, 2]])
    assert gr.element(3).codim == 2

    def refuse(*args):
        raise AssertionError("a codim-2 summand builds no dual action or tensor")
    for name in ("restricted_matrix", "kron"):
        monkeypatch.setattr(group_action, name, refuse)
    assert gr.summand_dim(3) == 1


def test_elements_of_one_subgroup_share_their_spaces():
    gr = group_from_generator(Field.prime(7), [[-1, 0], [0, 2]])
    for i in range(gr.order):
        d = math.gcd(i, gr.order)
        assert gr.element(i) is gr.element(d % gr.order)


@PROPERTY
@given(st.one_of(prime_generators(max_n=3), conjugated_diagonals()))
def test_elements_match_reference_over_prime_fields(gen):
    check_random_group(*gen)


@PROPERTY
@given(signed_permutations())
def test_elements_match_reference_on_signed_permutations(gen):
    check_random_group(*gen)
