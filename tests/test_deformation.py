"""The worked 2-dimensional deformation: parameter tables, the square
bracket, rewriting, confluence, and normal-form counting.

Group algebra elements appear as dense coefficient tuples indexed by the
power of g, so e.g. (0, 0, 2) over F_3 is 2*g^2.
"""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcoh import (
    Field,
    PrerequisiteFailed,
    UnsupportedKappaShape,
    builtin_transvection_gamma,
    confluence_check,
    hilbert_check,
    orbifold_algebra,
    square_bracket_transvection,
    transvection_group,
)
from skewcoh.deformation import (
    ConfluenceReport,
    DeformationParams,
    RewriteSystem,
    _pbw_shaped,
    _terms_str,
    g_letter,
    word_str,
)
from skewcoh.group_action import group_from_generator
from conftest import reference_square_bracket

F3 = Field.prime(3)
V1 = ("v", 1)
V2 = ("v", 2)


def zero_params(group):
    """Parameter tables with every deformation term zero: the plain skew
    group algebra."""
    zero = (group.field.zero(),) * group.order
    table = {(i, k): zero for i in range(group.order) for k in (1, 2)}
    return DeformationParams(group, table, zero, zero)


def multiply(rs, a, b):
    """The product of two algebra elements: concatenate, then rewrite."""
    f = rs.field
    prod = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            prod[w1 + w2] = f.add(prod.get(w1 + w2, f.zero()), f.mul(c1, c2))
    return rs.normal_form(prod)


def ga(f, N, **powers):
    """Group algebra element from keyword powers: ga(f, 3, g2=2) = 2*g^2."""
    out = [f.zero()] * N
    for key, c in powers.items():
        out[int(key[1:])] = f.coerce(c)
    return tuple(out)


def alphabet(N):
    """Every letter, in alphabet order: v1, v2, g, g^2, ..., g^{N-1}."""
    return [V1, V2] + [("g", c) for c in range(1, N)]


def monomial_word(a, b, c, N):
    return (V1,) * a + (V2,) * b + g_letter(c, N)


# -- parameter tables ---------------------------------------------------------

def test_builtin_table_p3():
    params = builtin_transvection_gamma(3)
    f = params.group.field
    t = params.lambda_table
    assert t[(0, 1)] == ga(f, 3)
    assert t[(1, 1)] == ga(f, 3, g2=-1)
    assert t[(2, 1)] == ga(f, 3, g0=-2)          # g^3 wraps to 1
    assert t[(0, 2)] == ga(f, 3)
    assert t[(1, 2)] == ga(f, 3, g2=-1)
    assert t[(2, 2)] == ga(f, 3)                 # binomial 3 reduces to 0
    assert params.kappa_v1 == ga(f, 3)
    assert params.kappa_v2 == ga(f, 3, g1=1)


def test_builtin_table_p5():
    params = builtin_transvection_gamma(5)
    f = params.group.field
    t = params.lambda_table
    assert t[(3, 1)] == ga(f, 5, g4=-3)
    assert t[(4, 1)] == ga(f, 5, g0=-4)
    assert t[(1, 2)] == ga(f, 5, g2=-1)
    assert t[(4, 2)] == ga(f, 5)                 # C(5,2) = 10 = 0 mod 5
    assert t[(3, 2)] == ga(f, 5, g4=-6)


def test_transvection_group_order():
    for p in (3, 5, 7):
        assert transvection_group(p).order == p


def test_zero_params():
    params = zero_params(transvection_group(3))
    assert all(all(x == 0 for x in v) for v in params.lambda_table.values())
    assert all(x == 0 for x in params.kappa_v1 + params.kappa_v2)


# -- square bracket ---------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_bracket_vanishes(p):
    params = builtin_transvection_gamma(p)
    values = square_bracket_transvection(params)
    assert len(values) == p
    for v in values:
        assert all(x == 0 for x in v)


def test_square_bracket_i2_p3_term_by_term():
    # gamma(g^2 x v2) = 0, gamma(g^2 x v1) = -2 = 1 in F_3 so the middle
    # term is gamma(1 x v2) = 0; everything cancels before it starts
    params = builtin_transvection_gamma(3)
    assert params.lambda_table[(2, 2)] == (0, 0, 0)
    assert square_bracket_transvection(params)[2] == (0, 0, 0)


def test_square_bracket_zero_params():
    values = square_bracket_transvection(zero_params(transvection_group(5)))
    assert all(all(x == 0 for x in v) for v in values)


def with_kappa(params, c):
    """params with kappa = c (v2 tensor g), the one shape the bracket takes."""
    f = params.group.field
    N = params.group.order
    return dataclasses.replace(params, kappa_v1=(f.zero(),) * N,
                               kappa_v2=with_entry((f.zero(),) * N, 1, f.coerce(c)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_bracket_matches_the_dense_reference_on_single_entries(p):
    """Each lambda entry (every row (i, k), every power m) set in turn to
    every other value, under kappa = c (v2 tensor g) for every c; most of
    these brackets do not vanish."""
    params = builtin_transvection_gamma(p)
    f = params.group.field
    nonzero = 0
    for (i, k), row in sorted(params.lambda_table.items()):
        for m in range(p):
            for x in range(p):
                if x == row[m]:
                    continue
                table = dict(params.lambda_table)
                table[(i, k)] = with_entry(row, m, f.coerce(x))
                for c in range(p):
                    perturbed = with_kappa(dataclasses.replace(params, lambda_table=table), c)
                    got = square_bracket_transvection(perturbed)
                    assert got == reference_square_bracket(perturbed)
                    nonzero += any(map(any, got))
    assert nonzero > 0


@st.composite
def lambda_perturbations(draw):
    """Builtin lambda tables over F_3, F_5 or F_7 with a few entries redrawn
    at random, under kappa = c (v2 tensor g) for a random c."""
    p = draw(st.sampled_from([3, 5, 7]))
    params = builtin_transvection_gamma(p)
    f = params.group.field
    table = dict(params.lambda_table)
    for _ in range(draw(st.integers(1, 6))):
        key = draw(st.sampled_from(sorted(table)))
        m, x = draw(st.integers(0, p - 1)), f.coerce(draw(st.integers(0, p - 1)))
        table[key] = with_entry(table[key], m, x)
    return with_kappa(dataclasses.replace(params, lambda_table=table),
                      draw(st.integers(0, p - 1)))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(lambda_perturbations())
def test_square_bracket_matches_the_dense_reference_on_random_tables(params):
    assert square_bracket_transvection(params) == reference_square_bracket(params)


def test_square_bracket_needs_transvection():
    gr = group_from_generator(Field.prime(5), [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        square_bracket_transvection(zero_params(gr))


def test_square_bracket_refuses_the_identity_generator():
    gr = group_from_generator(Field.prime(5), [[1, 0], [0, 1]])
    assert gr.order == 1
    with pytest.raises(ValueError):
        square_bracket_transvection(zero_params(gr))


def test_square_bracket_reads_the_transvection_flag_of_the_group():
    """(1 - g)^2 = 0 at codimension 2 is refused; a transvection of F_3^3
    is not, and the bracket's test agrees with `CyclicGroup.element`."""
    f = Field.prime(3)
    square_zero = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    gr = group_from_generator(f, square_zero)
    assert not gr.element(1).transvection
    with pytest.raises(ValueError):
        square_bracket_transvection(zero_params(gr))
    gr = group_from_generator(f, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert gr.element(1).transvection
    assert square_bracket_transvection(zero_params(gr)) == [(0, 0, 0)] * 3


def test_square_bracket_kappa_shape_guard():
    params = builtin_transvection_gamma(3)
    f = params.group.field
    bad1 = dataclasses.replace(params, kappa_v1=ga(f, 3, g1=1))
    with pytest.raises(UnsupportedKappaShape):
        square_bracket_transvection(bad1)
    bad2 = dataclasses.replace(params, kappa_v2=ga(f, 3, g0=1))
    with pytest.raises(UnsupportedKappaShape):
        square_bracket_transvection(bad2)


# -- rewriting ----------------------------------------------------------------------

def test_rewrite_rules_builtin_p3():
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    assert rs.normal_form({(("g", 1), V1): 1}) == {(V1, ("g", 1)): 1, (("g", 2),): 2}
    assert rs.normal_form({(V2, V1): 1}) == {(V1, V2): 1, (V2, ("g", 1)): 1}


def test_rewrite_rules_zero_params():
    rs = orbifold_algebra(zero_params(transvection_group(3)))
    # plain skew group algebra: g v1 = v1 g, g v2 = (v1 + v2) g, v2 v1 = v1 v2
    assert rs.normal_form({(("g", 1), V1): 1}) == {(V1, ("g", 1)): 1}
    assert rs.normal_form({(("g", 1), V2): 1}) == {(V1, ("g", 1)): 1, (V2, ("g", 1)): 1}
    assert rs.normal_form({(V2, V1): 1}) == {(V1, V2): 1}


def test_normal_form_examples():
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    assert rs.normal_form({(V1, V2): 1}) == {(V1, V2): 1}
    assert rs.normal_form({(V2, V1, ("g", 1)): 1}) == {
        (V1, V2, ("g", 1)): 1, (V2, ("g", 2)): 1}
    assert rs.normal_form({(("g", 2), ("g", 2)): 1}) == {(("g", 1),): 1}
    assert rs.normal_form({(("g", 1), ("g", 2)): 1}) == {(): 1}


def test_normal_form_idempotent():
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    rng = random.Random(31)
    letters = alphabet(rs.N)
    for _ in range(50):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        nf = rs.normal_form({w: 1})
        assert type(nf) is dict and 0 not in nf.values()
        assert rs.normal_form(nf) == nf
        for word in nf:
            assert rs.is_normal(word)


def test_multiply_matches_concatenation():
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    a = rs.normal_form({(("g", 1), V2): 1})
    b = rs.normal_form({(V2, V1): 1})
    left = multiply(rs, a, b)
    assert left == rs.normal_form({(("g", 1), V2, V2, V1): 1})


def test_multiply_is_associative_spot_check():
    rs = orbifold_algebra(builtin_transvection_gamma(5))
    rng = random.Random(14)
    letters = alphabet(rs.N)
    for _ in range(25):
        x, y, z = ({tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))): 1}
                   for _ in range(3))
        assert multiply(rs, multiply(rs, x, y), z) == multiply(rs, x, multiply(rs, y, z))


def test_word_str():
    assert word_str(()) == "1"
    assert word_str((V1, V2, ("g", 2))) == "v1*v2*g^2"
    assert word_str((("g", 1),)) == "g"
    assert g_letter(3, 3) == ()
    assert g_letter(4, 3) == (("g", 1),)


def test_rewrite_layer_is_two_dimensional_only():
    gr = group_from_generator(Field.prime(5), [[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    with pytest.raises(ValueError):
        orbifold_algebra(zero_params(gr))


def test_zero_params_recover_skew_group_product():
    """With no deformation terms the multiplication must agree with the
    skew product (s x g^c)(s' x g^C) = s . (g^c s') x g^{c+C}, checked on
    all monomials of v-degree <= 2 by independent binomial expansion."""
    p = 3
    rs = orbifold_algebra(zero_params(transvection_group(p)))
    f = rs.field
    N = rs.N
    monos = [(a, b, c) for a in range(3) for b in range(3 - a) for c in range(N)]
    for (a, b, c), (A, B, C) in itertools.product(monos, monos):
        x = {monomial_word(a, b, c, N): 1}
        y = {monomial_word(A, B, C, N): 1}
        got = multiply(rs, x, y)
        # ^{g^c} v1 = v1 and ^{g^c} v2 = c v1 + v2, so
        # v2^B expands to sum_j C(B,j) c^j v1^j v2^{B-j}
        expected = {}
        for j in range(B + 1):
            coef = f.coerce(math.comb(B, j) * c ** j)
            if coef != 0:
                w = monomial_word(a + A + j, b + B - j, (c + C) % N, N)
                expected[w] = f.add(expected.get(w, f.zero()), coef)
        assert got == expected


# -- confluence --------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5])
def test_builtin_is_confluent(p):
    rep = confluence_check(orbifold_algebra(builtin_transvection_gamma(p)))
    assert rep.ok
    assert rep.witness is None


def test_confluence_word_count_p3():
    # g*v2*v1 and g*g^j*v_k for j, k in {1, 2}: 1 + 4
    rep = confluence_check(orbifold_algebra(builtin_transvection_gamma(3)))
    assert rep.words_checked == 5


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_confluence_reduces_linearly_many_overlaps(p):
    rep = confluence_check(orbifold_algebra(builtin_transvection_gamma(p)))
    assert rep.ok and rep.words_checked == 2 * p - 1


class CountingRewriteSystem(RewriteSystem):
    """Counts its normal_form calls and records the words it tests for
    redexes."""

    def __init__(self, params):
        super().__init__(params)
        self.normal_form_calls = 0
        self.tested = []

    def normal_form(self, terms):
        self.normal_form_calls += 1
        return super().normal_form(terms)

    def redex_positions(self, w):
        self.tested.append(w)
        return super().redex_positions(w)


@pytest.mark.parametrize("p", [13, 101])
def test_confluence_work_is_linear_in_p(p):
    # two normal forms per overlap and one redex test per distinct word:
    # the 2p - 1 overlaps and the words their reductions meet (161 tests
    # at p = 13, 1305 at p = 101); testing a word again at each sight
    # takes 30p - 10, and a table of the overlaps over all letter pairs
    # would take (p+1)^2 tests on its own, 10404 at p = 101
    rs = CountingRewriteSystem(builtin_transvection_gamma(p))
    rep = confluence_check(rs)
    assert rep.ok and rep.words_checked == 2 * p - 1
    assert rs.normal_form_calls == 2 * rep.words_checked
    assert len(rs.tested) == len(set(rs.tested)) <= 13 * p


def test_rewrite_rules_build_a_word_only_for_a_nonzero_entry(monkeypatch):
    # the builtin tables have one nonzero per lambda row and one in kappa,
    # so about 3p words; a word per entry would be about 2p^2, 20604 at p = 101
    p = 101
    params = builtin_transvection_gamma(p)
    calls = []
    real = g_letter
    monkeypatch.setattr("skewcoh.deformation.g_letter",
                        lambda c, N: calls.append(c) or real(c, N))
    RewriteSystem(params)
    assert 0 < len(calls) <= 8 * p


def words_up_to_length_3(N):
    words = [()]
    for length in range(3):
        words += [w + (l,) for w in words if len(w) == length for l in alphabet(N)]
    return words


@pytest.mark.parametrize("p", [3, 5])
def test_a_shared_system_gives_each_word_the_fresh_normal_form(p):
    """A system that has already reduced other words keeps the reducts it
    met; each word still gets the normal form a fresh system gives it."""
    tables = [builtin_transvection_gamma(p), zero_params(transvection_group(p))]
    tables += perturbed_params(p)
    for params in tables:
        shared = orbifold_algebra(params)
        for w in words_up_to_length_3(p):
            assert shared.normal_form({w: 1}) == orbifold_algebra(params).normal_form({w: 1})


def test_zero_params_are_confluent():
    rep = confluence_check(orbifold_algebra(zero_params(transvection_group(3))))
    assert rep.ok


def adversarial_params(p=3, scale=1):
    """Builtin tables over F_p with lambda(g x v1) replaced by scale (the
    benchmark's negative control); the g.v2.v1 overlap then resolves two
    different ways."""
    params = builtin_transvection_gamma(p)
    f = params.group.field
    table = dict(params.lambda_table)
    table[(1, 1)] = ga(f, p, g0=scale)
    return dataclasses.replace(params, lambda_table=table)


def test_adversarial_fixture_fails_confluence():
    rep = confluence_check(orbifold_algebra(adversarial_params()))
    assert not rep.ok
    assert rep.witness == "g*v2*v1"
    assert len(rep.witness_forms) == 2
    assert rep.witness_forms[0] != rep.witness_forms[1]


@pytest.mark.parametrize("p, scale, forms", [
    (3, 1, ("2*1 + 1*v1 + 1*v2 + 2*v1*g^2 + 1*v2*g^2 + 1*v1*v1*g + 1*v1*v2*g",
            "2*1 + 1*v2 + 1*v2*g^2 + 1*v1*v1*g + 1*v1*v2*g")),
    (5, 2, ("2*g^3 + 2*v1 + 2*v2 + 4*v1*g^2 + 1*v2*g^2 + 1*v1*v1*g + 1*v1*v2*g",
            "4*g^3 + 2*v2 + 1*v2*g^2 + 1*v1*v1*g + 1*v1*v2*g")),
])
def test_witness_forms_are_pinned(p, scale, forms):
    """The witness forms byte for byte, so the renderer is pinned apart from
    the full enumeration that shares it."""
    rep = confluence_check(orbifold_algebra(adversarial_params(p, scale)))
    assert (rep.ok, rep.words_checked, rep.witness, rep.witness_forms) == \
        (False, 1, "g*v2*v1", forms)


# -- normal form counting --------------------------------------------------------------

def test_hilbert_counts():
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    conf = confluence_check(rs)
    assert hilbert_check(rs, 4, confluence=conf) == 45
    assert hilbert_check(rs, 0, confluence=conf) == 3


def test_hilbert_p5_degree2():
    rs = orbifold_algebra(builtin_transvection_gamma(5))
    assert hilbert_check(rs, 2, confluence=confluence_check(rs)) == 30


def test_hilbert_up_to_degree5():
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    conf = confluence_check(rs)
    for d in range(6):
        assert hilbert_check(rs, d, confluence=conf) == 3 * (d + 2) * (d + 1) // 2


def test_hilbert_requires_confluence():
    with pytest.raises(PrerequisiteFailed):
        rs = orbifold_algebra(adversarial_params())
        hilbert_check(rs, 2, confluence=confluence_check(rs))


@pytest.mark.parametrize("d", [-1, -3])
def test_hilbert_refuses_a_negative_degree(d):
    # the graded piece of negative degree is zero, so there is nothing to count
    rs = orbifold_algebra(builtin_transvection_gamma(3))
    with pytest.raises(ValueError, match="degree must be at least 0, got %d" % d):
        hilbert_check(rs, d, confluence=confluence_check(rs))


# -- local count against full enumeration -------------------------------------------

def brute_hilbert_check(rs, d):
    """Full enumeration, the algorithm hilbert_check replaced: visit every
    word of length <= d+1 by length, then in alphabet order, assert that it
    is irreducible iff PBW-shaped, and return the number of irreducible
    ones of v-degree <= d.  (N+1)^(d+1) words; a test oracle only."""
    letters = alphabet(rs.N)
    count = 0
    words = [()]
    for _ in range(d + 2):
        for w in words:
            vdeg = sum(1 for (kind, _) in w if kind == "v")
            normal = rs.is_normal(w)
            if normal != _pbw_shaped(w):
                raise AssertionError("normal form shape mismatch at %s" % word_str(w))
            if normal and vdeg <= d:
                count += 1
        words = [w + (l,) for w in words for l in letters if len(w) < d + 1]
    return count


def hilbert_outcome(run):
    """run()'s count, or the text of the shape AssertionError it raised."""
    try:
        return run()
    except AssertionError as exc:
        return "AssertionError: %s" % exc


def zero_transvection_params(p):
    return zero_params(transvection_group(p))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("make", [builtin_transvection_gamma, zero_transvection_params])
def test_local_hilbert_count_matches_enumeration(p, make):
    rs = orbifold_algebra(make(p))
    conf = confluence_check(rs)
    assert conf.ok
    for d in range(6):
        local = hilbert_outcome(lambda: hilbert_check(rs, d, confluence=conf))
        assert local == hilbert_outcome(lambda: brute_hilbert_check(rs, d))
        graded_dim = p * (d + 2) * (d + 1) // 2
        assert local == graded_dim


class NoGGRule(RewriteSystem):
    """Forgets the rule g^i g^j -> g^{i+j}, so g*g counts as irreducible."""

    def redex_positions(self, w):
        return [l for l in super().redex_positions(w)
                if not (w[l][0] == "g" and w[l + 1][0] == "g")]


@pytest.mark.parametrize("p", [3, 5])
def test_dropped_gg_rule_fails_the_shape_check(p):
    # zero tables keep the system confluent without g*g, so the
    # prerequisite holds and the shape check is what must fail
    rs = NoGGRule(zero_params(transvection_group(p)))
    conf = confluence_check(rs)
    assert conf.ok
    for d in range(1, 4):
        local = hilbert_outcome(lambda: hilbert_check(rs, d, confluence=conf))
        assert local == "AssertionError: normal form shape mismatch at g*g"
        assert local == hilbert_outcome(lambda: brute_hilbert_check(rs, d))


def test_hilbert_check_reads_only_words_of_length_two():
    # the empty word, and the words of length 1 and 2 in v1, v2, g
    for p in (3, 13, 101):
        rs = orbifold_algebra(builtin_transvection_gamma(p))
        conf = confluence_check(rs)
        calls = []
        is_normal = rs.is_normal
        rs.is_normal = lambda w: calls.append(w) or is_normal(w)
        assert hilbert_check(rs, 4, confluence=conf) == p * 15
        assert len(calls) <= 1 + 3 + 3 ** 2
        assert max(map(len, calls)) == 2


# -- critical pairs against full enumeration --------------------------------------

def brute_confluence_check(rs):
    """Full enumeration, the algorithm confluence_check replaced: reduce
    every word of length <= 3 that contains a redex, by length and then in
    alphabet order, through each of its one-step reducts, and demand one
    common normal form.  About (N+1)^3 words; a test oracle only."""
    letters = alphabet(rs.N)
    words = [()]
    count = 0
    for _ in range(3):
        words = [w + (l,) for w in words for l in letters]
        for w in words:
            pos = rs.redex_positions(w)
            if not pos:
                continue
            forms = [rs.normal_form(rs.rewrite_at(w, l)) for l in pos]
            count += 1
            distinct = []
            for nf in forms:
                if nf not in distinct:
                    distinct.append(nf)
            if len(distinct) > 1:
                return ConfluenceReport(False, count, word_str(w),
                                        tuple(_terms_str(rs.field, d) for d in distinct))
    return ConfluenceReport(True, count, None, ())


def agreeing_report(rs):
    """confluence_check(rs), after asserting that its verdict, witness and
    forms equal the full enumeration's."""
    local = confluence_check(rs)
    brute = brute_confluence_check(rs)
    assert (local.ok, local.witness, local.witness_forms) == \
        (brute.ok, brute.witness, brute.witness_forms)
    return local


def perturbed_params(p):
    """The builtin tables over F_p with kappa = 0, and with each of several
    lambda rows set in turn to c*g^0 for c in {0, 1, 2}."""
    params = builtin_transvection_gamma(p)
    f = params.group.field
    out = [dataclasses.replace(params, kappa_v2=ga(f, p))]
    for key in [(i, k) for i in (1, 2, p - 1) for k in (1, 2)]:
        for c in (0, 1, 2):
            table = dict(params.lambda_table)
            table[key] = ga(f, p, g0=c)
            out.append(dataclasses.replace(params, lambda_table=table))
    return out


def confluence_systems(p, kind):
    if kind == "builtin":
        return [orbifold_algebra(builtin_transvection_gamma(p))]
    if kind == "zero":
        return [orbifold_algebra(zero_params(transvection_group(p)))]
    if kind == "no_gg":
        return [NoGGRule(builtin_transvection_gamma(p)),
                NoGGRule(zero_params(transvection_group(p)))]
    return [orbifold_algebra(params) for params in perturbed_params(p)]


@pytest.mark.parametrize("p, kind", [(p, kind) for p in (3, 5, 7)
                                     for kind in ("builtin", "zero", "no_gg", "perturbed")]
                         + [(11, "builtin"), (13, "builtin")])
def test_critical_pairs_agree_with_full_enumeration(p, kind):
    witnesses = set()
    for rs in confluence_systems(p, kind):
        local = agreeing_report(rs)
        witnesses.add(local.witness)
        if kind == "builtin":
            assert local.ok and local.words_checked == 2 * p - 1
    if kind == "perturbed":
        # g*v2*v1 and some g*g^j*v_k each catch a perturbation
        assert "g*v2*v1" in witnesses
        assert any(w and w.endswith(("*v1", "*v2")) and w.count("g") == 2 for w in witnesses)


def with_entry(vec, m, c):
    return vec[:m] + (c,) + vec[m + 1:]


@pytest.mark.parametrize("p", [3, 5])
def test_every_single_entry_perturbation_agrees_with_full_enumeration(p):
    """Each lambda entry (every row (i, k), every power m) and each kappa
    entry set in turn to c in {0, 1, 2}."""
    params = builtin_transvection_gamma(p)
    f = params.group.field
    witnesses = set()
    for (i, k), row in sorted(params.lambda_table.items()):
        for m in range(p):
            for c in map(f.coerce, (0, 1, 2)):
                table = dict(params.lambda_table)
                table[(i, k)] = with_entry(row, m, c)
                witnesses.add(agreeing_report(orbifold_algebra(
                    dataclasses.replace(params, lambda_table=table))).witness)
    for name in ("kappa_v1", "kappa_v2"):
        for m in range(p):
            for c in map(f.coerce, (0, 1, 2)):
                vec = with_entry(getattr(params, name), m, c)
                witnesses.add(agreeing_report(orbifold_algebra(
                    dataclasses.replace(params, **{name: vec}))).witness)
    # confluent tables and a witness from each family that begins with g
    assert None in witnesses and "g*v2*v1" in witnesses
    assert any(w and w.startswith("g*g") for w in witnesses)


def scaled_family_p3():
    """All 243 tables over F_3 with lambda = t * builtin and
    kappa = u * v1 g^c' + s * v2 g^c, for t, u, s in F_3 and c, c' in Z/3."""
    params = builtin_transvection_gamma(3)
    f = params.group.field
    for t, u, s, c, c1 in itertools.product(range(3), repeat=5):
        table = {key: tuple(f.coerce(t * x) for x in row)
                 for key, row in params.lambda_table.items()}
        yield dataclasses.replace(params, lambda_table=table,
                                  kappa_v1=ga(f, 3, **{"g%d" % c1: u}),
                                  kappa_v2=ga(f, 3, **{"g%d" % c: s}))


def test_scaled_family_agrees_with_full_enumeration():
    """A family with many confluent tables besides the builtin one, where
    the skipped g^i*v2*v1 and g^i*g^j*v_k overlaps (i >= 2) must resolve
    whenever the reduced ones do; the local Hilbert count must then match
    full enumeration too."""
    builtin = builtin_transvection_gamma(3)
    confluent = 0
    for params in scaled_family_p3():
        rs = orbifold_algebra(params)
        rep = agreeing_report(rs)
        if rep.ok:
            confluent += params != builtin
            for d in range(4):
                assert hilbert_check(rs, d, confluence=rep) == brute_hilbert_check(rs, d)
    assert confluent == 33


@st.composite
def perturbed_tables(draw):
    """Builtin tables over F_3, F_5 or F_7 with a few lambda and kappa
    entries redrawn at random."""
    p = draw(st.sampled_from([3, 5, 7]))
    params = builtin_transvection_gamma(p)
    f = params.group.field
    table = dict(params.lambda_table)
    kappa = {"kappa_v1": params.kappa_v1, "kappa_v2": params.kappa_v2}
    keys = sorted(table) + sorted(kappa)
    for _ in range(draw(st.integers(1, 4))):
        key = draw(st.sampled_from(keys))
        m, c = draw(st.integers(0, p - 1)), f.coerce(draw(st.integers(0, p - 1)))
        if key in table:
            table[key] = with_entry(table[key], m, c)
        else:
            kappa[key] = with_entry(kappa[key], m, c)
    return dataclasses.replace(params, lambda_table=table, **kappa)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(perturbed_tables())
def test_random_perturbations_agree_with_full_enumeration(params):
    agreeing_report(orbifold_algebra(params))
