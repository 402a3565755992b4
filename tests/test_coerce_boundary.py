"""The coercion boundary: `Field.coerce` and its exact-type shortcuts, the
F_p dot product of `Matrix.apply`, and the trusted twins the package uses
on its own canonical vectors.

`reference_coerce` is `Field.coerce` as it was before it dispatched on
exact type, with strings limited to an optionally signed integer or one
over an unsigned integer, with surrounding whitespace; the new one must
agree with it on every input, in value, in type and in the exception it
raises.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcoh import (
    CochainTwo,
    Field,
    Matrix,
    coboundary_matrix,
    group_rows,
    reduce_to_representative,
    representative_basis,
    solve,
)

from conftest import span, suite_group

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)
FIELDS = [Field.prime(3), Field.prime(5), Field.prime(7), Field.rational()]


def reference_coerce(field, x):
    if isinstance(x, str):
        if not re.fullmatch(r"\s*[-+]?\d+(/\d+)?\s*", x):
            raise ValueError(x)
        x = Fraction(x)
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError("cannot coerce %r into %r" % (x, field))
    if field.p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        if x.denominator % field.p == 0:
            raise ZeroDivisionError("denominator divisible by %d" % field.p)
        return (x.numerator * pow(x.denominator, -1, field.p)) % field.p
    return x % field.p


class SubInt(int):
    pass


class SubFraction(Fraction):
    pass


def outcome(fn, *args):
    """('value', type, value) or ('raises', exception type)."""
    try:
        v = fn(*args)
    except Exception as e:      # the type is what is compared
        return ("raises", type(e))
    return ("value", type(v), v)


ints = st.one_of(st.integers(-50, 50), st.integers(-10 ** 40, 10 ** 40),
                 st.sampled_from([3 ** 50, -(7 ** 60), 105 * 10 ** 30]))
# denominators drawn from multiples of 3, 5 and 7 too, so some are divisible by p
dens = st.one_of(st.integers(1, 30), st.sampled_from([3, 5, 7, 9, 25, 49, 105, 3 ** 20]))
fractions = st.builds(Fraction, ints, dens)
scalars = st.one_of(
    ints, st.booleans(), ints.map(SubInt), fractions, fractions.map(SubFraction),
    st.builds(lambda a, b: "%d/%d" % (a, b), ints, st.integers(-30, 30)),
    ints.map(str), st.sampled_from(["1/0", "x", "", " 3 ", "1.5", "-2/6", "1e3"]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([2.0, 0.0, -1.5]),
    st.sampled_from([None, (1,), [2], 1j]),
)


@SETTINGS
@given(st.sampled_from(FIELDS), scalars)
def test_coerce_equals_the_reference_coerce(field, x):
    assert outcome(field.coerce, x) == outcome(reference_coerce, field, x)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coerce_returns_canonical_scalars_for_the_fast_cases(field):
    for x in (0, 1, -1, 10 ** 30, -(10 ** 30) - 1):
        v = field.coerce(x)
        if field.p is None:
            assert type(v) is Fraction and v == x
        else:
            assert type(v) is int and 0 <= v < field.p and (v - x) % field.p == 0
    if field.p is None:
        q = Fraction(-7, 12)
        assert field.coerce(q) is q
        assert type(field.coerce(SubFraction(1, 3))) is Fraction


def reference_apply(m, v):
    """Row by row, with the zero entries of each row skipped."""
    f = m.field
    v = [f.coerce(x) for x in v]
    out = []
    for row in m.rows:
        s = f.zero()
        for x, y in zip(row, v):
            if x:
                s += x * y
        out.append(s if f.p is None else s % f.p)
    return tuple(out)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_apply_equals_a_zero_skipping_dot_product(field):
    rng = random.Random(field.char)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 0, rng.randint(-20, 20)]) for _ in range(ncols)]
                for _ in range(nrows)]
        m = Matrix(field, rows, ncols=ncols)
        v = [rng.choice([0, rng.randint(-10 ** 9, 10 ** 9), Fraction(rng.randint(-9, 9), 2)])
             for _ in range(ncols)]
        got = m.apply(v)
        assert got == reference_apply(m, v)
        for x in got:
            if field.p is None:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p


def noncanonical_twin(gamma, rng):
    """gamma with the same values in other forms: over F_p an entry plus a
    multiple of p, or an entry as a non-integral Fraction of the same
    residue; over Q an entry as an int where it is integral and as a
    Fraction subclass where it is not."""
    f = gamma.field
    p = f.p

    def other(x):
        if p is None:
            return int(x) if x.denominator == 1 else SubFraction(x)
        if rng.random() < 0.5:
            return x + p * rng.randint(-3, 3)
        return Fraction(2 * x + p, 2)      # odd numerator, so never an int

    return CochainTwo(f, gamma.n, gamma.element_index, tuple(map(other, gamma.lam)),
                      tuple(tuple(map(other, col)) for col in gamma.alpha))


@pytest.mark.parametrize("name", ["transvection_f5", "jordan3_refl_f3", "jordan4_refl_f3",
                                  "trivial_n3_q", "trivial_n2_f3"])
def test_reduce_sees_through_noncanonical_entries(name):
    gr = suite_group(name)
    f = gr.field
    rng = random.Random(name)
    checked = 0
    record = group_rows(gr)
    for i in range(gr.order):
        basis = representative_basis(gr, i, record)
        cob = coboundary_matrix(gr, i)
        for _ in range(3):
            flat = [f.zero()] * len(cob.rows)
            for b in basis:
                c = f.coerce(rng.randint(-4, 4))
                flat = [x + c * y for x, y in zip(flat, b.flat())]
            moved = cob.apply([rng.randint(-3, 3) for _ in range(gr.n)])
            gamma = CochainTwo.from_flat(f, gr.n, i, [x + y for x, y in zip(flat, moved)])
            twin = noncanonical_twin(gamma, rng)
            assert list(map(type, twin.flat())) != list(map(type, gamma.flat())) \
                or twin.flat() != gamma.flat()
            rep, witness = reduce_to_representative(gr, twin)
            assert (rep, witness) == reduce_to_representative(gr, gamma)
            for x in rep.flat() + witness.f:
                assert (type(x) is Fraction if f.p is None
                        else type(x) is int and 0 <= x < f.p)
            checked += 1
    assert checked >= 3


def test_public_boundaries_refuse_floats():
    f, q = Field.prime(5), Field.rational()
    m = Matrix(f, [[1, 2], [3, 4]])
    for call in (lambda: m.apply([1.0, 2]), lambda: solve(Matrix(f, [[1, 2, 0], [3, 4, 1.5]])),
                 lambda: Matrix(f, [[1, 0.5]]),
                 lambda: CochainTwo.from_flat(f, 2, 0, [1, 2, 3, 4.0]),
                 lambda: Matrix(q, [[1, 2]]).apply([Fraction(1, 2), 0.25]),
                 lambda: solve(Matrix(q, [[1, 0.5]]))):
        with pytest.raises(TypeError):
            call()


def test_reduce_refuses_what_it_refused_before():
    gr = suite_group("transvection_f3")
    f = gr.field
    good = (2, 1, 0, 2)                         # a cocycle at g^1
    for bad, exc in (((2, 1, 0, 2.0), TypeError), ((2, 1, 0, "2"), TypeError),
                     ((2, 1, 0, True), TypeError), ((2, 1, 0, Fraction(1, 3)), ZeroDivisionError)):
        gamma = CochainTwo(f, 2, 1, bad[:2], (bad[2:],))
        with pytest.raises(exc):
            reduce_to_representative(gr, gamma)
    short = CochainTwo(f, 2, 1, good[:2], (good[2:3],))
    # ragged: the flat length is right, but lambda or alpha has the wrong shape
    ragged = (CochainTwo(f, 2, 1, good[:3], (good[3:],)),
              CochainTwo(f, 2, 1, good[:1], (good[1:],)))
    for gamma in (short,) + ragged:
        with pytest.raises(ValueError, match="cochain needs 2 lambda entries"):
            reduce_to_representative(gr, gamma)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_complement_is_the_eliminated_span_of_its_unit_rows(field):
    rng = random.Random(field.char + 1)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        space = span(field, n, rows)
        comp = space.complement()
        pivots = set(space._pivots)
        units = [[int(j == c) for j in range(n)] for c in range(n) if c not in pivots]
        eliminated = span(field, n, units)
        assert comp == eliminated
        assert comp._pivots == eliminated._pivots
        assert comp.dim + space.dim == n
