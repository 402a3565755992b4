"""Field arithmetic: construction, coercion, and the axioms (randomized)."""

import random
from fractions import Fraction

import pytest

from skewcoh import CharacteristicTwoError, Field, NotInvertibleError
from skewcoh.fields import _is_prime

from conftest import trial_division_is_prime


def test_prime_field_construction():
    f = Field.prime(5)
    assert f.char == 5
    assert repr(f) == "F_5"
    assert f.zero() == 0 and f.one() == 1


def test_char_two_rejected():
    with pytest.raises(CharacteristicTwoError):
        Field.prime(2)


def test_nonprime_rejected():
    # a float modulus gave a field whose elements were floats: F_3.0 coerced 5 to 2.0
    for bad in (1, 4, 9, 15, 0, -3, None, 3.0, "3", True):
        with pytest.raises(ValueError):
            Field.prime(bad)


def test_is_prime_matches_trial_division():
    for n in range(-3, 10 ** 5):
        assert _is_prime(n) == trial_division_is_prime(n), n


@pytest.mark.parametrize("n", [
    3215031751,                   # strong pseudoprime to the bases 2, 3, 5, 7
    3474749660383,                # ... to 2 through 13
    3825123056546413051,          # ... to 2 through 31
    318665857834031151167461,     # ... to 2 through 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        Field.prime(n)


def test_large_primes():
    for p in (10 ** 9 + 7, 2 ** 61 - 1, 2 ** 64 - 59, 2 ** 80 - 65):
        assert Field.prime(p).char == p
    # beyond the bound below which the bases are known to be exact
    with pytest.raises(ValueError, match="too large"):
        Field.prime(2 ** 89 - 1)


def test_rational_field():
    q = Field.rational()
    assert q.char == 0
    assert repr(q) == "Q"


def test_field_equality_and_hash():
    assert Field.prime(3) == Field.prime(3)
    assert Field.prime(3) != Field.prime(5)
    assert Field.rational() == Field.rational()
    assert hash(Field.prime(7)) == hash(Field.prime(7))


def test_coerce_ints_mod_p():
    f = Field.prime(5)
    assert f.coerce(7) == 2
    assert f.coerce(-1) == 4
    assert f.coerce(0) == 0


def test_coerce_fraction_strings():
    q = Field.rational()
    assert q.coerce("1/2") == Fraction(1, 2)
    assert q.coerce("-3/4") == Fraction(-3, 4)
    f = Field.prime(5)
    # 1/2 = 3 mod 5
    assert f.coerce("1/2") == 3
    assert f.coerce(Fraction(1, 3)) == 2


def test_coerce_rejects_junk():
    f = Field.prime(3)
    with pytest.raises(TypeError):
        f.coerce(1.5)
    with pytest.raises(TypeError):
        f.coerce(True)
    with pytest.raises(ZeroDivisionError):
        f.coerce("1/3")


@pytest.mark.parametrize("field", [Field.prime(5), Field.rational()], ids=repr)
def test_coerce_reads_only_integer_and_fraction_strings(field):
    # whitespace around the number, and a sign on the numerator, as Fraction
    # reads them
    assert field.coerce(" +6/4\n") == field.coerce(Fraction(3, 2))
    assert field.coerce("\t-7 ") == field.coerce(-7)
    for s in ("1.5", "1e3", "1E3", "-2e-1", ".5", "3.", "1_000", "1 / 2", "1/-2", "+1/+2",
              "1e10000000", "1/2/3", "0x10", "inf"):
        with pytest.raises(ValueError, match="not an integer or 'a/b' fraction"):
            field.coerce(s)


def test_inverse_errors():
    for f in (Field.prime(7), Field.rational()):
        with pytest.raises(NotInvertibleError):
            f.inv(f.zero())


def _random_scalar(f, rng):
    if f.p is not None:
        return rng.randrange(f.p)
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


@pytest.mark.parametrize("field", [Field.prime(3), Field.prime(7), Field.rational()],
                         ids=["F3", "F7", "Q"])
def test_field_axioms_randomized(field):
    rng = random.Random(20240811)
    f = field
    for _ in range(200):
        a = _random_scalar(f, rng)
        b = _random_scalar(f, rng)
        c = _random_scalar(f, rng)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.zero()) == f.coerce(a)
        assert f.mul(a, f.one()) == f.coerce(a)
        assert f.add(a, f.neg(a)) == f.zero()
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if f.coerce(a) != 0:
            assert f.mul(f.coerce(a), f.inv(f.coerce(a))) == f.one()
            assert f.div(f.coerce(b), f.coerce(a)) == f.mul(f.coerce(b), f.inv(f.coerce(a)))


def test_prime_scalars_stay_reduced():
    f = Field.prime(11)
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.randrange(11), rng.randrange(11)
        for v in (f.add(a, b), f.sub(a, b), f.mul(a, b), f.neg(a)):
            assert 0 <= v < 11


def test_fields_are_immutable():
    f = Field.prime(3)
    with pytest.raises(AttributeError):
        f.p = 5
