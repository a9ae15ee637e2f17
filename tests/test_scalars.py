from fractions import Fraction

import pytest

from extremal_lie.scalars import (
    QQ,
    GF,
    CharacteristicTwoUnsupported,
    Field,
    NotPrime,
)

from helpers import rng


def test_rationals_have_characteristic_zero():
    assert QQ.characteristic == 0 and repr(QQ) == "QQ"
    assert QQ == Field(0) and hash(QQ) == hash(Field(0))


def test_a_field_is_its_characteristic():
    from extremal_lie import scalars

    f = GF(7)
    assert f.characteristic == 7 and repr(f) == "GF(7)"
    assert f == GF(7) == Field(7) and hash(f) == hash(Field(7))
    assert f != GF(5) and f != QQ and f != 7
    assert not hasattr(f, "kind") and not hasattr(scalars, "field_create")


def test_gf2_rejected():
    with pytest.raises(CharacteristicTwoUnsupported):
        GF(2)


def test_composite_modulus_rejected():
    with pytest.raises(NotPrime):
        GF(9)
    with pytest.raises(NotPrime):
        GF(91)


def test_field_validates_its_characteristic():
    """The field itself rejects what ``GF`` rejects, with the same errors."""
    with pytest.raises(CharacteristicTwoUnsupported):
        Field(2)
    for bad in (9, 1, -3):
        with pytest.raises(NotPrime):
            Field(bad)
    assert Field(0) == QQ and Field(101).characteristic == 101


def _assert_squares_exact(f, residues):
    """``is_square`` agrees with the set of squares on every residue mod p."""
    p = f.characteristic
    squares = {a * a % p for a in range(p)}
    assert len(squares) == (p + 1) // 2
    for a in residues:
        assert f.is_square(a) == (a in squares), (p, a)


def test_is_square_small_primes_exhaustive():
    for p in (3, 5, 7, 11, 13):
        _assert_squares_exact(GF(p), range(p))
    # the documented examples: 2 = 3^2 is a square mod 7, 3 is not
    assert GF(7).is_square(2) and not GF(7).is_square(3)


def test_is_square_large_prime_exhaustive():
    _assert_squares_exact(GF(10007), range(10007))


def test_is_square_rationals():
    """Every n/d with |n| <= 50, 1 <= d <= 50 is a square exactly when it is
    one of (i/j)^2, i, j <= 7: negatives, zero, and fractions with a
    non-square numerator or denominator included."""
    squares = {Fraction(i, j) ** 2 for i in range(8) for j in range(1, 8)}
    for n in range(-50, 51):
        for d in range(1, 51):
            q = Fraction(n, d)
            assert QQ.is_square(QQ.raw(q)) == (q in squares), q
    assert QQ.is_square(0) and QQ.is_square(4) and QQ.is_square(Fraction(9, 4))
    for bad in (-4, 2, Fraction(-9, 4), Fraction(2, 9), Fraction(4, 3)):
        assert not QQ.is_square(bad)


def test_field_axioms_random_samples():
    r = rng("axioms")
    for field in (QQ, GF(11)):
        add, mul = field.add, field.mul
        for _ in range(60):
            a, b, c = (field.raw(r.randint(-20, 20)) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert field.is_zero(add(a, field.neg(a)))
            assert field.sub(a, b) == add(a, field.neg(b))
            if not field.is_zero(b):
                assert mul(b, field.div(a, b)) == a


def test_serialization_round_trip():
    for field, vals in ((QQ, ["3", "-5/7", "0"]), (GF(11), ["0", "7", "10"])):
        for s in vals:
            assert field.to_str(field.from_str(s)) == s


def test_scalar_immutable_and_hashable():
    # a raw value is an int or a Fraction, both immutable; so is its field
    a = QQ.raw(Fraction(1, 2))
    with pytest.raises(AttributeError):
        a.numerator = 2
    with pytest.raises(AttributeError):
        QQ.characteristic = 5
    assert hash(a) == hash(QQ.raw(Fraction(2, 4)))
    assert hash(GF(7)) == hash(Field(7)) and GF(7) != QQ


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=repr)
def test_raw_is_the_one_canonical_conversion(field):
    from extremal_lie import scalars

    # no second conversion and no wrapper type beside the raw value
    assert not any(hasattr(field, name) for name in ("from_int", "from_fraction", "scalar"))
    assert not hasattr(scalars, "Scalar") and not hasattr(scalars, "sqrt")
    p = field.characteristic
    for n in range(-7, 8):
        v = field.raw(n)
        assert type(v) is int and v == (n % p if p else n)
        assert field.raw(Fraction(n)) == v and type(field.raw(Fraction(n))) is int
        assert field.from_str(str(n)) == v
    for q in (Fraction(1, 2), Fraction(-5, 4), Fraction(7, 8)):
        v = field.raw(q)
        if p:
            assert type(v) is int and 0 <= v < p and v * q.denominator % p == q.numerator % p
        else:
            assert v == q and type(v) is Fraction
        assert field.from_str("%d/%d" % (q.numerator, q.denominator)) == v
    assert type(QQ.raw(Fraction(6, 3))) is int
    with pytest.raises(TypeError):
        field.raw(0.5)
    if p:
        with pytest.raises(ZeroDivisionError):
            field.raw(Fraction(1, p))
