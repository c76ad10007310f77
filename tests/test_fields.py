"""Value semantics of the two field classes and their document I/O."""

import copy
import pickle
from fractions import Fraction

import pytest

from curvlab.fields import GF, QQ, CoefficientError, FieldSpec, PrimeField, Rationals


def test_equality_and_hash():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert GF(2) != QQ
    assert QQ == Rationals()
    assert len({GF(3), GF(3), GF(5), QQ, Rationals()}) == 3
    assert hash(GF(7)) == hash(PrimeField(7))


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(2**31 - 1), QQ], ids=repr)
def test_copy_pickle_and_document_round_trip(F):
    for G in (copy.deepcopy(F), copy.copy(F), pickle.loads(pickle.dumps(F))):
        assert G == F and hash(G) == hash(F)
        assert type(G) is type(F)
        assert G.is_prime_field == F.is_prime_field
    assert FieldSpec.from_doc(F.describe()) == F


def test_monomorphic_classes():
    assert isinstance(GF(5), PrimeField) and isinstance(QQ, Rationals)
    assert isinstance(GF(5), FieldSpec) and isinstance(QQ, FieldSpec)
    # a plain class attribute, not a property computed per call
    assert vars(PrimeField)["is_prime_field"] is True
    assert vars(Rationals)["is_prime_field"] is False
    assert (GF(5).kind, GF(5).characteristic) == ("prime-field", 5)
    assert (QQ.kind, QQ.characteristic) == ("rationals", 0)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 2**31 + 11, -3, "3"])
def test_bad_characteristic_rejected(p):
    with pytest.raises(ValueError):
        GF(p)


def test_scalar_arithmetic():
    F = GF(5)
    assert (F.add(3, 4), F.sub(1, 3), F.neg(2), F.mul(3, 4), F.inv(2)) == (2, 3, 3, 2, 3)
    assert F.is_zero(10) and not F.is_zero(-4)
    with pytest.raises(ZeroDivisionError):
        F.inv(5)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert type(QQ.inv(2)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_parse_coeff_accepts_field_elements_only():
    assert GF(3).parse_coeff(5) == 2 and GF(3).parse_coeff("-1") == 2
    assert QQ.parse_coeff("2/4") == Fraction(1, 2) and type(QQ.parse_coeff(3)) is Fraction
    for F, bad in [(GF(3), "abc"), (GF(3), [1]), (GF(3), 1.5), (GF(3), "1/2"), (GF(3), True),
                   (GF(3), None), (QQ, "abc"), (QQ, [1]), (QQ, 1.5), (QQ, "1/0"), (QQ, False)]:
        with pytest.raises(CoefficientError):
            F.parse_coeff(bad)
