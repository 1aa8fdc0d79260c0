"""``Element.__eq__`` compares term dicts.  That is exact because no term
holds a zero coefficient and ``Scalar.__eq__`` is exact across conductors, so
``a == b`` must agree with the zero test of ``a - b`` on every ambient."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiso.catalog import eight_block_model, torus_block
from qiso.freealg import Element, FreeAlgebra, TensorAlgebra
from qiso.scalars import Scalar, ThetaLin

_THIRD = Fraction(1, 3)
_exps = st.integers(-1, 1)


def _e(r):
    return Scalar.root(Fraction(r))


def _et(s):
    return Scalar.exponential(ThetaLin(0, s))


# each entry is one value written in several forms; the forms of e(1/3) sit
# at conductors 3, 6 and 12, and a product of conjugates falls back to 1
_VALUES = [
    [Scalar.one(), _e(Fraction(1, 4)) * _e(Fraction(-1, 4)), _e(Fraction(1, 6)) ** 6],
    [Scalar.rational(-2), _e(Fraction(1, 2)) * 2],
    [_e(_THIRD), _e(Fraction(1, 6)) ** 2, _e(_THIRD) * _e(Fraction(1, 4)) * _e(Fraction(-1, 4))],
    [_e(Fraction(2, 3)), _e(_THIRD) ** 2, -1 - _e(_THIRD)],
    [_e(Fraction(1, 4)) * Fraction(1, 2), _e(Fraction(1, 12)) ** 3 * Fraction(1, 2)],
    [_et(1), _et(1) * _e(Fraction(1, 5)) * _e(Fraction(-1, 5))],
    [_et(-2) * _e(_THIRD), _et(-1) * _et(-1) * _e(Fraction(1, 6)) ** 2],
    [_et(1) + _e(_THIRD), _e(Fraction(1, 6)) ** 2 + _et(1)],
]
_AT_THIRD = [[c.specialize(_THIRD) for c in forms] for forms in _VALUES]

_FREE = FreeAlgebra(["x", "y"], selfadjoint=["y"])


def _free_word(max_size=3):
    return st.lists(st.sampled_from([0, 1, 2]), max_size=max_size).map(tuple)


def _ds_mono(nblocks):
    return st.tuples(st.integers(0, nblocks - 1), st.tuples(_exps, _exps))


# name -> (ambient, monomials, values)
_AMBIENTS = {
    "free": (_FREE, _free_word(), _VALUES),
    "free-1/3": (_FREE, _free_word(), _AT_THIRD),
    "block-generic": (torus_block(), st.tuples(_exps, _exps), _VALUES),
    "block-1/3": (torus_block(_THIRD), st.tuples(_exps, _exps), _AT_THIRD),
    "direct-sum-generic": (eight_block_model(), _ds_mono(8), _VALUES),
    "direct-sum-1/3": (eight_block_model(_THIRD), _ds_mono(8), _AT_THIRD),
    "tensor-free-block": (TensorAlgebra([_FREE, torus_block()]),
                          st.tuples(_free_word(2), st.tuples(_exps, _exps)), _VALUES),
    "tensor-block-sum": (TensorAlgebra([torus_block(_THIRD), eight_block_model(_THIRD)]),
                         st.tuples(st.tuples(_exps, _exps), _ds_mono(2)), _AT_THIRD),
}


def _element(data, amb, values, classes):
    """An element with the value classes ``classes`` (monomial -> index),
    each coefficient drawn in one of its forms, terms added in a drawn order."""
    out = Element(amb)
    for m in data.draw(st.permutations(sorted(classes, key=repr))):
        forms = values[classes[m]]
        out = out + Element(amb, {m: data.draw(st.sampled_from(forms))})
    return out


def _pair(data, name):
    amb, monos, values = _AMBIENTS[name]
    classes = st.dictionaries(monos, st.integers(0, len(values) - 1), max_size=4)
    first = data.draw(classes)
    # half the pairs share their value classes, so that equal pairs are common
    second = first if data.draw(st.booleans()) else data.draw(classes)
    if second is first and first and data.draw(st.booleans()):
        second = dict(first)  # one term moved to another value
        m = data.draw(st.sampled_from(sorted(first, key=repr)))
        second[m] = data.draw(st.integers(0, len(values) - 1))
    return _element(data, amb, values, first), _element(data, amb, values, second)


EQ = settings(deadline=None, max_examples=60)


@pytest.mark.parametrize("name", sorted(_AMBIENTS))
class TestEqualityIsZeroDifference:
    @EQ
    @given(data=st.data())
    def test_elements(self, name, data):
        a, b = _pair(data, name)
        assert (a == b) == (a - b).is_zero()
        assert (a != b) == (not (a - b).is_zero())
        assert (b == a) == (a == b)

    @EQ
    @given(data=st.data())
    def test_constants(self, name, data):
        amb, _monos, values = _AMBIENTS[name]
        a, _ = _pair(data, name)
        forms = data.draw(st.sampled_from(values))
        c = data.draw(st.sampled_from(forms))
        unit = Element.unit(amb) * data.draw(st.sampled_from(forms))
        for other in (c, unit, 0, 1):
            assert (a == other) == (a - other).is_zero()
        # a constant in another form equals the unit times it
        assert unit == c and unit - c == 0


def test_equal_forms_at_different_conductors():
    third = _VALUES[2]
    assert len({c.terms[0].n for c in third}) == 3  # conductors 3, 6 and 12
    x = _FREE.gen("x")
    assert all(x * a == x * b for a in third for b in third)
    assert x * third[0] != x * _VALUES[3][0]


def test_structurally_equal_ambients_compare():
    other = FreeAlgebra(["x", "y"], selfadjoint=["y"])
    assert _FREE.gen("x") == other.gen("x")
    assert _FREE.gen("x") != other.gen("y")
    with pytest.raises(ValueError):
        _FREE.gen("x") == FreeAlgebra(["x"]).gen("x")
