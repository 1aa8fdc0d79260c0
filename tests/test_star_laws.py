"""The involution is an anti-multiplicative, additive involution on every
ambient.  ``cqg.star_close`` rests on these laws when it drops an adjoint
that is already in a relation list up to sign."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiso.catalog import eight_block_model, torus_block
from qiso.freealg import Element, FreeAlgebra, TensorAlgebra
from qiso.scalars import Scalar, ThetaLin

_THIRD = Fraction(1, 3)
_exps = st.integers(-2, 2)


def _coeffs(theta):
    lins = [ThetaLin(0, 0), ThetaLin(0, 1), ThetaLin(Fraction(1, 3), -2), ThetaLin(Fraction(1, 4), 0)]
    scalars = [Scalar.exponential(lin) * k for lin in lins for k in (1, -2, Fraction(1, 2))]
    if theta is not None:
        scalars = [c.specialize(theta) for c in scalars]
    return st.sampled_from(scalars)


def _free_word(letters, max_size=3):
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


def _ds_mono(nblocks):
    return st.tuples(st.integers(0, nblocks - 1), st.tuples(_exps, _exps))


# x is a plain generator (letters 0 and 1), y is self-adjoint (letter 2)
_FREE = FreeAlgebra(["x", "y"], selfadjoint=["y"])
_DS = eight_block_model()
_DS_THIRD = eight_block_model(_THIRD)

_AMBIENTS = {
    "free": (_FREE, _free_word([0, 1, 2]), None),
    "block-generic": (torus_block(), st.tuples(_exps, _exps), None),
    "block-1/3": (torus_block(_THIRD), st.tuples(_exps, _exps), _THIRD),
    "direct-sum-generic": (_DS, _ds_mono(8), None),
    "direct-sum-1/3": (_DS_THIRD, _ds_mono(8), _THIRD),
    "tensor-free-block": (TensorAlgebra([_FREE, torus_block()]),
                          st.tuples(_free_word([0, 1, 2], 2), st.tuples(_exps, _exps)), None),
    "tensor-block-sum": (TensorAlgebra([torus_block(_THIRD), _DS_THIRD]),
                         st.tuples(st.tuples(_exps, _exps), _ds_mono(3)), _THIRD),
}


def _elements(name):
    amb, monos, theta = _AMBIENTS[name]
    return st.dictionaries(monos, _coeffs(theta), max_size=4).map(lambda t: Element(amb, t))


LAWS = settings(deadline=None, max_examples=20)


@pytest.mark.parametrize("name", sorted(_AMBIENTS))
class TestStarLaws:
    @LAWS
    @given(data=st.data())
    def test_anti_multiplicative(self, name, data):
        x, y = data.draw(_elements(name)), data.draw(_elements(name))
        assert (x * y).star() == y.star() * x.star()

    @LAWS
    @given(data=st.data())
    def test_involution(self, name, data):
        x = data.draw(_elements(name))
        assert x.star().star() == x

    @LAWS
    @given(data=st.data())
    def test_additive(self, name, data):
        x, y = data.draw(_elements(name)), data.draw(_elements(name))
        assert (x + y).star() == x.star() + y.star()

    @LAWS
    @given(data=st.data())
    def test_conjugate_linear(self, name, data):
        x = data.draw(_elements(name))
        c = data.draw(_coeffs(_AMBIENTS[name][2]))
        assert (x * c).star() == x.star() * c.conj()


def test_self_adjoint_generator_is_fixed():
    y = _FREE.gen("y")
    assert y.star() == y
    assert (y * _FREE.gen("x")).star() == _FREE.gen("x", star=True) * y
