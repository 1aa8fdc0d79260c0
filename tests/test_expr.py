from fractions import Fraction

import pytest

from qiso.expr import ParseError, parse_element
from qiso.freealg import Element, FreeAlgebra, tensor
from qiso.scalars import Scalar, ThetaLin


@pytest.fixture
def alg():
    return FreeAlgebra(["U", "V", "A1"])


class TestParse:
    def test_generator(self, alg):
        assert (parse_element("U", alg) - alg.gen("U")).is_zero()

    def test_adjoint_suffix(self, alg):
        assert (parse_element("U*", alg) - alg.gen("U", star=True)).is_zero()
        assert (parse_element("U'", alg) - alg.gen("U", star=True)).is_zero()

    def test_product_and_sum(self, alg):
        U, V = alg.gen("U"), alg.gen("V")
        got = parse_element("U V - V U", alg)
        assert (got - (U * V - V * U)).is_zero()

    def test_rational_coefficients(self, alg):
        U = alg.gen("U")
        got = parse_element("1/2 U + 1/2 U", alg)
        assert (got - U).is_zero()

    def test_exponential_coefficient(self, alg):
        U = alg.gen("U")
        got = parse_element("e(-t) U", alg)
        want = U * Scalar.exponential(ThetaLin(0, -1))
        assert (got - want).is_zero()

    def test_exponential_specialized(self, alg):
        got = parse_element("e(t)", alg, theta=Fraction(1, 2))
        assert (got - Element.unit(alg) * Scalar.rational(-1)).is_zero()

    def test_parentheses(self, alg):
        U, V = alg.gen("U"), alg.gen("V")
        got = parse_element("U (U - V)", alg)
        assert (got - (U * U - U * V)).is_zero()

    def test_multicharacter_names(self, alg):
        assert (parse_element("A1*", alg) - alg.gen("A1", star=True)).is_zero()

    def test_unknown_generator(self, alg):
        with pytest.raises(ParseError):
            parse_element("W", alg)

    def test_unbalanced_parens(self, alg):
        with pytest.raises(ParseError):
            parse_element("(U", alg)

    def test_tensor_marker(self, alg):
        other = FreeAlgebra(["P"])
        from qiso.expr import parse

        got = parse("U (x) P", [alg, other])
        assert (got - tensor(alg.gen("U"), other.gen("P"))).is_zero()

    @pytest.mark.parametrize("text", ["P (x) U", "(U (x) P) (x) P"])
    def test_tensor_factor_out_of_its_algebra(self, alg, text):
        with pytest.raises(ParseError, match="algebra of its position"):
            parse_element(text, [alg, FreeAlgebra(["P"])])
