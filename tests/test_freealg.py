import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qiso
from qiso.freealg import (
    Element, FreeAlgebra, TensorAlgebra, same_ambient, substitute, substitute_factors, tensor,
)
from qiso.scalars import Scalar, ThetaLin


@pytest.fixture
def alg():
    return FreeAlgebra(["a", "b"])


class TestFreeAlgebra:
    def test_gen_and_star(self, alg):
        a = alg.gen("a")
        assert a.star().star().render() == a.render()
        assert a.render() == "a"
        assert a.star().render() == "a*"

    def test_selfadjoint_star_is_identity(self):
        alg = FreeAlgebra(["x"], selfadjoint={"x"})
        x = alg.gen("x")
        assert (x.star() - x).is_zero()

    def test_noncommutative_product(self, alg):
        a, b = alg.gen("a"), alg.gen("b")
        assert not (a * b - b * a).is_zero()

    def test_star_antimultiplicative(self, alg):
        a, b = alg.gen("a"), alg.gen("b")
        lam = Scalar.exponential(ThetaLin(0, 1))
        x = a * b * lam
        assert ((a * b * lam).star() - b.star() * a.star() * lam.conj()).is_zero()

    def test_unit_and_zero(self, alg):
        one = Element.unit(alg)
        z = Element.zero(alg)
        a = alg.gen("a")
        assert (one * a - a).is_zero()
        assert (a + z - a).is_zero()
        assert z.is_zero()

    def test_deg(self, alg):
        a, b = alg.gen("a"), alg.gen("b")
        assert (a * b * a.star()).deg() == 3
        assert Element.unit(alg).deg() == 0

    def test_substitute_homomorphism(self, alg):
        tgt = FreeAlgebra(["x", "y"])
        images = {"a": tgt.gen("x") + tgt.gen("y"), "b": tgt.gen("y")}
        a, b = alg.gen("a"), alg.gen("b")
        lhs = substitute(a * b - b * a, images)
        x, y = tgt.gen("x"), tgt.gen("y")
        want = (x + y) * y - y * (x + y)
        assert (lhs - want).is_zero()

    def test_substitute_starred_letters(self, alg):
        tgt = FreeAlgebra(["x"])
        images = {"a": tgt.gen("x"), "b": tgt.gen("x")}
        img = substitute(alg.gen("a", star=True), images)
        assert (img - tgt.gen("x").star()).is_zero()


class TestTensor:
    def test_componentwise_product(self, alg):
        other = FreeAlgebra(["c"])
        a = alg.gen("a")
        c = other.gen("c")
        t = tensor(a, c)
        sq = t * t
        want = tensor(a * a, c * c)
        assert (sq - want).is_zero()

    def test_star_componentwise(self, alg):
        other = FreeAlgebra(["c"])
        t = tensor(alg.gen("a"), other.gen("c"))
        want = tensor(alg.gen("a").star(), other.gen("c").star())
        assert (t.star() - want).is_zero()

    def test_substitute_factors(self, alg):
        other = FreeAlgebra(["c"])
        a, b, c = alg.gen("a"), alg.gen("b"), other.gen("c")
        t = tensor(a, c)
        swapped = substitute_factors(t, [{"a": b, "b": a}, None])
        assert (swapped - tensor(b, c)).is_zero()

    def test_substitute_factors_of_zero(self, alg):
        # the zero lands in the flattened product of the factor targets
        other = FreeAlgebra(["c"])
        pair = tensor(alg.gen("a"), other.gen("c"))
        zero = Element.zero(TensorAlgebra([alg, other]))
        out = substitute_factors(zero, [{"a": pair, "b": pair}, None])
        assert out.is_zero()
        assert same_ambient(out.ambient, TensorAlgebra([alg, other, other]))

    def test_specialize_distributes(self, alg):
        lam = Scalar.exponential(ThetaLin(0, 3))
        x = alg.gen("a") * lam
        sp = x.specialize(Fraction(1, 3))
        assert (sp - alg.gen("a")).is_zero()


class TestMixedAmbients:
    """Elements combine only over the same algebra: the same object, or one
    with the same structure.  Monomials are index tuples, so anything looser
    would read one algebra's words in another."""

    def test_other_free_algebra_is_rejected(self, alg):
        other = FreeAlgebra(["u", "v"])
        with pytest.raises(ValueError, match="different ambient algebras"):
            alg.gen("a") + other.gen("u")
        with pytest.raises(ValueError, match="different ambient algebras"):
            alg.gen("a") * other.gen("u")
        adjoint = FreeAlgebra(["a", "b"], selfadjoint={"a"})
        with pytest.raises(ValueError, match="different ambient algebras"):
            alg.gen("a") - adjoint.gen("a")

    def test_equal_free_algebra_is_accepted(self, alg):
        twin = FreeAlgebra(["a", "b"])
        assert (alg.gen("a") + twin.gen("a") - alg.gen("a") * 2).is_zero()

    def test_tensor_factors_must_match(self, alg):
        c = FreeAlgebra(["c"]).gen("c")
        # each tensor() call builds its own TensorAlgebra over the same factors
        assert (tensor(alg.gen("a"), c) - tensor(alg.gen("a"), c)).is_zero()
        u = FreeAlgebra(["u", "v"]).gen("u")
        with pytest.raises(ValueError, match="different ambient algebras"):
            tensor(alg.gen("a"), c) + tensor(u, c)
        with pytest.raises(ValueError, match="different ambient algebras"):
            tensor(alg.gen("a"), c) + tensor(alg.gen("a"), c, c)

    def test_rejected_without_asserts(self):
        # the check must not vanish under python -O
        code = (
            "from qiso.freealg import FreeAlgebra\n"
            "x, u = FreeAlgebra(['x', 'y']).gen('x'), FreeAlgebra(['u', 'v']).gen('u')\n"
            "try:\n"
            "    print('returned', (x + u).render())\n"
            "except ValueError as exc:\n"
            "    print('raised', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qiso.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised elements of different ambient algebras"
