"""``cqg.star_close`` against a frozen copy of the quadratic closure it
replaced: the same list, the same terms in the same order, the same render."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiso import catalog
from qiso.catalog import build
from qiso.cqg import star_close
from qiso.freealg import Element, FreeAlgebra, TensorAlgebra
from qiso.scalars import Scalar, ThetaLin


def star_close_quadratic(relations) -> list:
    """The closure as it was: each r* is compared with every kept relation."""
    out = list(relations)
    for r in relations:
        rs = r.star()
        if not any((rs - q).is_zero() or (rs + q).is_zero() for q in out):
            out.append(rs)
    return out


def assert_same_closure(relations):
    got, want = star_close(relations), star_close_quadratic(relations)
    assert len(got) == len(want)
    assert all(g is r for g, r in zip(got, relations))
    for g, w in zip(got, want):
        assert list(g.t) == list(w.t)
        assert all(c == w.t[m] for m, c in g.t.items())
        assert g.render() == w.render()
    return got


_FREE = FreeAlgebra(["x", "y"], selfadjoint=["y"])
_TENSOR = TensorAlgebra([_FREE, FreeAlgebra(["u"])])
_THETAS = [None, Fraction(0), Fraction(1, 2), Fraction(1, 3)]
_PHASES = [ThetaLin(0, 0), ThetaLin(0, 1), ThetaLin(Fraction(1, 3), -2), ThetaLin(Fraction(1, 4), 0)]


def _word(max_size):
    # letters 0, 1, 2 are x, x*, y
    return st.lists(st.sampled_from([0, 1, 2]), max_size=max_size).map(tuple)


_MONOS = {
    "free": _word(3),
    "tensor": st.tuples(_word(2), st.lists(st.sampled_from([0, 1]), max_size=2).map(tuple)),
}


@st.composite
def relation_lists(draw):
    """Base relations together with copies, adjoints, negations, scalings,
    self-adjoint parts and zeros, in a random order."""
    name = draw(st.sampled_from(sorted(_MONOS)))
    amb = _FREE if name == "free" else _TENSOR
    theta = draw(st.sampled_from(_THETAS))

    def coeff(lin, scale):
        c = Scalar.exponential(lin) * scale
        return c if theta is None else c.specialize(theta)

    coeffs = st.builds(coeff, st.sampled_from(_PHASES), st.sampled_from([1, -1, 2, Fraction(1, 2)]))
    base = draw(st.lists(
        st.dictionaries(_MONOS[name], coeffs, max_size=4).map(lambda t: Element(amb, t)),
        min_size=1, max_size=5))
    variants = [
        lambda r: r,
        lambda r: r.star(),
        lambda r: -r,
        lambda r: -r.star(),
        lambda r: r + r.star(),
        lambda r: r - r.star(),
        lambda r: r * Scalar.rational(2),
        lambda r: Element.zero(amb),
    ]
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, len(variants) - 1)),
                          max_size=8))
    rels = base + [variants[v](base[i]) for i, v in picks]
    return draw(st.permutations(rels))


class TestAgainstQuadraticClosure:
    @settings(deadline=None, max_examples=150)
    @given(relation_lists())
    def test_random_lists(self, relations):
        assert_same_closure(relations)

    @pytest.mark.parametrize("x_self_adjoint", [False, True])
    def test_duplicates_negations_and_zeros(self, x_self_adjoint):
        alg = FreeAlgebra(["x"], selfadjoint=["x"] if x_self_adjoint else [])
        x, one = alg.gen("x"), Element.unit(alg)
        r = x * x - one * Scalar.exponential(ThetaLin(0, 1))
        rels = [r, r, -r, Element.zero(alg), x + x.star(), Element.zero(alg)]
        assert len(assert_same_closure(rels)) == len(rels) + 1
        rels += [-r.star(), r.star()]
        assert len(assert_same_closure(rels)) == len(rels)

    def test_empty_list(self):
        assert star_close([]) == []


@pytest.fixture(scope="module")
def real_lists():
    """Every list that the catalog star-closes while building the torus (at
    generic theta, 1/3 and 0) and the circle and running the sphere suite."""
    seen = {}
    original = catalog.star_close

    def recording(relations):
        seen.setdefault(label, []).append(list(relations))
        return original(relations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "star_close", recording)
        for label, make in [
            ("torus", lambda: build("torus")),
            ("torus-1/3", lambda: build("torus", Fraction(1, 3))),
            ("torus-0", lambda: build("torus", Fraction(0))),
            ("circle", lambda: build("circle")),
            ("sphere", lambda: build("sphere").suite()),
        ]:
            make()
    return seen


class TestRealLists:
    @pytest.mark.parametrize("label, sizes", [
        ("torus", [(107, 182)]),
        ("torus-1/3", [(107, 182)]),
        ("torus-0", [(107, 166)]),
        ("circle", [(6, 6)]),
        ("sphere", [(66, 114)]),
    ])
    def test_same_closure(self, real_lists, label, sizes):
        got = [(len(rels), len(assert_same_closure(rels))) for rels in real_lists[label]]
        assert got == sizes

    def test_closed_lists_are_fixed_points(self, real_lists):
        closed = star_close(real_lists["torus"][0])
        assert len(star_close(closed)) == len(closed)


class TestMixedAmbients:
    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_raises(self, position):
        a, b = FreeAlgebra(["x"]), FreeAlgebra(["z"])
        x = a.gen("x")
        rels = [x * x, x + x.star(), x.star()]
        rels.insert(position, b.gen("z"))
        with pytest.raises(ValueError, match="different ambient algebras"):
            star_close(rels)
        with pytest.raises(ValueError, match="different ambient algebras"):
            star_close_quadratic(rels)

    def test_structurally_equal_algebras_combine(self):
        x1, x2 = FreeAlgebra(["x"]).gen("x"), FreeAlgebra(["x"]).gen("x")
        assert len(assert_same_closure([x1, x2.star()])) == 2
