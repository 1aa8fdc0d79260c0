"""Certificate text against its frozen renderer.

:func:`qiso.rewrite.render_certificate` renders each distinct coefficient
(keyed by its exact terms) and each distinct word once per certificate;
``rewrite_ref.render_certificate`` renders every entry afresh.  The text must
be byte-identical on the rule certificates of every system the rewriting
reference completes, on membership certificates of seeded ideal elements of
the torus, the circle and the sphere at generic theta and at 1/3, and on
drawn certificates whose coefficients repeat, also as equal values written
at other conductors.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewrite_ref
from qiso import catalog
from qiso.freealg import Element, FreeAlgebra
from qiso.rewrite import RuleSet, ideal_member, render_certificate
from qiso.scalars import ONE, Scalar, ThetaLin
from test_rewrite_ref import SYSTEMS


def assert_same_text(relations, cert, alg):
    assert render_certificate(relations, cert, alg) == rewrite_ref.render_certificate(
        relations, cert, alg)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_rule_certificates(name):
    alg, rels, cap = SYSTEMS[name]()
    rs = RuleSet(alg, rels, cap)
    for rule in rs.rules:
        assert_same_text(rs.relations, rule.rep, alg)


_SCENARIOS = {}


def _scenario(name, theta):
    if theta not in _SCENARIOS:
        names = ["circle", "sphere", "torus"]
        _SCENARIOS[theta] = dict(zip(names, catalog.build_all(names, theta)))
    return _SCENARIOS[theta][name]


_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3), Fraction(3, 2)]


@st.composite
def _ideal_elements(draw, relations, cap):
    """A sum of 1 to 4 terms c * u * r * v of degree at most cap."""
    alg = relations[0].ambient
    letters = sorted({alg.letter(n, star) for n in alg.names for star in (False, True)})
    p = Element.zero(alg)
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.sampled_from(relations))
        room = cap - r.deg()
        u = tuple(draw(st.lists(st.sampled_from(letters), max_size=room)))
        v = tuple(draw(st.lists(st.sampled_from(letters), max_size=room - len(u))))
        c = Scalar.rational(draw(st.sampled_from(_COEFFS)))
        p = p + Element(alg, {u: ONE}) * r * Element(alg, {v: ONE}) * c
    return p


@settings(deadline=None, max_examples=30)
@given(st.data())
@pytest.mark.parametrize("theta", [None, Fraction(1, 3)])
@pytest.mark.parametrize("name", ["circle", "sphere", "torus"])
def test_membership_certificates(name, theta, data):
    sc = _scenario(name, theta)
    rules = sc.member_rules
    p = data.draw(_ideal_elements(sc.member_relations, sc.member_cap))
    result = ideal_member(p, rules)
    assert result.status == "YES"
    assert_same_text(rules.relations, result.certificate, rules.algebra)


_LAM = Scalar.exponential(ThetaLin(0, 1))
_THIRD = Scalar.root(Fraction(1, 3))
# repeated values, and values equal to others but formed another way (the
# product of two roots of one conductor, a sum that is 1, 2 as 1 + 1)
_POOL = [
    ONE, Scalar.one(), -ONE, ONE + ONE, Scalar.rational(2), Scalar.rational(Fraction(-1, 3)),
    _LAM, _LAM * _LAM.conj(), ONE + _LAM, _THIRD, _THIRD * _THIRD * _THIRD,
    Scalar.root(Fraction(1, 6)) * Scalar.root(Fraction(1, 6)), ONE + _THIRD, -(ONE + _THIRD),
    Scalar.exponential(ThetaLin(Fraction(1, 4), -2)),
]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(
    st.sampled_from(_POOL),
    st.lists(st.integers(0, 5), max_size=3).map(tuple),
    st.integers(0, 3),
    st.lists(st.integers(0, 5), max_size=3).map(tuple),
), max_size=12))
def test_drawn_certificates(cert):
    alg = FreeAlgebra(["x", "y", "z"], selfadjoint={"z"})
    assert_same_text([], cert, alg)
