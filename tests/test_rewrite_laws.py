"""Laws of the rewriting layer on the systems the scenarios complete.

Normal forms are idempotent, and every element built as a combination
sum c * u * r * v of the relations (each term within the cap) is an ideal
member whose certificate re-expands to it.  The systems are the membership
systems of the circle, the sphere and the torus, and the circle's
normal-form system (the torus normal-form system is its membership system).
"""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qiso import catalog
from qiso.freealg import Element
from qiso.rewrite import YES, ideal_member, verify_certificate
from qiso.scalars import Scalar, ThetaLin

SYSTEMS = ["circle-membership", "sphere-membership", "torus-membership", "circle-nf"]

UNITS = [
    Scalar.one(),
    -Scalar.one(),
    Scalar.rational(Fraction(2)),
    Scalar.rational(Fraction(-1, 3)),
    Scalar.exponential(ThetaLin(0, 1)),
    Scalar.exponential(ThetaLin(Fraction(1, 3), -1)),
]


@functools.cache
def rules(name):
    scenario, kind = name.split("-")
    sc = catalog.build(scenario)
    return sc.member_rules if kind == "membership" else sc.nf_rules


def test_torus_normal_forms_use_its_membership_system():
    sc = catalog.build("torus")
    assert sc.nf_rules is sc.member_rules


def _letters(alg):
    return sorted({alg.letter(n, star) for n in alg.names for star in (False, True)})


@st.composite
def elements(draw):
    """A system and a sum of one to four words of length <= its cap."""
    name = draw(st.sampled_from(SYSTEMS))
    rs = rules(name)
    letters = st.sampled_from(_letters(rs.algebra))
    elem = Element.zero(rs.algebra)
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(draw(st.lists(letters, max_size=rs.cap)))
        elem._add_term(word, draw(st.sampled_from(UNITS)))
    return rs, elem


@settings(deadline=None, max_examples=150)
@given(elements())
def test_normal_forms_are_idempotent(system):
    rs, elem = system
    nf = rs.normal_form(elem)
    assert rs.normal_form(nf).render() == nf.render()


@st.composite
def ideal_elements(draw):
    """A system and a combination sum c * u * r * v of its relations, each
    term of degree <= the cap."""
    name = draw(st.sampled_from(SYSTEMS))
    rs = rules(name)
    letters = st.sampled_from(_letters(rs.algebra))
    elem = Element.zero(rs.algebra)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(rs.relations) - 1))
        room = rs.cap - rs.relations[k].deg()
        u = tuple(draw(st.lists(letters, max_size=room)))
        v = tuple(draw(st.lists(letters, max_size=room - len(u))))
        c = draw(st.sampled_from(UNITS))
        for m, rc in rs.relations[k].t.items():
            elem._add_term(u + m + v, rc * c)
    return rs, elem


@settings(deadline=None, max_examples=150)
@given(ideal_elements())
def test_ideal_elements_are_members_with_sound_certificates(system):
    rs, elem = system
    result = ideal_member(elem, rs)
    assert result.status == YES
    assert verify_certificate(elem, rs.relations, result.certificate)
