"""Completion and reduction against their frozen reference.

``rewrite_ref.RefRuleSet`` builds every certificate eagerly, scans every
ordered pair of rules, and finds rules by scanning per-letter buckets.
:class:`qiso.rewrite.RuleSet` reduces each S-element once, builds a
survivor's certificate only when it is first read, reads the ambiguities
of a new rule from its prefix, suffix and subword dicts, never forms the
(zero) S-element of two monomial rules, looks up rules by word, and builds
no intermediate elements.  Both must give the same system: the same rules in
the same order, the same right-hand sides, the same rendered certificates and
the same count of ambiguities skipped at the cap, and the same normal forms
and certificates for seeded words.  Every rule's certificate must also
re-expand to its own ``lhs - rhs``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiso import catalog, presfile
from qiso.freealg import Element, FreeAlgebra
from qiso.rewrite import RuleSet, UnitIdeal, render_certificate, verify_certificate
from qiso.scalars import Scalar, ThetaLin
from rewrite_ref import RefRuleSet


def _torus_b(theta, cap):
    bp = catalog.build("torus", theta).b_presentation
    return bp.algebra, bp.star_closed_relations, cap


def _sphere_pres(cap):
    pres = presfile.load_data("sphere.pres")
    return pres.algebra, pres.relations, cap


def _membership(name):
    sc = catalog.build(name)
    rels = sc.member_relations
    return rels[0].ambient, rels, sc.member_cap


def _prefix_lhs():
    # completion orients y x x* y first and then y, a prefix of it, so two
    # rules match at the start of y x x* y and the earlier one must win
    alg = FreeAlgebra(["x", "y"])
    x, y = alg.gen("x"), alg.gen("y")
    word = y * x * x.star() * y
    lam = Scalar.exponential(ThetaLin(0, 1))
    return alg, [word * lam - 1, word * Scalar.rational(Fraction(-1, 3)) + y], 4


SYSTEMS = {
    "torus-b-cap3-generic": lambda: _torus_b(None, 3),
    "torus-b-cap3-third": lambda: _torus_b(Fraction(1, 3), 3),
    "torus-b-cap4-generic": lambda: _torus_b(None, 4),
    # at cap 2 the sphere skips 40 overlaps of its length-2 lhs, self-overlaps
    # among them; torus B skips them at lhs lengths 2 to 4
    "sphere-pres-cap2": lambda: _sphere_pres(2),
    "sphere-pres-cap3": lambda: _sphere_pres(3),
    "sphere-pres-cap4": lambda: _sphere_pres(4),
    "circle-membership": lambda: _membership("circle"),
    "sphere-membership": lambda: _membership("sphere"),
    "torus-membership": lambda: _membership("torus"),
    "prefix-lhs": _prefix_lhs,
}


def signature(rs):
    """Everything a completion decides, as comparable plain data."""
    rules = [
        (r.lhs, r.rhs.render(), render_certificate(rs.relations, r.rep, rs.algebra))
        for r in rs.rules
    ]
    return rules, rs.skipped, rs.capped


def assert_sound(rs):
    for rule in rs.rules:
        lhs = Element(rs.algebra, {rule.lhs: Scalar.one()})
        assert verify_certificate(lhs - rule.rhs, rs.relations, rule.rep)


@pytest.fixture(scope="module")
def completed():
    cache = {}

    def get(name):
        if name not in cache:
            alg, rels, cap = SYSTEMS[name]()
            cache[name] = RuleSet(alg, rels, cap), RefRuleSet(alg, rels, cap)
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_same_system_as_reference(completed, name):
    new, ref = completed(name)
    assert signature(new) == signature(ref)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_rule_certificate_sound(completed, name):
    assert_sound(completed(name)[0])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_same_normal_forms_as_reference(completed, name):
    # the word lookup and the intermediate-free reduction against the
    # frozen bucket scan, on every lhs and on seeded words up to the cap
    new, ref = completed(name)
    alg = new.algebra
    letters = sorted({alg.letter(n, star) for n in alg.names for star in (False, True)})
    rng = random.Random(name)
    words = [r.lhs for r in new.rules] + [
        tuple(rng.choice(letters) for _ in range(rng.randint(0, new.cap))) for _ in range(60)
    ]
    for w in words:
        elem = Element(alg, {w: Scalar.one()})
        (nf, cert), (ref_nf, ref_cert) = (
            rs.normal_form(elem, with_cert=True) for rs in (new, ref)
        )
        assert nf.render() == ref_nf.render()
        assert render_certificate(new.relations, cert, alg) == render_certificate(
            ref.relations, ref_cert, alg
        )


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("name", ["torus-b-cap4-generic", "torus-membership"])
def test_certificates_read_out_of_rule_order(completed, name, order):
    # a fresh system, whose certificates are all still pending: each read
    # builds the pending ones it rests on, in rule order, and every rendered
    # certificate equals the eager reference's
    _, ref = completed(name)
    new = RuleSet(ref.algebra, ref.relations, ref.cap)
    positions = list(range(len(new.rules)))
    if order == "reversed":
        positions.reverse()
    else:
        random.Random(f"{name}-{order}").shuffle(positions)
    got = {j: render_certificate(new.relations, new.rules[j].rep, new.algebra) for j in positions}
    assert [got[j] for j in range(len(new.rules))] == [
        render_certificate(ref.relations, r.rep, ref.algebra) for r in ref.rules
    ]


def test_skipped_counts_overlaps_above_cap(completed):
    new, _ = completed("torus-b-cap3-generic")
    assert new.skipped > 0 and new.capped is True
    new, _ = completed("sphere-pres-cap4")
    assert new.skipped == 0 and new.capped is False
    new, _ = completed("sphere-pres-cap2")
    assert (len(new.rules), new.skipped, new.capped) == (33, 40, True)


def test_completed_system_keeps_no_ambiguity_index(completed):
    # only completion reads the prefix, suffix and subword dicts; a
    # completed system drops them and still reduces, certifies and builds
    # its pending certificates
    _, ref = completed("torus-b-cap3-third")
    new = RuleSet(ref.algebra, ref.relations, ref.cap)
    assert not any(hasattr(new, a) for a in ("_prefixes", "_suffixes", "_subwords"))
    assert any(r._pending is not None for r in new.rules)
    alg = new.algebra
    for r in ref.rules[::7]:
        # the last letter of an lhs, then the lhs, cut at the cap
        elem = Element(alg, {(r.lhs[-1:] + r.lhs)[: new.cap]: Scalar.one()})
        (nf, cert), (ref_nf, ref_cert) = (rs.normal_form(elem, with_cert=True) for rs in (new, ref))
        assert nf.render() == ref_nf.render()
        assert render_certificate(new.relations, cert, alg) == render_certificate(
            ref.relations, ref_cert, alg)
    assert signature(new) == signature(ref)
    assert all(r._pending is None for r in new.rules)


def test_torus_b_cap4_size(completed):
    # the system the rewrite benchmark completes: 396 of its rules are monomial
    new, _ = completed("torus-b-cap4-generic")
    assert (len(new.rules), new.skipped, new.capped) == (516, 7845, True)
    assert sum(not r.rhs.t for r in new.rules) == 396


# -- random relation sets ------------------------------------------------------

_LAM = Scalar.exponential(ThetaLin(0, 1))
COEFFS = [
    Scalar.one(),
    -Scalar.one(),
    Scalar.rational(Fraction(2)),
    Scalar.rational(Fraction(-1, 3)),
    _LAM,
    Scalar.exponential(ThetaLin(Fraction(1, 3), -1)),
    Scalar.one() + _LAM,  # not a unit
]


@st.composite
def relation_sets(draw):
    ngens = draw(st.integers(2, 3))
    alg = FreeAlgebra(["x", "y", "z"][:ngens])
    cap = draw(st.integers(1, 4))
    # words up to the cap, now and then one longer; constants are rarer
    # than letters, since they often make the relations generate everything
    longest = draw(st.sampled_from([cap] * 9 + [cap + 1]))
    letters = st.integers(0, 2 * ngens - 1)
    words = st.sampled_from([0] + list(range(1, longest + 1)) * 3).flatmap(
        lambda n: st.lists(letters, min_size=n, max_size=n).map(tuple)
    )
    term = st.tuples(words, st.sampled_from(COEFFS))
    rels = []
    # two or three terms each, like the commutation and unitarity relations
    for terms in draw(st.lists(st.lists(term, min_size=2, max_size=3), min_size=2, max_size=4)):
        elem = Element.zero(alg)
        for w, c in terms:
            elem._add_term(w, c)
        rels.append(elem)
    return alg, rels, cap


@st.composite
def monomial_mixed_sets(draw):
    """A set from ``relation_sets`` with one to four single-word relations
    put in at drawn places, so that completion meets pairs of monomial rules
    (whose S-elements are zero) beside pairs with one monomial rule."""
    alg, rels, cap = draw(relation_sets())
    letters = st.integers(0, 2 * len(alg.names) - 1)
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(draw(st.lists(letters, min_size=1, max_size=cap)))
        mono = Element(alg, {word: draw(st.sampled_from(COEFFS[:-1]))})
        rels.insert(draw(st.integers(0, len(rels))), mono)
    return alg, rels, cap


def _outcome(cls, alg, rels, cap):
    try:
        return "ok", cls(alg, rels, cap)
    except Exception as exc:  # compared by type and message below
        return "raised", (type(exc), str(exc))


def _assert_same_outcome(system):
    kind, new = _outcome(RuleSet, *system)
    ref_kind, ref = _outcome(RefRuleSet, *system)
    assert kind == ref_kind
    if kind == "raised":
        # the reference crashes on the empty lhs of a unit ideal, where the
        # package raises a named error
        if ref[0] is IndexError:
            assert new[0] is UnitIdeal
        else:
            assert new == ref
        return
    assert signature(new) == signature(ref)
    assert_sound(new)


@settings(deadline=None, max_examples=150)
@given(relation_sets())
def test_random_relation_sets(system):
    _assert_same_outcome(system)


@settings(deadline=None, max_examples=150)
@given(monomial_mixed_sets())
def test_random_sets_with_monomial_relations(system):
    _assert_same_outcome(system)
