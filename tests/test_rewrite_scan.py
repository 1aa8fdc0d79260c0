"""The resumed leftmost scan of ``RuleSet._reduce``.

After a rewrite at position i, the reduction scans each term the rewrite
produces from i - (longest lhs) + 1, not from the start of the word: a
match further left would lie inside the kept prefix, which had none.  The
rewrite's rhs can still make a match that starts left of i, so the scan
cannot resume at i itself.  Normal forms, the insertion order of their terms
and their certificates must equal those of the frozen reference, which scans
every word from its start.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qiso.freealg import Element, FreeAlgebra
from qiso.rewrite import RuleSet, render_certificate, verify_certificate
from rewrite_ref import RefRuleSet
from test_rewrite_ref import COEFFS, relation_sets


def test_rhs_makes_a_match_left_of_the_rewrite():
    # x a b: a b -> c at position 1 gives x c, which x c -> d matches at 0
    alg = FreeAlgebra(["a", "b", "c", "d", "x"])
    a, b, c, d, x = (alg.gen(n) for n in ("a", "b", "c", "d", "x"))
    rels = [a * b - c, x * c - d]
    rs = RuleSet(alg, rels, 3)
    assert [alg.render_mono(r.lhs) for r in rs.rules] == ["a b", "x c"]
    nf, cert = rs.normal_form(x * a * b, with_cert=True)
    assert nf.render() == "d"
    assert render_certificate(rels, cert, alg) == "x . r0 + r1"
    assert verify_certificate(x * a * b - d, rels, cert)
    # two rewrites that each reach back: y x a b -> y x c -> y d -> 2 c
    y = alg.gen("x", star=True)
    rels2 = rels + [y * d - c * 2]
    rs2 = RuleSet(alg, rels2, 4)
    assert rs2.normal_form(y * x * a * b).render() == "2 * c"


def _outcome(cls, system):
    try:
        return cls(*system)
    except Exception:  # a unit ideal, a non-unit lead or a relation above the cap
        return None


@st.composite
def systems_and_elements(draw):
    """A completed ``relation_sets`` system and an element of degree at most
    its cap: drawn terms, some of them on one word so that they add up or
    cancel as they are read, and multiples u.(lhs - rhs).v of drawn rules,
    which reduce to zero against the terms beside them."""
    system = draw(relation_sets())
    new, ref = _outcome(RuleSet, system), _outcome(RefRuleSet, system)
    assume(new is not None and ref is not None)
    alg, cap = new.algebra, new.cap
    letters = st.integers(0, 2 * len(alg.names) - 1)
    words = st.integers(0, cap).flatmap(
        lambda n: st.lists(letters, min_size=n, max_size=n).map(tuple))
    coeffs = st.sampled_from(COEFFS)
    elem = Element.zero(alg)
    for w, c in draw(st.lists(st.tuples(words, coeffs), max_size=5)):
        elem._add_term(w, c)
        if draw(st.booleans()):
            elem._add_term(w, -c)  # cancels, or leaves what an earlier term put there
    for _ in range(draw(st.integers(0, 2)) if new.rules else 0):
        rule = draw(st.sampled_from(new.rules))
        room = cap - len(rule.lhs)
        u = tuple(draw(st.lists(letters, max_size=room)))
        v = tuple(draw(st.lists(letters, max_size=room - len(u))))
        c = draw(coeffs)
        elem._add_term(u + rule.lhs + v, c)
        for m, rc in rule.neg.items():
            elem._add_term(u + m + v, rc * c)
    return new, ref, elem


@settings(deadline=None, max_examples=150)
@given(systems_and_elements())
def test_same_normal_forms_as_reference(case):
    new, ref, elem = case
    (nf, cert), (ref_nf, ref_cert) = (rs.normal_form(elem, with_cert=True) for rs in (new, ref))
    assert list(nf.t) == list(ref_nf.t)
    assert nf.render() == ref_nf.render()
    alg = new.algebra
    assert render_certificate(new.relations, cert, alg) == render_certificate(
        ref.relations, ref_cert, alg)
    assert verify_certificate(elem - nf, new.relations, cert)


def test_scan_resumes_a_longest_lhs_back():
    # x y k: k -> z at position 2 gives x y z, which x y z -> w matches at
    # 0, two letters left of the rewrite: the longest lhs less one
    alg = FreeAlgebra(["w", "x", "y", "z", "k"])
    w, x, y, z, k = (alg.gen(n) for n in ("w", "x", "y", "z", "k"))
    rels = [x * y * z - w, k - z]
    rs, ref = RuleSet(alg, rels, 4), RefRuleSet(alg, rels, 4)
    assert [alg.render_mono(r.lhs) for r in rs.rules] == ["k", "x y z"]
    for word, want in ((x * y * k, "w"), (x * x * y * k, "x w"), (x * y * k + k * x * y * k, "z w + w")):
        (nf, cert), (ref_nf, ref_cert) = (s.normal_form(word, with_cert=True) for s in (rs, ref))
        assert nf.render() == ref_nf.render() == want
        assert list(nf.t) == list(ref_nf.t)
        assert render_certificate(rels, cert, alg) == render_certificate(rels, ref_cert, alg)
