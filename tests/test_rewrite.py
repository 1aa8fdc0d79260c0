import gc
import inspect
import sys
import weakref
from fractions import Fraction

import pytest

from qiso import rewrite
from qiso.freealg import Element, FreeAlgebra
from qiso.rewrite import (
    UNDECIDED,
    YES,
    DegreeOverflow,
    RuleSet,
    UnitIdeal,
    ideal_member,
    render_certificate,
    verify_certificate,
)
from qiso.scalars import Scalar, ThetaLin


@pytest.fixture
def torus_rules():
    alg = FreeAlgebra(["U", "V"])
    U, V = alg.gen("U"), alg.gen("V")
    one = Element.unit(alg)
    lam = Scalar.exponential(ThetaLin(0, 1))
    rels = [
        U * U.star() - one,
        U.star() * U - one,
        V * V.star() - one,
        V.star() * V - one,
        V * U - U * V * lam.conj(),
        U.star() * V.star() - V.star() * U.star() * lam,
    ]
    return alg, RuleSet(alg, rels, cap=8), rels


class TestNormalForm:
    def test_unitarity_collapses(self, torus_rules):
        alg, rules, _ = torus_rules
        U = alg.gen("U")
        nf = rules.normal_form(U * U.star() * U)
        assert (nf - U).is_zero()

    def test_exchange_phase(self, torus_rules):
        alg, rules, _ = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        lam_bar = Scalar.exponential(ThetaLin(0, -1))
        nf = rules.normal_form(V * U)
        assert (nf - U * V * lam_bar).is_zero()

    def test_confluence_on_long_words(self, torus_rules):
        alg, rules, _ = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        # two different bracketings of the same product reduce identically
        w1 = rules.normal_form((V * U) * (V * U))
        w2 = rules.normal_form(V * (U * V) * U)
        assert (w1 - w2).is_zero()

    def test_degree_overflow(self, torus_rules):
        alg, rules, _ = torus_rules
        U = alg.gen("U")
        word = Element.unit(alg)
        for _ in range(9):
            word = word * U
        with pytest.raises(DegreeOverflow):
            rules.normal_form(word)


class TestMembership:
    def test_yes_with_certificate(self, torus_rules):
        alg, _rules, rels = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        lam = Scalar.exponential(ThetaLin(0, 1))
        p = U * V - V * U * lam
        res = ideal_member(p, RuleSet(alg, rels, 8))
        assert res.status == YES
        assert verify_certificate(p, rels, res.certificate)
        assert render_certificate(rels, res.certificate, alg)

    def test_undecided_for_nonmember(self, torus_rules):
        alg, _rules, rels = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        res = ideal_member(U * V - V * U, RuleSet(alg, rels, 6))
        assert res.status == UNDECIDED

    def test_changed_coefficient_fails_check(self, torus_rules):
        alg, rules, rels = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        p = U * V * U.star() - V * Scalar.exponential(ThetaLin(0, 1))
        cert = ideal_member(p, rules).certificate
        assert len(cert) > 1 and verify_certificate(p, rels, cert)
        for i, (c, u, k, v) in enumerate(cert):
            # the sum moves by u * r_k * v, which is not zero
            bad = cert[:i] + [(c + Scalar.one(), u, k, v)] + cert[i + 1 :]
            assert not verify_certificate(p, rels, bad)

    def test_zero_is_member(self, torus_rules):
        alg, _rules, rels = torus_rules
        res = ideal_member(Element.zero(alg), RuleSet(alg, rels, 4))
        assert res.status == YES

    def test_certificates_survive_completion(self):
        # regression: rules produced while completing S-elements must carry
        # correct certificates (the reduction delta enters with a minus sign)
        alg = FreeAlgebra(["Q11", "Q12", "Q21", "Q22"])
        q = {n: alg.gen(n) for n in alg.names}
        r3 = (
            q["Q11"] * q["Q22"] + q["Q12"] * q["Q21"]
            - q["Q21"] * q["Q12"] - q["Q22"] * q["Q11"]
        )
        r6 = (
            q["Q22"] * q["Q11"] + q["Q12"] * q["Q21"]
            - q["Q21"] * q["Q12"] - q["Q11"] * q["Q22"]
        )
        comm = q["Q11"] * q["Q22"] - q["Q22"] * q["Q11"]
        res = ideal_member(comm, RuleSet(alg, [r3, r6], 2))
        assert res.status == YES
        assert verify_certificate(comm, [r3, r6], res.certificate)

    def test_element_of_another_algebra_is_rejected(self, torus_rules):
        # other generator names make another algebra, even where the words
        # agree letter for letter
        _alg, rules, _ = torus_rules
        other = FreeAlgebra(["U", "W"])
        U = other.gen("U")
        with pytest.raises(ValueError, match="different algebras"):
            ideal_member(U * U.star() - Element.unit(other), rules)

    def test_structurally_equal_algebra_is_accepted(self, torus_rules):
        # freealg.same_ambient decides here, as it does in Element arithmetic
        _alg, rules, rels = torus_rules
        twin = FreeAlgebra(["U", "V"])
        U = twin.gen("U")
        p = U * U.star() - Element.unit(twin)
        res = ideal_member(p, rules)
        assert res.status == YES
        assert verify_certificate(p, rels, res.certificate)

    def test_certificate_over_relations_of_another_algebra(self, torus_rules):
        alg, rules, rels = torus_rules
        U = alg.gen("U")
        p = U * U.star() - Element.unit(alg)
        cert = ideal_member(p, rules).certificate
        uv = FreeAlgebra(["u", "v"])
        u = uv.gen("u")
        foreign = [u * u.star() - Element.unit(uv)] * len(rels)
        with pytest.raises(ValueError, match="different algebras"):
            verify_certificate(p, foreign, cert)

    # verify_certificate sums the entries at each (u, k, v) before it
    # re-expands them
    def test_repeated_entry_verifies(self, torus_rules):
        alg, rules, rels = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        p = U * V * U.star() - V * Scalar.exponential(ThetaLin(0, 1))
        (c, u, k, v), *rest = ideal_member(p, rules).certificate
        half = c * Fraction(1, 2)
        assert verify_certificate(p, rels, [(half, u, k, v)] + rest + [(half, u, k, v)])

    def test_cancelling_pair_does_not_hide_a_tampered_entry(self, torus_rules):
        alg, rules, rels = torus_rules
        U = alg.gen("U")
        p = U * U * U.star() - U
        cert = ideal_member(p, rules).certificate
        c, u, k, v = cert[0]
        pair = [(Scalar.one(), (), 0, ()), (-Scalar.one(), (), 0, ())]
        assert verify_certificate(p, rels, cert + pair)
        assert not verify_certificate(p, rels, [(c + Scalar.one(), u, k, v)] + cert[1:] + pair)

    def test_cancelling_foreign_relation_is_rejected(self, torus_rules):
        alg, rules, rels = torus_rules
        U = alg.gen("U")
        p = U * U.star() - Element.unit(alg)
        cert = ideal_member(p, rules).certificate
        uv = FreeAlgebra(["u", "v"])
        u = uv.gen("u")
        rels = rels + [u * u.star() - Element.unit(uv)]
        pair = [(Scalar.one(), (), len(rels) - 1, ()), (-Scalar.one(), (), len(rels) - 1, ())]
        with pytest.raises(ValueError, match="different algebras"):
            verify_certificate(p, rels, cert + pair)


def test_unit_ideal_is_a_named_error():
    # x = 1 and x = 2 give 1 = 0: every constant would be reducible, and no
    # rule can say so
    alg = FreeAlgebra(["x", "y"])
    x = alg.gen("x")
    with pytest.raises(UnitIdeal, match="unit ideal"):
        RuleSet(alg, [x - 1, x - 2], 2)
    assert issubclass(UnitIdeal, ValueError)  # the CLI's usage error, exit 3


class TestDeferredCertificates:
    """A rule made by completion builds its certificate when one is first
    asked for, from data that refers only to earlier rules."""

    def test_completion_and_plain_normal_forms_build_none(self, monkeypatch, torus_rules):
        alg, _rules, rels = torus_rules
        calls = []
        certify = rewrite._certify
        monkeypatch.setattr(rewrite, "_certify", lambda rule: calls.append(rule) or certify(rule))
        rules = RuleSet(alg, rels, 8)
        U, V = alg.gen("U"), alg.gen("V")
        for p in (V * U, U.star() * V * U * V.star(), U * U.star() * V - V):
            rules.normal_form(p)
        assert calls == []
        # a rule that is an input relation as it stands has its one-term
        # certificate from the start, so this membership builds none
        res = ideal_member(U * V - V * U * Scalar.exponential(ThetaLin(0, 1)), rules)
        assert res.status == YES and calls == []
        # a rule made from an S-element builds its certificate on request
        made = next(r for r in rules.rules if r._pending is not None)
        res = ideal_member(Element(alg, {made.lhs: Scalar.one()}) - made.rhs, rules)
        assert res.status == YES and calls

    @pytest.mark.parametrize("with_cert", [False, True])
    def test_completed_system_is_freed_without_the_cycle_collector(self, torus_rules, with_cert):
        # no rule refers back to its RuleSet, so reference counting alone
        # frees a discarded system, certificates built or not
        alg, _rules, rels = torus_rules
        U, V = alg.gen("U"), alg.gen("V")
        gc.disable()
        try:
            rules = RuleSet(alg, rels, 8)
            rules.normal_form(V * U * V.star(), with_cert=with_cert)
            ref = weakref.ref(rules)
            del rules
            assert ref() is None
        finally:
            gc.enable()

    def test_last_rule_of_a_long_chain_first(self):
        # the rule for g(i+1) rests on the rule for g(i): reading the last
        # certificate first builds the chain in rule order, not by recursion
        n = 300
        alg = FreeAlgebra([f"g{i}" for i in range(n + 1)])
        g = [alg.gen(f"g{i}") for i in range(n + 1)]
        rels = [g[i + 1] - g[i] for i in range(n)]
        rules = RuleSet(alg, rels, 1)
        assert [r.rhs == g[0] for r in rules.rules] == [True] * n
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            rep = rules.rules[-1].rep
        finally:
            sys.setrecursionlimit(limit)
        assert len(rep) == n
        assert verify_certificate(g[n] - g[0], rels, rep)
