import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qiso

from qiso.cqg import (
    FAIL,
    PASS,
    UNDECIDED,
    ActionSpec,
    CQGPresentation,
    CounitSolveError,
    NotHopfIdeal,
    Report,
    _solve_rational,
    alpha_monomial,
    apply_antipode_to_relation,
    canonical_set,
    check_coassoc,
    check_counit_antipode,
    check_deformed_hom,
    check_haar_twist_invariance,
    check_hom,
    check_twist_identities,
    check_unitary_matrix,
    extract_relations,
    hopf_quotient,
    monic,
    residue_verdict,
    solve_counit,
    solve_haar_weights,
    star_close,
)
from qiso.freealg import Element, FreeAlgebra, substitute, substitute_factors, tensor
from qiso import catalog, graded
from qiso.graded import BlockAlgebra, DirectSum, tau
from qiso.presfile import load_data, loads
from qiso.rewrite import DegreeOverflow, RuleSet
from qiso.scalars import Scalar, ThetaLin


class TestReport:
    def test_run_captures_status_and_detail(self):
        rep = Report("t")
        rep.run("good", "model", lambda: (PASS, "fine"))
        rep.run("bad", "model", lambda: (FAIL, "broken"))
        assert rep.statuses == [PASS, FAIL]
        assert not rep.ok()
        d = rep.to_dict()
        assert d["checks"][1]["detail"] == "broken"


class TestVerdictRule:
    def _residues(self):
        alg = FreeAlgebra(["x"])
        return Element.zero(alg), alg.gen("x")

    def test_zero_residues_pass_without_rendering(self):
        zero, _x = self._residues()

        def detail(*_):
            raise AssertionError("a PASS renders no detail")

        assert residue_verdict("model", [zero, zero], detail) == (PASS, "")
        assert residue_verdict("presentation", [zero], detail, cap=3) == (PASS, "")

    def test_model_fails_and_presentation_is_undecided_at_its_cap(self):
        zero, x = self._residues()
        render = lambda a, b: f"{a.render()}; {b.render()}"  # noqa: E731
        assert residue_verdict("model", [zero, x], render) == (FAIL, "0; x")
        assert residue_verdict("presentation", [zero, x], render, cap=3) == (UNDECIDED, "0; x (cap 3)")

    def test_unitary_residue_names_the_cap(self):
        alg = FreeAlgebra(["x"])
        x, one = alg.gen("x"), Element.unit(alg)
        # only x x* = 1 is known, so x* x - 1 stays a nonzero normal form
        rep = check_unitary_matrix([[x]], rules=lambda: RuleSet(alg, [x * x.star() - one], cap=2))
        (row,) = rep.results
        assert (row.status, row.detail) == (UNDECIDED, "MM*[00]: 0; M*M[00]: x* x - 1 (cap 2)")


class TestSmallCap:
    """A cap too small for a presentation check leaves it UNDECIDED, naming
    the cap; it is never a FAIL and never an error."""

    @pytest.mark.parametrize("check, cap, names", [
        (check_coassoc, 2, ["coassoc[U]", "coassoc[P]"]),
        (check_counit_antipode, 1, ["counit[U]", "counit[P]"]),
    ])
    def test_undecided_naming_the_cap(self, check, cap, names):
        rep = check(load_data("circle.pres"), cap=cap)
        assert FAIL not in rep.statuses
        undecided = [r for r in rep.results if r.status == UNDECIDED]
        assert [r.name for r in undecided] == names
        assert all(f"cap {cap}" in r.detail for r in undecided)

    def test_model_mode_overflow_still_raises(self):
        def overflow():
            raise DegreeOverflow("degree 3 input exceeds rewriting cap 2")

        with pytest.raises(RuntimeError, match="check c raised"):
            Report("t").run("c", "model", overflow)


class TestCanonicalSets:
    def test_monic_rescales_leading_coefficient(self):
        alg = FreeAlgebra(["a", "b"])
        lam = Scalar.exponential(ThetaLin(0, 1))
        x = alg.gen("a") * alg.gen("b") * lam + alg.gen("a")
        m = monic(x)
        # the leading coefficient of the result is 1
        assert canonical_set([x]) == canonical_set([m])

    def test_same_relation_set_ignores_order_and_scale(self):
        alg = FreeAlgebra(["a", "b"])
        a, b = alg.gen("a"), alg.gen("b")
        lam = Scalar.exponential(ThetaLin(0, -2))
        got = [(a * b - b * a) * lam, a * a]
        want = [a * a, a * b - b * a]
        assert canonical_set(got) == canonical_set(want)
        assert canonical_set([a * b]) != canonical_set([b * a])


class TestStarClose:
    def test_adds_adjoints(self):
        alg = FreeAlgebra(["a"])
        a = alg.gen("a")
        rels = star_close([a * a])
        assert canonical_set(rels) == canonical_set([a * a, a.star() * a.star()])

    def test_keeps_selfadjoint_single(self):
        alg = FreeAlgebra(["a"])
        a = alg.gen("a")
        r = a * a.star() - Element.unit(alg)
        assert len(star_close([r])) == 1


class TestExtraction:
    def test_buckets_by_source_monomial(self):
        src = FreeAlgebra(["z"])
        qa = FreeAlgebra(["A", "B"])
        z = src.gen("z")
        table = {"z": tensor(z, qa.gen("A")) + tensor(z.star(), qa.gen("B"))}
        act = ActionSpec(src, [], table, name="t")
        one = Element.unit(src)
        rels = extract_relations(act, z * z.star() - one)
        # without source reduction the five free source words z z*, z z,
        # z* z*, z* z and 1 each carry a bucket
        assert all(not r.is_zero() for r in rels)
        assert len(rels) == 5


class TestAntipode:
    def test_linear_antihomomorphism(self):
        alg = FreeAlgebra(["a", "b"])
        a, b = alg.gen("a"), alg.gen("b")
        lam = Scalar.exponential(ThetaLin(0, 1))
        kappa = {"a": b, "b": a}
        img = apply_antipode_to_relation(a * b * lam, kappa, alg)
        # word reversed, letters mapped, coefficient untouched
        assert (img - a * b * lam).is_zero()

    def test_starred_letters(self):
        alg = FreeAlgebra(["a"])
        a = alg.gen("a")
        img = apply_antipode_to_relation(a.star(), {"a": a.star()}, alg)
        assert (img - a).is_zero()

    def test_multi_term_relation(self):
        # a selfadjoint generator s and starred letters, against the reversed
        # product of the letter images built one letter at a time
        alg = FreeAlgebra(["a", "b", "s"], selfadjoint={"s"})
        a, b, s = alg.gen("a"), alg.gen("b"), alg.gen("s")
        lam = Scalar.exponential(ThetaLin(0, 1))
        kappa = {"a": b.star(), "b": a * s, "s": s * lam}
        image = {"a": kappa["a"], "a*": kappa["a"].star(), "b": kappa["b"],
                 "b*": kappa["b"].star(), "s": kappa["s"]}
        terms = [(["a", "b*", "s"], lam), (["s", "s", "a*"], Scalar.rational(-2)), (["b"], Scalar.one())]
        r = Element.zero(alg)
        want = Element.zero(alg)
        for word, c in terms:
            term = Element.unit(alg) * c
            reversed_product = Element.unit(alg) * c
            for letter in word:
                term = term * alg.gen(letter[0], star=letter.endswith("*"))
            for letter in reversed(word):
                reversed_product = reversed_product * image[letter]
            r, want = r + term, want + reversed_product
        assert len(r.t) == 3
        assert apply_antipode_to_relation(r, kappa, alg) == want


class TestHopfQuotient:
    def _pres(self):
        return load_data("circle.pres")

    def test_rejects_non_hopf_ideal(self):
        P = self._pres()
        # Delta(U) has the term U (x) U P with no killed letter if we kill P
        with pytest.raises(NotHopfIdeal):
            hopf_quotient(P, killed={"P"})

    def test_quotient_of_matrix_presentation(self, scenario_cache):
        sc, _rep = scenario_cache("torus")
        Q = hopf_quotient(
            sc.b_presentation,
            killed={"C1", "D1", "C2", "D2"},
            rename={"A1": "A0", "B1": "B0", "A2": "C0", "B2": "D0"},
        )
        assert sorted(Q.algebra.names) == ["A0", "B0", "C0", "D0"]
        dA = Q.coproduct["A0"]
        want = tensor(Q.algebra.gen("A0"), Q.algebra.gen("A0")) + tensor(
            Q.algebra.gen("C0"), Q.algebra.gen("B0")
        )
        assert (dA - want).is_zero()


class TestSolveCounit:
    def test_circle_counit(self):
        P = load_data("circle.pres")
        eps = solve_counit(P, cap=6)
        assert (eps["U"] - Scalar.one()).is_zero()
        assert (eps["P"] - Scalar.one()).is_zero()

    def test_free_counit_raises(self):
        # Delta(P) = 1 (x) P gives P = P, which leaves epsilon(P) free
        P = loads("[generators]\nP selfadjoint\n[coproduct]\nP : 1 (x) P\n")
        with pytest.raises(CounitSolveError):
            solve_counit(P, cap=4)

    def test_double_torus_counit(self):
        P = load_data("double_torus.pres")
        eps = solve_counit(P, cap=4)
        assert all((eps[n] - P.counit[n]).is_zero() for n in P.algebra.names)


def _circle_with_model():
    """The circle's U, P presentation with its classical two-block model."""
    P = load_data("circle.pres")
    amb = DirectSum([BlockAlgebra(["z1"]), BlockAlgebra(["z2"])])
    P.model = {"U": amb.block_gen(0, 0) + amb.block_gen(1, 0), "P": amb.block_unit(0)}
    P.model_ambient = amb
    return P


def _invariance_residuals(P, weights, degree):
    """(id (x) h) Delta(w) - h(w) 1 in the model, for every word w of length
    <= degree in the generators and their adjoints."""
    amb, alg = P.model_ambient, P.algebra
    delta = {n: substitute_factors(d, [P.model, P.model]) for n, d in P.coproduct.items()}
    letters = [alg.gen(n) for n in alg.names] + [alg.gen(n, star=True) for n in alg.names]
    words = frontier = [Element.unit(alg)]
    for _ in range(degree):
        frontier = [w * l for w in frontier for l in letters]
        words = words + frontier
    for w in words:
        lhs = Element.zero(amb)
        for (m1, (k2, e2)), c in substitute(w, delta).t.items():
            if not any(e2):
                lhs._add_term(m1, c * Scalar.rational(weights[k2]))
        yield lhs - Element.unit(amb) * tau(substitute(w, P.model), weights)


class TestSolveHaarWeights:
    def test_degree_zero_leaves_the_weights_free(self):
        P = _circle_with_model()
        weights, unique = solve_haar_weights(P, degree=0)
        assert unique is False
        assert all(isinstance(w, Fraction) for w in weights)
        assert sum(weights) == 1
        assert all(r.is_zero() for r in _invariance_residuals(P, weights, 0))

    def test_degree_one_fixes_the_circle_weights(self):
        P = _circle_with_model()
        weights, unique = solve_haar_weights(P, degree=1)
        assert unique is True
        assert weights == [Fraction(1, 2), Fraction(1, 2)]
        assert all(r.is_zero() for r in _invariance_residuals(P, weights, 2))

    def test_inconsistent_system_raises(self):
        F = Fraction
        with pytest.raises(ValueError):
            _solve_rational([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
        # with P -> 0 no weights summing to 1 are invariant
        P = _circle_with_model()
        P.model["P"] = Element.zero(P.model_ambient)
        with pytest.raises(ValueError):
            solve_haar_weights(P, degree=1)

    def test_exact_paths_do_not_load_numpy(self):
        # numpy and sympy cannot be imported; the exact suites still pass
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] in ('numpy', 'sympy'):\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, Block())\n"
            "from qiso import build, catalog, cqg\n"
            "assert build('circle').suite().ok()\n"
            "assert build('sphere').suite().ok()\n"
            "bp = build('torus').b_presentation\n"
            "words = catalog.block_projector_words(bp.algebra)\n"
            "weights, unique = cqg.solve_haar_weights(bp, degree=1, extra_words=words)\n"
            "assert unique and weights == [Fraction(1, 8)] * 8\n"
            "assert not {'numpy', 'sympy'} & set(sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qiso.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestHaarTwistInvariance:
    def test_counts_same_block_pairs(self):
        ds = catalog.eight_block_model(Fraction(1, 3))
        report = check_haar_twist_invariance(ds, [Fraction(1, 8)] * 8, graded.j_torus(), 1)
        assert [(r.name, r.status, r.detail) for r in report.results] == [
            ("haar-twist-invariance", PASS, "648 same-block monomial pairs"),
            ("haar-action-invariance", PASS, "h(lambda_(s,u)(x)) = h(x) on all monomials"),
        ]

    def test_only_pairs_at_exponent_zero_reach_tau(self):
        # why the check forms one product per monomial: a twisted product of
        # two block monomials is zero (cross-block) or one term at exponent
        # e1 + e2, where tau reads 0 unless e2 = -e1
        ds = catalog.eight_block_model(Fraction(1, 3))
        Jt = graded.j_double(graded.j_torus())
        rng = range(-1, 2)
        monos = [(k, (m, n)) for k in range(len(ds.blocks)) for m in rng for n in rng]
        one = Scalar.one()
        for m1 in monos:
            a = Element(ds, {m1: one})
            for m2 in monos:
                b = Element(ds, {m2: one})
                prod = graded.phased_product(
                    a, b, lambda p, q: graded.twist_phase(p, Jt, q), ds.bidegree)
                if m1[0] != m2[0]:
                    assert prod.is_zero()
                else:
                    e = tuple(x + y for x, y in zip(m1[1], m2[1]))
                    assert list(prod.t) == [(m1[0], e)]
                    assert tau(prod, [Fraction(1, 8)] * 8).is_zero() == any(e)

    def test_defect_is_one_where_tau_reads(self):
        # so the row cannot fail on monomials: the pair that tau reads has
        # bidegrees p and -p, and e(SIGMA p.Jt(-p)) = 1 because Jt is skew
        ds = catalog.eight_block_model(Fraction(1, 3))
        Jt = graded.j_double(graded.j_torus())
        rng = range(-2, 3)
        for k in range(len(ds.blocks)):
            for e in ((m, n) for m in rng for n in rng):
                p = ds.bidegree((k, e))
                assert ds.bidegree((k, tuple(-x for x in e))) == tuple(-x for x in p)
                assert graded.twist_phase(p, Jt, tuple(-x for x in p)) == Scalar.one()

    @pytest.mark.parametrize("weights", [[Fraction(1, 7)] * 8, [0] * 8, [1] * 8])
    def test_weights_must_sum_to_one(self, weights):
        ds = catalog.eight_block_model()
        with pytest.raises(ValueError, match="must sum to 1"):
            check_haar_twist_invariance(ds, weights, graded.j_torus(), 1)

    def test_weights_rejected_without_asserts(self):
        # the check must not vanish under python -O
        code = (
            "from fractions import Fraction\n"
            "from qiso import catalog, cqg, graded\n"
            "ds = catalog.eight_block_model()\n"
            "try:\n"
            "    cqg.check_haar_twist_invariance(ds, [Fraction(1, 7)] * 8, graded.j_torus(), 1)\n"
            "    print('returned')\n"
            "except ValueError as exc:\n"
            "    print('raised', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qiso.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised Haar weights must sum to 1"


class TestHomAndCoassoc:
    def test_check_hom_reports_failure_in_model(self):
        from qiso.graded import BlockAlgebra

        src = FreeAlgebra(["z"])
        blk = BlockAlgebra(["w"])
        z = src.gen("z")
        one = Element.unit(src)
        table = {"z": tensor(blk.gen("w"), blk.gen("w", 2))}
        # z^2 = 1 does not survive the substitution z -> w (x) w^2
        act = ActionSpec(src, [z * z - one], table, name="bad")
        rep = check_hom(act)
        assert FAIL in rep.statuses

    def test_coassoc_presentation_mode(self):
        P = load_data("circle.pres")
        rep = check_coassoc(P, cap=6)
        assert rep.ok()


class TestPresentationCaches:
    def test_rules_star_close_once(self, monkeypatch):
        bp = qiso.build("torus").b_presentation
        calls = []
        original = qiso.cqg.star_close

        def counting(relations):
            calls.append(len(relations))
            return original(relations)

        monkeypatch.setattr(qiso.cqg, "star_close", counting)
        first, second = bp.rules(3), bp.rules(3)
        assert calls == [182]
        assert len(first.rules) == len(second.rules) == 387

    def test_delta_model_builds_the_images_once(self, monkeypatch):
        bp = qiso.build("torus").b_presentation
        calls = []
        original = qiso.cqg.substitute_factors

        def counting(elem, factor_images):
            calls.append(elem)
            return original(elem, factor_images)

        monkeypatch.setattr(qiso.cqg, "substitute_factors", counting)
        for r in bp.relations[:3]:
            assert bp.delta_model(r).is_zero()
        assert len(calls) == len(bp.algebra.names) == 8


def _torus_action(theta):
    return catalog.torus_action(catalog.family_elements(catalog.eight_block_model(theta)), theta)


class TestDeformationIdentities:
    def test_identities_catch_a_sign_error(self, monkeypatch):
        # the right-hand sides take the integral's own sign (collapse_phase),
        # so a flipped twist sign breaks the three identities that mix them
        monkeypatch.setattr(graded, "SIGMA", 1)
        act, J = _torus_action(Fraction(1, 3)), graded.j_torus()
        report = check_twist_identities(act, J, degree_bound=1)
        report.extend(check_deformed_hom(act, J, degree_bound=1))
        assert [(r.name, r.status, r.detail) for r in report.results] == [
            ("twist-interchange", FAIL, "pair [block2: U21^-1 U22^-1], [block2: U21^-1]"),
            ("right-character-grading", PASS, "9 monomials"),
            ("action-of-deformed-product", FAIL, "pair (-1, -1), (-1, 0)"),
            ("deformed-product-of-action", FAIL, "pair (-1, -1), (-1, 0)"),
            ("deformed-hom", PASS, "81 monomial pairs"),
        ]

    @pytest.mark.parametrize("theta", [None, Fraction(1, 3)])
    def test_alpha_monomial_is_the_memoised_product(self, theta):
        act = _torus_action(theta)
        unit = alpha_monomial(act, 0, 0)

        def power(x, k):
            out = unit
            for _ in range(abs(k)):
                out = out * (x if k > 0 else x.star())
            return out

        for m in range(-3, 4):
            for n in range(-3, 4):
                img = alpha_monomial(act, m, n)
                assert (img - power(act.table["U"], m) * power(act.table["V"], n)).is_zero()
                assert alpha_monomial(act, m, n) is img
