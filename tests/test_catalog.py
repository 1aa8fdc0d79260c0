import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qiso
from qiso import catalog
from qiso.catalog import (
    BUILDERS,
    build,
    build_all,
    commutative_torus,
    eight_block_model,
    family_elements,
    matrix_m,
    nf_model_coherence,
    sphere_harmonics_check,
    torus_block,
)
from qiso.cqg import Report
from qiso.expr import ParseError
from qiso.freealg import Element, FreeAlgebra, substitute, tensor
from qiso.graded import BlockAlgebra
from qiso.rewrite import NonUnitLeadCoefficient, RuleSet
from qiso.scalars import Scalar, ThetaLin


def _count_completions(monkeypatch):
    """Record (algebra, cap) for every RuleSet completed from now on."""
    seen = []
    init = RuleSet.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append((self.algebra, self.cap))

    monkeypatch.setattr(RuleSet, "__init__", counting)
    return seen


class TestBuilders:
    def test_registry(self):
        assert sorted(BUILDERS) == [
            "circle",
            "deformation",
            "double-torus",
            "sphere",
            "torus",
        ]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            build("nope")

    def test_build_returns_a_fresh_scenario(self):
        first, second = build("torus"), build("torus")
        assert first is not second
        assert first.b_presentation is not second.b_presentation

    @pytest.mark.parametrize("theta", [None, Fraction(1, 3)])
    def test_build_all_builds_the_torus_once(self, monkeypatch, theta):
        calls, original = [], catalog.build_torus_scenario

        def counting(th):
            calls.append(th)
            return original(th)

        monkeypatch.setattr(catalog, "build_torus_scenario", counting)
        names = sorted(BUILDERS)
        built = dict(zip(names, build_all(names, theta)))
        assert calls == [theta]
        torus, deformation = built["torus"], built["deformation"]
        assert [built[n].name for n in names] == names
        assert deformation.member_rules is torus.member_rules
        assert deformation.haar_weights is torus.haar_weights
        assert deformation.constants == torus.constants
        assert deformation.constants is not torus.constants

    @pytest.mark.parametrize("theta, count", [
        (None, 182), (Fraction(1, 3), 182), (Fraction(-1, 3), 182), (Fraction(7, 5), 182),
        (Fraction(0), 166), (Fraction(1, 2), 166), (Fraction(1), 166),
    ])
    def test_torus_b_presentation_size_over_the_theta_sweep(self, theta, count):
        # at e(t) = e(-t) some adjoint relations coincide with relations up
        # to sign, and the star closure keeps one of each
        assert len(build("torus", theta).b_presentation.relations) == count


class TestTorusHelpers:
    def test_torus_block_phase(self):
        blk = torus_block()
        U, V = blk.gen("U"), blk.gen("V")
        lam = Scalar.exponential(ThetaLin(0, 1))
        assert (U * V - V * U * lam).is_zero()

    def test_commutative_torus(self):
        blk = commutative_torus()
        U, V = blk.gen("U"), blk.gen("V")
        assert (U * V - V * U).is_zero()

    def test_eight_block_twists(self):
        ds = eight_block_model()
        lam2 = Scalar.exponential(ThetaLin(0, 2))
        for k in range(8):
            u1, u2 = ds.block_gen(k, 0), ds.block_gen(k, 1)
            comm = u1 * u2 - u2 * u1 * (lam2 if k % 2 else Scalar.one())
            assert comm.is_zero(), f"block {k + 1}"

    def test_family_elements_are_partial_isometries(self):
        ds = eight_block_model()
        elems = family_elements(ds)
        for name, g in elems.items():
            assert (g * g.star() * g - g).is_zero(), name

    def test_matrix_m_shape(self):
        ds = eight_block_model()
        M = matrix_m(family_elements(ds))
        assert len(M) == 4 and all(len(row) == 4 for row in M)

    def test_tables_derived_from_m(self):
        # kappa(M_ij) = M_ji*, epsilon(M_ij) = delta_ij and
        # Delta(M_ij) = sum_k M_ik (x) M_kj, written out per generator
        alg = FreeAlgebra(list(catalog._BIDEG))
        g = {n: alg.gen(n) for n in alg.names}
        s = {n: alg.gen(n, star=True) for n in alg.names}
        assert catalog.kappa_table(g) == {
            "A1": s["A1"], "A2": s["B1"], "B1": s["A2"], "B2": s["B2"],
            "C1": g["C1"], "C2": g["D1"], "D1": g["C2"], "D2": g["D2"],
        }
        one, zero = Scalar.one(), Scalar.zero()
        assert catalog.EPSILON8 == {"A1": one, "A2": zero, "B1": zero, "B2": one,
                                    "C1": zero, "C2": zero, "D1": zero, "D2": zero}
        assert catalog.coproduct_table(alg)["A1"] == (
            tensor(g["A1"], g["A1"]) + tensor(g["A2"], g["B1"])
            + tensor(s["C1"], g["C1"]) + tensor(s["C2"], g["D1"]))
        assert catalog.coproduct_table(alg)["D2"] == (
            tensor(g["D1"], g["A2"]) + tensor(g["D2"], g["B2"])
            + tensor(s["B1"], g["C2"]) + tensor(s["B2"], g["D2"]))


class TestScenarioHelpers:
    def test_normal_form_torus(self, scenario_cache):
        sc, _ = scenario_cache("torus")
        assert sc.normal_form("V U") == "e(-t) * U V"
        assert sc.normal_form("U U* V") == "V"

    def test_membership_torus(self, scenario_cache):
        sc, _ = scenario_cache("torus")
        status, cert = sc.membership("U V - e(t) V U")
        assert status == "YES"
        assert cert

    def test_membership_undecided(self, scenario_cache):
        sc, _ = scenario_cache("torus")
        status, cert = sc.membership("U V - V U")
        assert status == "UNDECIDED"
        assert cert is None

    @pytest.mark.parametrize("text, degree", [
        ("U^10000000", 10000000), ("U^-10000000", 10000000), ("(U V)^5", 10), ("V (U)^3000", 3000),
    ])
    def test_power_above_the_nf_cap_is_refused(self, scenario_cache, text, degree):
        sc, _ = scenario_cache("torus")
        with pytest.raises(ParseError, match=f"^power of degree {degree} exceeds rewriting cap 8$"):
            sc.parse(text)

    def test_power_at_the_nf_cap_parses(self, scenario_cache):
        sc, _ = scenario_cache("torus")
        assert sc.parse("U^8") == sc.nf_algebra.gen("U") ** 8
        assert sc.parse("(U V)^4 - (U V)^4").is_zero()

    def test_power_outside_the_nf_system_is_not_capped(self, scenario_cache):
        # the A1..D2 algebra has no normal-form system, so no cap applies
        sc, _ = scenario_cache("torus")
        assert sc.parse("A1^9").deg() == 9

    @pytest.mark.parametrize("name, text, cap", [
        ("torus", "U^9 - U^9", 8), ("circle", "A^7", 6), ("sphere", "Q11^3", 2),
    ])
    def test_membership_power_above_the_cap_is_refused(self, scenario_cache, name, text, cap):
        sc, _ = scenario_cache(name)
        with pytest.raises(ParseError, match=f"exceeds rewriting cap {cap}$"):
            sc.membership(text)

    def test_circle_membership(self, scenario_cache):
        sc, _ = scenario_cache("circle")
        status, _ = sc.membership("A B* + B A*")
        assert status == "YES"

    @pytest.mark.parametrize("name, text", [
        ("circle", "A B* + B A*"),
        ("sphere", "Q11 Q22 - Q22 Q11"),
        ("torus", "U V - e(t) V U"),
    ])
    def test_membership_completes_once(self, monkeypatch, name, text):
        sc = build(name)
        completions = _count_completions(monkeypatch)
        first = sc.membership(text)
        second = sc.membership(text)
        assert len(completions) <= 1
        assert first == second
        assert first[0] == "YES"

    @pytest.mark.parametrize("name", ["torus", "deformation"])
    def test_torus_shares_one_system(self, name):
        sc = build(name)
        assert sc.nf_rules is sc.member_rules
        assert sc.member_rules.cap == sc.member_cap == 8

    def test_constants_embed_conventions(self, scenario_cache):
        sc, _ = scenario_cache("torus")
        assert sc.constants["sigma"] == -1
        assert sc.constants["theta"] == "generic"


class TestCoherenceHelper:
    @pytest.mark.parametrize("c", [0, -1, -2])
    def test_short_words(self, c):
        assert nf_model_coherence(c, max_len=3) == 84

    def test_specialized(self):
        assert nf_model_coherence(-1, theta=Fraction(1, 3), max_len=3) == 84

    @pytest.mark.parametrize("theta", [None, Fraction(1, 3)])
    @pytest.mark.parametrize("c", [0, -1, -2])
    def test_word_values_are_element_products(self, c, theta):
        # each word's block term is the Element product of its letters'
        # images, in the block nf_model_coherence builds
        mu = catalog._torus_phase(c, theta)
        alg = FreeAlgebra(["U", "V"])
        blk = BlockAlgebra(["U", "V"], comm=None if c == 0 else {(0, 1): mu})
        images = {alg.letter(n, star): blk.gen(n).star() if star else blk.gen(n)
                  for n in alg.names for star in (False, True)}
        values = catalog.word_values(alg, blk, 4)
        assert len(values) == 1 + 4 + 16 + 64 + 256
        for w, (m, coeff) in values.items():
            want = Element.unit(blk)
            for x in w:
                want = want * images[x]
            assert Element(blk, {m: coeff}) == want, alg.render_mono(w)

    @staticmethod
    def _conjugate_exchange(monkeypatch):
        """The exchange relation V U - mu U V written with mu conjugated."""
        torus_relations = catalog.torus_relations

        def mutated(alg, mu):
            rels = torus_relations(alg, mu)
            U, V = alg.gen("U"), alg.gen("V")
            rels[4] = V * U - U * V * mu.conj()
            return rels

        monkeypatch.setattr(catalog, "torus_relations", mutated)

    def test_conjugated_exchange_names_a_word(self, monkeypatch):
        # at length 2 no overlap is resolved, so the system completes and
        # the model refutes the normal form of the first word it rewrites
        self._conjugate_exchange(monkeypatch)
        with pytest.raises(AssertionError,
                           match=r"^normal form of V U disagrees with the model: "):
            nf_model_coherence(-1, max_len=2)

    def test_conjugated_exchange_is_refused_at_length_3(self, monkeypatch):
        # from length 3 on, the overlap V U U* resolves against the adjoint
        # exchange and leaves (e(2t) - 1) V, which completion refuses
        self._conjugate_exchange(monkeypatch)
        with pytest.raises(NonUnitLeadCoefficient, match=r"-1 \+ e\(2\*t\)"):
            nf_model_coherence(-1, max_len=3)

    def test_disagreement_raises_without_asserts(self):
        # under python -O, with every normal form forced to 0, the first word
        # still raises instead of counting as checked
        code = (
            "from qiso import catalog, rewrite\n"
            "from qiso.freealg import Element\n"
            "rewrite.RuleSet.normal_form = lambda self, elem: Element.zero(elem.ambient)\n"
            "try:\n"
            "    print('returned', catalog.nf_model_coherence(0, max_len=2))\n"
            "except AssertionError as exc:\n"
            "    print('raised', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(qiso.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised normal form of U disagrees with the model: -U"


class TestVanishingRows:
    def test_first_survivor_fails_the_row(self):
        alg = FreeAlgebra(["a", "b"])
        a, b = alg.gen("a"), alg.gen("b")
        report = Report("t")
        kill_a = lambda r: substitute(r, {"a": Element.zero(alg), "b": b})
        catalog._all_vanish(report, "kills", [a, a * a, b - a, b * a], kill_a, " vanish")
        catalog._all_vanish(report, "kills-a", [a, a * b], kill_a, " vanish")
        assert [(r.name, r.mode, r.status, r.detail) for r in report.results] == [
            ("kills", "model", "FAIL", "relation 2: b - a"),
            ("kills-a", "model", "PASS", "2 relations vanish"),
        ]


class TestDeformationSuite:
    def test_coherence_disagreement_fails_its_row(self, monkeypatch):
        # the heavy checks are stubbed out; one coherence row disagrees, and
        # the suite still reports every row
        sc = build("deformation")
        for name in ("check_deformed_hom", "check_haar_twist_invariance", "check_twist_identities"):
            monkeypatch.setattr(catalog, name, lambda *args, report, **kwargs: report)
        sc.haar_weights = lambda: ("PASS", "stub")

        def coherence(c, theta=None, max_len=6):
            if c == -1:
                raise AssertionError("normal form of V U disagrees with the model: stub")
            return 7

        monkeypatch.setattr(catalog, "nf_model_coherence", coherence)
        rows = {r.name: (r.status, r.detail) for r in sc.suite().results}
        assert rows["nf-model-coherence[e(-1t)]"] == (
            "FAIL", "normal form of V U disagrees with the model: stub")
        assert rows["nf-model-coherence[e(0t)]"] == rows["nf-model-coherence[e(-2t)]"] == (
            "PASS", "7 words of length <= 6")
        assert rows["twist-sign-oracle"][0] == rows["haar-weights"][0] == "PASS"


class TestSuiteCompletions:
    """Each suite completes its membership system once, however many
    membership checks run against it."""

    @pytest.mark.parametrize("name, checks", [("circle", 5), ("sphere", 1)])
    def test_member_system_completed_once(self, monkeypatch, name, checks):
        sc = build(name)
        completions = _count_completions(monkeypatch)
        report = sc.suite()
        member_alg = sc.member_relations[0].ambient
        assert completions.count((member_alg, sc.member_cap)) == 1
        assert sum(r.name.startswith(("membership[", "coefficient-commutators"))
                   for r in report.results) == checks

    @pytest.mark.parametrize("name", ["circle", "sphere", "torus", "double-torus"])
    def test_no_completion_outside_a_check(self, monkeypatch, name):
        # every rewriting system a suite completes is timed by the check that
        # first uses it
        sc = build(name)
        run, init = Report.run, RuleSet.__init__
        open_checks, outside = [], []

        def counted_run(self, *args, **kwargs):
            open_checks.append(None)
            try:
                return run(self, *args, **kwargs)
            finally:
                open_checks.pop()

        def completing(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if not open_checks:
                outside.append((self.cap, len(self.relations)))

        monkeypatch.setattr(Report, "run", counted_run)
        monkeypatch.setattr(RuleSet, "__init__", completing)
        assert sc.suite().ok()
        assert outside == []


class TestSphereHarmonics:
    @pytest.fixture
    def xyz(self):
        return [BlockAlgebra(["x", "y", "z"]).gen(v) for v in range(3)]

    def test_samples_pass(self, xyz):
        x, y, z = xyz
        samples = {1: x + y * 2, 2: x * x - z * z, 3: x * y * z}
        assert sphere_harmonics_check(samples) == ("PASS", "eigenvalues -k(k+1) for k <= 3")

    def test_x_squared_is_not_harmonic(self, xyz):
        x, _y, _z = xyz
        assert sphere_harmonics_check({2: x * x}) == (
            "FAIL", "sample for degree 2 is not harmonic")

    def test_wrong_degree_is_a_mismatch(self, xyz):
        x, y, _z = xyz
        assert sphere_harmonics_check({1: x * y}) == ("FAIL", "eigenvalue mismatch at degree 1")


class TestSuites:
    """Full suites at generic parameter; reports are cached for the session
    and shared with the acceptance tests."""

    @pytest.mark.parametrize(
        "name", ["circle", "sphere", "torus", "double-torus", "deformation"]
    )
    def test_suite_green(self, scenario_cache, name):
        _sc, report = scenario_cache(name)
        bad = [r for r in report.results if r.status not in ("PASS", "SKIPPED")]
        assert not bad, [(r.name, r.status, r.detail) for r in bad]
