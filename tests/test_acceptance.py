"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in the verbose test listing).  The scenario suites are run
once per session and shared via the cache fixture.
"""

from fractions import Fraction

import pytest

THIRD = Fraction(1, 3)


def _statuses(report, prefixes):
    picked = [r for r in report.results
              if any(r.name.startswith(p) for p in prefixes)]
    assert picked, f"no checks matched {prefixes}"
    return picked


def _require(report, prefixes, label):
    picked = _statuses(report, prefixes)
    bad = [r for r in picked if r.status != "PASS"]
    line = "PASS" if not bad else "FAIL"
    print(f"criterion {label}: {line}")
    assert not bad, [(r.name, r.status, r.detail) for r in bad]


def test_criterion_01_sphere_relations_and_certified_commutators(scenario_cache):
    _sc, report = scenario_cache("sphere")
    _require(
        report,
        ["extracted-relations", "coefficient-commutators"],
        "1 (sphere relation extraction + 36 certified commutators)",
    )


def test_criterion_02_circle_chain(scenario_cache):
    _sc, report = scenario_cache("circle")
    _require(
        report,
        ["extracted-relations", "membership[", "coassoc[", "coproduct-of-products"],
        "2 (circle extraction, memberships, coassociativity at cap 6)",
    )


def test_criterion_03_torus_extraction_generic_and_third(scenario_cache):
    _sc, generic = scenario_cache("torus")
    _sc3, third = scenario_cache("torus", THIRD)
    for rep, tag in ((generic, "generic"), (third, "1/3")):
        picked = _statuses(rep, ["extract-"])
        bad = [r for r in picked if r.status != "PASS"]
        assert not bad, (tag, [(r.name, r.detail) for r in bad])
    print("criterion 3 (torus relation extraction, theta generic and 1/3): PASS")


def test_criterion_04_block_model_soundness(scenario_cache):
    _sc, report = scenario_cache("torus")
    _require(
        report,
        [
            "model-soundness",
            "M[",
            "coassoc[",
            "counit[",
            "antipode[",
            "counit-kills-relation[",
            "antipode-preserves-relation[",
            "coproduct-kills-relations",
            "block-projections",
        ],
        "4 (eight-block model soundness, matrix unitarity, Hopf laws, block selections)",
    )


def test_criterion_05_half_parameter_degeneration(scenario_cache):
    _sc, report = scenario_cache("torus")
    _require(report, ["half-parameter-degeneration"], "5 (theta = 1/2 commutativity)")


def test_criterion_06_quantum_double_torus(scenario_cache):
    _sc, report = scenario_cache("double-torus")
    _require(
        report,
        ["hopf-quotient", "coproduct-table", "hom[", "isometry"],
        "6 (quotient presentation, coproduct table, action checks)",
    )


def test_criterion_07_deformation_oracle(scenario_cache):
    _sc, report = scenario_cache("deformation")
    _require(
        report,
        ["twist-sign-oracle"],
        "7 (exact finite oscillatory sum fixes the sign; twisted product matches it)",
    )


def test_criterion_08_deformed_action_at_one_third(scenario_cache):
    _sc, report = scenario_cache("deformation", THIRD)
    _require(
        report,
        ["twisted-product-phases", "deformed-hom", "deform-eight-blocks"],
        "8 (twisted-product phases and deformed-action identity at theta = 1/3)",
    )


def test_criterion_09_haar_compatibility(scenario_cache):
    _sc, report = scenario_cache("deformation")
    _require(
        report,
        ["haar-weights", "haar-twist-invariance", "haar-action-invariance"],
        "9 (twist-invariant Haar functional with unique weight solution)",
    )


def test_criterion_10_normal_form_model_coherence(scenario_cache):
    _sc, report = scenario_cache("deformation")
    _require(
        report,
        ["nf-model-coherence["],
        "10 (rewriting normal forms agree with graded multiplication, words <= 6)",
    )
