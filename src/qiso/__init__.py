"""Exact symbolic verification kernel for quantum-symmetry computations.

The package provides:

- :mod:`qiso.scalars` — the exact coefficient ring: cyclotomic numbers and
  formal exponentials ``e(a + b*t)`` of a rational-linear parameter.
- :mod:`qiso.freealg` — free *-algebras, tensor products, and generic
  elements over any ambient monomial algebra.
- :mod:`qiso.graded` — twisted (graded) model algebras, direct sums,
  Laplacians, and the twisting machinery for bicharacter deformations.
- :mod:`qiso.rewrite` — capped rewriting, normal forms, and certified
  ideal-membership tests.
- :mod:`qiso.cqg` — compact-quantum-group presentations, Hopf-axiom checks,
  action homomorphism checks, relation extraction, Haar-weight solving, and
  deformation checks.
- :mod:`qiso.catalog` — the worked scenarios (circle, sphere, twisted torus,
  quantum double torus, deformation) with full verification suites.
- :mod:`qiso.cli` — the ``qiso`` command line.
"""

from .scalars import Cyclo, Scalar, ThetaLin
from .freealg import Element, FreeAlgebra, TensorAlgebra, substitute, substitute_factors, tensor
from .graded import (
    SIGMA,
    BlockAlgebra,
    DirectSum,
    Laplacian,
    deform_block,
    deform_sum,
    j_double,
    j_torus,
    rieffel_product,
    twist_phase,
)
from .rewrite import Membership, RuleSet, ideal_member, render_certificate
from .cqg import (
    ActionSpec,
    CheckResult,
    CQGPresentation,
    Report,
    check_coassoc,
    check_counit_antipode,
    check_deformed_hom,
    check_hom,
    check_isometry,
    check_unitary_matrix,
    extract_relations,
    hopf_quotient,
    solve_counit,
    solve_haar_weights,
)
from .presfile import load, load_data, loads
from .catalog import build, build_all

__all__ = [
    "Cyclo", "Scalar", "ThetaLin",
    "Element", "FreeAlgebra", "TensorAlgebra",
    "substitute", "substitute_factors", "tensor",
    "SIGMA", "BlockAlgebra", "DirectSum", "Laplacian",
    "deform_block", "deform_sum", "j_double", "j_torus",
    "rieffel_product", "twist_phase",
    "Membership", "RuleSet", "ideal_member", "render_certificate",
    "ActionSpec", "CheckResult", "CQGPresentation", "Report",
    "check_coassoc", "check_counit_antipode", "check_deformed_hom",
    "check_hom", "check_isometry", "check_unitary_matrix",
    "extract_relations", "hopf_quotient", "solve_counit", "solve_haar_weights",
    "load", "load_data", "loads",
    "build", "build_all",
]

__version__ = "1.0.0"
