"""Deformation compatibility: deforming the space deforms its symmetry.

The commutative torus deformed by the skew matrix J = [[0, -t/2], [t/2, 0]]
is the twisted torus; doubling J to Jtilde = (-J) (+) J and deforming the
symmetry of the commutative torus by its two-sided torus action reproduces,
block by block and phase by phase, the symmetry of the twisted torus.

All oscillatory integrals behind the twisted products collapse on graded
elements to exact phases e(sigma * p.Jq); the global sign sigma = -1 is fixed
by the finite oscillatory sum over (Z/N)^2, evaluated exactly in a cyclotomic
field at random rational parameters, and then used everywhere.
"""

from qiso.catalog import build


def show(report, names):
    for r in report.results:
        if any(r.name.startswith(n) for n in names):
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"  {r.status:9s} {r.name}{detail}")


defo = build("deformation")
report = defo.suite()

print("Sign convention, fixed exactly on 50 random rational instances and")
print("matched by the twisted product:")
show(report, ["twist-sign-oracle"])

print("\nDeforming the spaces and the symmetry blockwise:")
show(report, ["deform-commutative-torus", "deform-eight-blocks",
              "twisted-product-phases"])

print("\nThe deformed action identity  alpha(a) bullet alpha(b) =")
print("alpha(a x b)  on every monomial pair of componentwise degree <= 3:")
show(report, ["deformed-hom"])

print("\nThe Haar functional is insensitive to the twist, and the invariance")
print("equations pin the weights uniquely:")
show(report, ["haar-"])

print("\nConvolution/twist interchange identities on bihomogeneous elements:")
show(report, ["twist-interchange", "right-character-grading",
              "action-of-deformed-product", "deformed-product-of-action"])

print("\nCross-validation of the two multiplication engines (rewriting vs")
print("graded model) on every word of length <= 6, per block type:")
show(report, ["nf-model-coherence"])
