"""Frozen reference copy of the degree-grouped twisted-product kernel
(test-only).

``tests/test_graded_ref.py`` checks :func:`qiso.graded.phased_product`
against :func:`ref_phased_product`.  Do not edit it to match the package: it
is the fixed point the one-pass kernel is checked against.

It freezes ``phased_product`` as it was before the one-pass kernel: each
operand's terms are grouped by degree (``tuple(grading(m))``), the terms of
y further by ambient ``block``; for each pair of degrees, in order of first
appearance, each term of x of the first degree meets the terms of y of the
second degree in its own block, and ``phase(p, q)`` is called before the
first such pair is multiplied.
"""

from __future__ import annotations

from qiso.freealg import Element


def _by_degree(x: Element, grading) -> dict:
    """The terms of x grouped by degree: degree -> [(monomial, coefficient)]."""
    groups: dict = {}
    for m, c in x.t.items():
        groups.setdefault(tuple(grading(m)), []).append((m, c))
    return groups


def ref_phased_product(x: Element, y: Element, phase, grading) -> Element:
    amb = x.ambient
    mul_mono, block = amb.mul_mono, amb.block
    out = Element.zero(amb)
    ys = []
    for q, yterms in _by_degree(y, grading).items():
        blocks: dict = {}
        for m2, c2 in yterms:
            blocks.setdefault(block(m2), []).append((m2, c2))
        ys.append((q, blocks))
    for p, xterms in _by_degree(x, grading).items():
        xs = [(block(m1), m1, c1) for m1, c1 in xterms]
        for q, blocks in ys:
            ph = None
            for b, m1, c1 in xs:
                yterms = blocks.get(b)
                if yterms is None:
                    continue
                if ph is None:
                    ph = phase(p, q)
                c1p = c1 * ph
                for m2, c2 in yterms:
                    c = c1p * c2
                    for pc, pm in mul_mono(m1, m2):
                        out._add_term(pm, c * pc)
    return out
