"""The twisted-product kernel against its frozen reference.

``graded_ref.ref_phased_product`` groups both operands by degree and, for
each pair of degrees, scans every term of x of the first degree.
:func:`qiso.graded.phased_product` makes one pass over each operand: it
buckets the terms of y by block, computes each term's degree once, and files
each term of x with its own block's buckets.  Both must give the same
product: the same terms in the same order, each coefficient formed in the
same order (so it renders the same, at the same conductor), and ``phase``
called at most once per pair of degrees, for the same pairs.

Coefficients and phases mix conductors 1, 3, 4 and 6 and the formal
parameter, so that sums cancel to rationals in some orders and not in
others.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from graded_ref import ref_phased_product
from qiso.freealg import Element, TensorAlgebra
from qiso.graded import (
    BlockAlgebra,
    DirectSum,
    block_diag,
    j_torus,
    phased_product,
    skew_matrix,
    twist_phase,
)
from qiso.scalars import Scalar, ThetaLin

SETTINGS = settings(deadline=None, max_examples=80)


def _e(r, s=0):
    return Scalar.exponential(ThetaLin(Fraction(r), s))


_COEFFS = [Scalar.one(), Scalar.rational(-1), Scalar.rational(2), Scalar.rational(Fraction(1, 2)),
           _e(Fraction(1, 3)), -_e(Fraction(1, 6)), _e(Fraction(1, 4)), _e(Fraction(2, 3)),
           _e(0, 1), _e(Fraction(1, 3), -1) * Scalar.rational(3), Scalar.one() + _e(Fraction(1, 3))]
_coeffs = st.sampled_from(_COEFFS)
_exps = st.integers(-2, 2)

# three blocks: twisted, commutative, and one whose W has the bidegree of
# U V, so that terms of one block share degrees
_DS = DirectSum([
    BlockAlgebra(["U", "V"], comm={(0, 1): _e(0, -1)}, bidegrees=[(1, 0), (0, 1)]),
    BlockAlgebra(["X", "Y"], bidegrees=[(0, 1), (1, 0)]),
    BlockAlgebra(["U", "V", "W"], comm={(0, 1): _e(Fraction(1, 3)), (1, 2): _e(0, 1)},
                 bidegrees=[(1, 0), (0, 1), (1, 1)]),
])
_SRC = BlockAlgebra(["A", "B"], comm={(0, 1): _e(Fraction(1, 4))})
_SRC_DS = TensorAlgebra([_SRC, _DS])


@st.composite
def _ds_monos(draw):
    k = draw(st.integers(0, len(_DS.blocks) - 1))
    return k, tuple(draw(_exps) for _ in range(_DS.blocks[k].d))


def _ds_grading(m):
    return _DS.bidegree(m)


def _src_ds_grading(m):
    return _SRC.degree_vec(m[0]) + _DS.bidegree(m[1])


_AMBIENTS = {
    "direct-sum": (_DS, _ds_monos(), _ds_grading, 2),
    "tensor-block-sum": (_SRC_DS, st.tuples(st.tuples(_exps, _exps), _ds_monos()), _src_ds_grading, 4),
}


def _elements(amb, monos):
    return st.dictionaries(monos, _coeffs, min_size=1, max_size=7).map(lambda t: Element(amb, t))


@st.composite
def _phases(draw, dim):
    """A twist phase of a random skew matrix, or a phase whose conductor
    depends on the degrees."""
    if draw(st.booleans()):
        fracs = st.fractions(min_value=-2, max_value=2, max_denominator=6)
        rows = [[ThetaLin(0, 0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                e = ThetaLin(draw(fracs), draw(fracs))
                rows[i][j], rows[j][i] = e, -e
        J = skew_matrix(rows)
        return lambda p, q: twist_phase(p, J, q)
    den = draw(st.sampled_from([3, 4, 6, 12]))
    return lambda p, q: _e(Fraction(sum(a * (i + 1) * b for i, (a, b) in enumerate(zip(p, q))), den))


def _counted(phase):
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return phase(p, q)

    return counted, calls


@SETTINGS
@given(st.sampled_from(sorted(_AMBIENTS)), st.data())
def test_kernel_matches_the_reference(name, data):
    amb, monos, grading, dim = _AMBIENTS[name]
    x, y = data.draw(_elements(amb, monos)), data.draw(_elements(amb, monos))
    phase = data.draw(_phases(dim))
    new_phase, new_calls = _counted(phase)
    ref_phase, ref_calls = _counted(phase)
    got = phased_product(x, y, new_phase, grading)
    want = ref_phased_product(x, y, ref_phase, grading)
    assert got == want
    assert [(m, c.render()) for m, c in got.t.items()] == [(m, c.render()) for m, c in want.t.items()]
    assert got.render() == want.render()
    assert len(new_calls) == len(set(new_calls))
    assert new_calls == ref_calls


def test_package_matrices_on_the_bullet_grading():
    # a matrix the package builds, on one fixed pair
    J = j_torus()
    Jb = block_diag(J, J)
    x = Element(_SRC_DS, {((1, 0), (0, (1, 0))): _COEFFS[4], ((0, 1), (2, (0, 1, 1))): _COEFFS[9],
                          ((1, 1), (0, (0, 1))): _COEFFS[10]})
    y = Element(_SRC_DS, {((0, -1), (0, (1, 1))): _COEFFS[5], ((1, 0), (2, (1, 0, -1))): _COEFFS[8]})
    phase = lambda p, q: twist_phase(p, Jb, q)
    got = phased_product(x, y, phase, _src_ds_grading)
    assert got == ref_phased_product(x, y, phase, _src_ds_grading)
    assert got.render() == ref_phased_product(x, y, phase, _src_ds_grading).render()
    assert len(got.t) == 3


def test_degrees_of_x_in_order_of_first_appearance_with_or_without_partners():
    # the degree (1, 0) first appears on a term of block 0, which meets no
    # term of y; its block-1 term still comes before the block-1 term of
    # degree (0, 1) that follows it
    one = Scalar.one()
    x = Element(_DS, {(0, (1, 0)): one, (1, (1, 0)): one, (1, (0, 1)): one})
    y = Element(_DS, {(1, (1, 1)): one})
    phase = lambda p, q: _e(Fraction(p[0] + 2 * q[1], 12))
    got = phased_product(x, y, phase, _ds_grading)
    assert list(got.t) == list(ref_phased_product(x, y, phase, _ds_grading).t) == [(1, (1, 2)), (1, (2, 1))]
