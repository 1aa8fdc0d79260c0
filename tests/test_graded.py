import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiso.catalog import eight_block_model
from qiso.cqg import bullet_product
from qiso.freealg import Element, FreeAlgebra, TensorAlgebra
from qiso.graded import (
    SIGMA,
    BlockAlgebra,
    DirectSum,
    Laplacian,
    block_diag,
    collapse_phase,
    deform_block,
    deform_sum,
    finite_oscillatory_sum,
    j_double,
    j_torus,
    pair,
    phased_product,
    rieffel_product,
    skew_matrix,
    twist_phase,
)
from qiso.scalars import Scalar, ThetaLin


@pytest.fixture
def twisted():
    lam_bar = Scalar.exponential(ThetaLin(0, -1))
    return BlockAlgebra(["U", "V"], comm={(0, 1): lam_bar}, bidegrees=[(1, 0), (0, 1)])


class TestBlockAlgebra:
    def test_exchange_phases(self, twisted):
        U, V = twisted.gen("U"), twisted.gen("V")
        e = lambda k: Scalar.exponential(ThetaLin(0, k))
        assert (V * U - U * V * e(-1)).is_zero()
        assert (V * U.star() - U.star() * V * e(1)).is_zero()
        assert (V.star() * U - U * V.star() * e(1)).is_zero()
        assert (V.star() * U.star() - U.star() * V.star() * e(-1)).is_zero()

    def test_unitaries(self, twisted):
        U = twisted.gen("U")
        one = Element.unit(twisted)
        assert (U * U.star() - one).is_zero()
        assert (U.star() * U - one).is_zero()

    def test_monomial_powers(self, twisted):
        U, V = twisted.gen("U"), twisted.gen("V")
        m = twisted.monomial((2, -1))
        assert (m - U * U * V.star()).is_zero()

    def test_star_phase_consistency(self, twisted):
        # (VU)* = U*V* must match star applied after the exchange reduction
        U, V = twisted.gen("U"), twisted.gen("V")
        assert ((V * U).star() - U.star() * V.star()).is_zero()

    def test_mixed_blocks(self, twisted):
        twin = BlockAlgebra(["U", "V"], comm=dict(twisted.comm), bidegrees=[(1, 0), (0, 1)])
        assert (twisted.gen("U") - twin.gen("U")).is_zero()
        for other in (
            BlockAlgebra(["U", "V"], comm={(0, 1): Scalar.root(Fraction(-1, 3))},  # another commutation scalar
                         bidegrees=[(1, 0), (0, 1)]),
            BlockAlgebra(["U", "V"], comm=dict(twisted.comm)),  # no bidegrees
            BlockAlgebra(["U", "W"], comm=dict(twisted.comm), bidegrees=[(1, 0), (0, 1)]),
        ):
            with pytest.raises(ValueError, match="different ambient algebras"):
                twisted.gen("U") + other.gen("U")


class TestDirectSum:
    def test_cross_block_products_vanish(self):
        ds = DirectSum([BlockAlgebra(["x"]), BlockAlgebra(["y"])])
        a = ds.block_gen(0, 0)
        b = ds.block_gen(1, 0)
        assert (a * b).is_zero()

    def test_unit_is_sum_of_block_units(self):
        ds = DirectSum([BlockAlgebra(["x"]), BlockAlgebra(["y"])])
        one = Element.unit(ds)
        want = ds.block_unit(0) + ds.block_unit(1)
        assert (one - want).is_zero()

    def test_unit_acts_as_identity(self):
        ds = DirectSum([BlockAlgebra(["x"]), BlockAlgebra(["y"])])
        a = ds.block_gen(0, 0) + ds.block_gen(1, 0) * Scalar.rational(3)
        assert (Element.unit(ds) * a - a).is_zero()

    def test_mixed_sums(self):
        ds = DirectSum([BlockAlgebra(["x"]), BlockAlgebra(["y"])])
        twin = DirectSum([BlockAlgebra(["x"]), BlockAlgebra(["y"])])
        assert (ds.block_gen(1, 0) - twin.block_gen(1, 0)).is_zero()
        for other in (
            DirectSum(list(ds.blocks), ["a", "b"]),
            DirectSum([BlockAlgebra(["x"]), BlockAlgebra(["z"])]),
            DirectSum(list(ds.blocks) + [BlockAlgebra(["z"])]),
        ):
            with pytest.raises(ValueError, match="different ambient algebras"):
                ds.block_gen(0, 0) + other.block_gen(0, 0)


class TestLaplacian:
    def test_default_eigenvalue(self):
        lap = Laplacian()
        assert lap.eigenvalue((2, -1)) == -5

    def test_apply_scales_monomials(self):
        blk = BlockAlgebra(["U", "V"])
        lap = Laplacian()
        m = blk.monomial((1, 2))
        assert (lap.apply(m) - m * Scalar.rational(-5)).is_zero()


class TestTwist:
    def test_j_torus_shape(self):
        J = j_torus()
        assert J[0][0] == 0 and J[1][1] == 0
        assert J[0][1] == -J[1][0]

    def test_j_double_blocks(self):
        J = j_torus()
        Jt = j_double(J)
        assert len(Jt) == 4
        assert Jt[0][1] == -J[0][1]
        assert Jt[2][3] == J[0][1]

    def test_twist_phase_antisymmetry(self):
        J = j_torus()
        p, q = [2, -1], [1, 3]
        fwd = twist_phase(p, J, q)
        bwd = twist_phase(q, J, p)
        assert (fwd * bwd - Scalar.one()).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        ab=st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    min_size=1, max_size=2),
        n=st.integers(1, 18),
    )
    def test_finite_oscillatory_sum(self, ab, n):
        # n^-d sum_{u,v} e((a.u + b.v + u.v)/n) = e(-a.b/n), exactly
        a, b = zip(*ab)
        want = Scalar.root(Fraction(-sum(x * y for x, y in zip(a, b)), n))
        assert (finite_oscillatory_sum(a, b, n) - want).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        q=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        r=st.integers(-12, 12),
        s=st.integers(1, 9),
    )
    def test_oracle_fixes_global_sign(self, p, q, r, s):
        # at theta = r/s, N = den * s makes a = N J^T p integral, and the
        # exact finite sum equals the phase with the pinned sign
        J = j_torus()
        th = Fraction(r, s)
        n = J.den * s
        jtp = [sum((J[k][i] * p[k] for k in range(2)), ThetaLin()) for i in range(2)]
        a = [n * (x.const + x.coef * th) for x in jtp]
        assert all(x.denominator == 1 for x in a)
        val = finite_oscillatory_sum([int(x) for x in a], q, n)
        assert (val - twist_phase(p, J, q).specialize(th)).is_zero()
        assert (val - collapse_phase(p, J, q).specialize(th)).is_zero()

    def test_rieffel_product_deforms_commutative_torus(self):
        blk = BlockAlgebra(["U", "V"], bidegrees=[(1, 0), (0, 1)])
        U, V = blk.gen("U"), blk.gen("V")
        J = j_torus()
        lam = Scalar.exponential(ThetaLin(0, 1))
        lhs = rieffel_product(U, V, J) - rieffel_product(V, U, J) * lam
        assert lhs.is_zero()

    def test_rieffel_product_associative_on_monomials(self):
        blk = BlockAlgebra(["U", "V"])
        J = j_torus()
        rng = random.Random(11)
        for _ in range(20):
            a = blk.monomial((rng.randint(-3, 3), rng.randint(-3, 3)))
            b = blk.monomial((rng.randint(-3, 3), rng.randint(-3, 3)))
            c = blk.monomial((rng.randint(-3, 3), rng.randint(-3, 3)))
            left = rieffel_product(rieffel_product(a, b, J), c, J)
            right = rieffel_product(a, rieffel_product(b, c, J), J)
            assert (left - right).is_zero()

    def test_deform_block_phase(self):
        blk = BlockAlgebra(["U", "V"], bidegrees=[(1, 0), (0, 1)])
        d = deform_block(blk, j_torus())
        got = d.comm[(0, 1)]
        assert (got - Scalar.exponential(ThetaLin(0, -1))).is_zero()

    def test_sigma_pinned(self):
        assert SIGMA == -1

    @settings(deadline=None, max_examples=100)
    @given(st.tuples(*[st.integers(-4, 4)] * 3))
    def test_bidegree_memo_is_weight_sum(self, m):
        weights = [(1, 0, 2), (0, 1, -1), (1, 1, 3)]
        blk = BlockAlgebra(["U", "V", "W"], bidegrees=weights)
        plain = tuple(sum(x * w[i] for x, w in zip(m, weights)) for i in range(3))
        assert blk.bidegree(m) == plain
        assert blk.bidegree(m) == plain  # served from the memo

    def test_bidegree_without_weights_raises(self):
        with pytest.raises(ValueError, match="no bidegrees"):
            BlockAlgebra(["U", "V"]).bidegree((1, 0))


# ---------------------------------------------------------------------------
# the integer form of deformation matrices, against the ThetaLin arithmetic
# ---------------------------------------------------------------------------


def ref_pair(p, J, q) -> ThetaLin:
    """p . (J q) summed entry by entry in ThetaLin arithmetic."""
    acc = ThetaLin(0, 0)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            if pi and qj:
                acc = acc + J[i][j] * (pi * qj)
    return acc


def ref_twist_phase(p, J, q) -> Scalar:
    return Scalar.exponential(ref_pair(p, J, q) * SIGMA)


def ref_collapse_phase(p, J, q) -> Scalar:
    """e(-(J^T p).q), with J^T p formed as a ThetaLin vector."""
    n = len(J)
    jtp = [sum((J[k][i] * p[k] for k in range(n)), ThetaLin(0, 0)) for i in range(n)]
    return Scalar.exponential(-sum((c * qi for c, qi in zip(jtp, q)), ThetaLin(0, 0)))


def ref_rieffel_product(x, y, J, grading=None) -> Element:
    """The twisted product term pair by term pair, one phase per pair."""
    amb = x.ambient
    grading = grading or amb.degree_vec
    out = Element.zero(amb)
    for m1, c1 in x.t.items():
        for m2, c2 in y.t.items():
            c = c1 * c2 * ref_twist_phase(grading(m1), J, grading(m2))
            for pc, pm in amb.mul_mono(m1, m2):
                out._add_term(pm, c * pc)
    return out


def ref_all_pairs_product(x, y, phase, grading) -> Element:
    """The degree-grouped kernel without block buckets: every term pair is
    formed, and mul_mono drops the cross-block ones."""
    def by_degree(z):
        groups = {}
        for m, c in z.t.items():
            groups.setdefault(tuple(grading(m)), []).append((m, c))
        return groups

    amb = x.ambient
    out = Element.zero(amb)
    for p, xterms in by_degree(x).items():
        for q, yterms in by_degree(y).items():
            ph = phase(p, q)
            for m1, c1 in xterms:
                for m2, c2 in yterms:
                    for pc, pm in amb.mul_mono(m1, m2):
                        out._add_term(pm, c1 * ph * c2 * pc)
    return out


def _package_matrices():
    J = j_torus()
    return {"j_torus": J, "j_double": j_double(J), "bullet": block_diag(J, j_double(J))}


PROPERTY = settings(deadline=None, max_examples=60)
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def skew_matrices(draw, n=None):
    """Random skew matrices with rational + rational*t entries (n x n, or of
    a random size up to 4)."""
    n = n or draw(st.integers(1, 4))
    rows = [[ThetaLin(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = ThetaLin(draw(small_fracs), draw(small_fracs))
            rows[i][j], rows[j][i] = e, -e
    return skew_matrix(rows)


@st.composite
def matrix_and_vectors(draw):
    name = draw(st.sampled_from(["j_torus", "j_double", "bullet", "random"]))
    J = draw(skew_matrices()) if name == "random" else _package_matrices()[name]
    vec = st.lists(st.integers(-6, 6), min_size=len(J), max_size=len(J))
    return J, draw(vec), draw(vec)


class TestIntegerForm:
    def test_package_matrices_are_t_over_two(self):
        for J in _package_matrices().values():
            assert J.den == 2
            assert all(v == 0 for row in J.C for v in row)

    def test_entries_read_as_thetalin(self):
        J = block_diag(j_torus(), j_double(j_torus()))
        assert J[0][1] == ThetaLin(0, Fraction(-1, 2))
        assert J[2][3] == ThetaLin(0, Fraction(1, 2))
        assert J[4][5] == ThetaLin(0, Fraction(-1, 2))

    @PROPERTY
    @given(matrix_and_vectors())
    def test_pair_and_twist_phase_match_thetalin(self, jpq):
        J, p, q = jpq
        assert pair(p, J, q) == ref_pair(p, J, q)
        want = ref_twist_phase(p, J, q)
        assert (twist_phase(p, J, q) - want).is_zero()
        assert (twist_phase(p, J, q) - want).is_zero()  # now from the memo

    @PROPERTY
    @given(matrix_and_vectors())
    def test_collapse_phase_matches_thetalin(self, jpq):
        J, p, q = jpq
        assert (collapse_phase(p, J, q) - ref_collapse_phase(p, J, q)).is_zero()

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]],
        [[ThetaLin(0, 1), 0], [0, ThetaLin(0, -1)]],
        [[0, ThetaLin(1, 2)], [ThetaLin(-1, 2), 0]],
        [[0, 1, 0], [-1, 0]],
    ])
    def test_skew_matrix_rejects_a_non_skew_matrix(self, rows):
        with pytest.raises(ValueError):
            skew_matrix(rows)


_phases = [Scalar.one(), Scalar.rational(-2), Scalar.exponential(ThetaLin(0, 1)),
           Scalar.exponential(ThetaLin(Fraction(1, 3), -2)) * Scalar.rational(Fraction(1, 2))]
_coeffs = st.sampled_from(_phases)
_exps = st.integers(-2, 2)


def _block_elements(blk):
    mono = st.tuples(*[_exps] * blk.d)
    return st.dictionaries(mono, _coeffs, min_size=1, max_size=5).map(
        lambda t: Element(blk, t))


def _ds_monos(nblocks=8):
    return st.tuples(st.integers(0, nblocks - 1), st.tuples(_exps, _exps))


def _elements(amb, monos):
    return st.dictionaries(monos, _coeffs, min_size=1, max_size=6).map(lambda t: Element(amb, t))


_DS = eight_block_model()
_ds_elements = _elements(_DS, _ds_monos())

# three generators with W of the same bidegree as U V: terms share degrees
_BLK3 = BlockAlgebra(["U", "V", "W"],
                     comm={(0, 1): Scalar.exponential(ThetaLin(0, -1)),
                           (1, 2): Scalar.exponential(ThetaLin(Fraction(1, 3), 0))},
                     bidegrees=[(1, 0), (0, 1), (1, 1)])

# the bullet ambient: a twisted source torus (x) the eight-block model
_SRC = BlockAlgebra(["U", "V"], comm={(0, 1): Scalar.exponential(ThetaLin(0, 1))})
_SRC_DS = TensorAlgebra([_SRC, _DS])
_src_ds_monos = st.tuples(st.tuples(_exps, _exps), _ds_monos())
# two direct-sum legs, on three blocks each so that both legs often match
_DS_DS = TensorAlgebra([_DS, _DS])
_ds_ds_monos = st.tuples(_ds_monos(3), _ds_monos(3))


def _bullet_grading(m):
    return _SRC.degree_vec(m[0]) + _DS.bidegree(m[1])


def _ds_ds_grading(m):
    return _DS.bidegree(m[0]) + _DS.bidegree(m[1])


class TestRieffelProduct:
    @PROPERTY
    @given(_block_elements(_BLK3), _block_elements(_BLK3), skew_matrices(2))
    def test_block_algebra_on_bidegrees(self, x, y, J):
        got = rieffel_product(x, y, J, grading=_BLK3.bidegree)
        assert (got - ref_rieffel_product(x, y, J, grading=_BLK3.bidegree)).is_zero()

    @PROPERTY
    @given(_block_elements(BlockAlgebra(["U", "V"])), _block_elements(BlockAlgebra(["U", "V"])))
    def test_block_algebra_on_degrees(self, x, y):
        J = j_torus()
        assert (rieffel_product(x, y, J) - ref_rieffel_product(x, y, J)).is_zero()

    @PROPERTY
    @given(_ds_elements, _ds_elements)
    def test_direct_sum_on_bidegrees(self, x, y):
        Jt = j_double(j_torus())
        got = rieffel_product(x, y, Jt, grading=_DS.bidegree)
        assert (got - ref_rieffel_product(x, y, Jt, grading=_DS.bidegree)).is_zero()

    @PROPERTY
    @given(_elements(_SRC_DS, _src_ds_monos), _elements(_SRC_DS, _src_ds_monos),
           skew_matrices(2))
    def test_bullet_product_on_multi_block_elements(self, x, y, J):
        Jb = block_diag(J, j_double(J))
        want = ref_rieffel_product(x, y, Jb, grading=_bullet_grading)
        assert (bullet_product(x, y, Jb) - want).is_zero()

    @PROPERTY
    @given(_elements(_DS_DS, _ds_ds_monos), _elements(_DS_DS, _ds_ds_monos), skew_matrices(2))
    def test_tensor_of_direct_sums(self, x, y, J):
        Jt = j_double(J)
        Jd = block_diag(Jt, Jt)
        got = rieffel_product(x, y, Jd, grading=_ds_ds_grading)
        assert (got - ref_rieffel_product(x, y, Jd, grading=_ds_ds_grading)).is_zero()

    @PROPERTY
    @given(_elements(_DS_DS, _ds_ds_monos), _elements(_DS_DS, _ds_ds_monos))
    def test_same_terms_in_the_same_order_one_phase_per_degree_pair(self, x, y):
        Jd = block_diag(j_double(j_torus()), j_double(j_torus()))
        calls = []

        def phase(p, q):
            calls.append((p, q))
            return twist_phase(p, Jd, q)

        got = phased_product(x, y, phase, _ds_ds_grading)
        assert len(calls) == len(set(calls))
        want = ref_all_pairs_product(x, y, lambda p, q: twist_phase(p, Jd, q), _ds_ds_grading)
        assert list(got.t) == list(want.t)
        assert all((got.t[m] - c).is_zero() for m, c in want.t.items())


# every ambient, with monomials that often share a block
_FREE = FreeAlgebra(["x", "y"], selfadjoint=["y"])
_AMBIENT_MONOS = {
    "free": (_FREE, st.lists(st.sampled_from([0, 1, 2]), max_size=3).map(tuple)),
    "block": (_BLK3, st.tuples(_exps, _exps, _exps)),
    "direct-sum": (_DS, _ds_monos(3)),
    "tensor-block-sum": (_SRC_DS, st.tuples(st.tuples(_exps, _exps), _ds_monos(3))),
    "tensor-sum-sum": (_DS_DS, _ds_ds_monos),
    "tensor-free-sum": (TensorAlgebra([_FREE, _DS]),
                        st.tuples(st.lists(st.sampled_from([0, 2]), max_size=2).map(tuple),
                                  _ds_monos(3))),
}


class TestBlockKey:
    @pytest.mark.parametrize("name", sorted(_AMBIENT_MONOS))
    @PROPERTY
    @given(data=st.data())
    def test_cross_block_products_are_empty(self, name, data):
        # the contract phased_product relies on to skip pairs
        amb, monos = _AMBIENT_MONOS[name]
        a, b = data.draw(monos), data.draw(monos)
        hash(amb.block(a))
        if amb.block(a) != amb.block(b):
            assert amb.mul_mono(a, b) == []

    def test_keys(self):
        assert _DS.block((5, (1, -1))) == 5
        assert _SRC_DS.block(((1, 0), (5, (1, -1)))) == (_SRC.block((1, 0)), 5)
        assert _FREE.block((0, 2)) == _FREE.block(())
        assert _BLK3.block((1, 0, 0)) == _BLK3.block((0, 0, 0))
