"""Z^d-graded twisted torus algebras and phase-twist deformation.

A :class:`BlockAlgebra` is the universal *-algebra generated by d commuting
-up-to-phase unitaries; its basis monomials are integer exponent vectors in
normal order.  A :class:`DirectSum` of blocks models finite direct sums (the
product of monomials from different blocks is zero and the unit is the sum of
the block units).

Deformation: for a skew matrix J (entries rational + rational*t) the twisted
product of homogeneous elements of degrees p, q is

    a x_J b = e(SIGMA * p.Jq) * ab

with the global sign SIGMA fixed by the sign of the oscillatory integral,
which :func:`finite_oscillatory_sum` evaluates exactly on (Z/N)^n.  For
bi-graded elements the same formula with the doubled matrix
Jtilde = (-J) (+) J gives the companion product used on quantum-group models.

Phases are computed from integers.  A :class:`SkewMatrix` carries its
integer form J = (C + T*t)/den, built once with the matrix (every matrix the
package builds is t/2 times an integer matrix), so den * p.Jq is the integer
pair (p^T C q, p^T T q).  The exponential of each such pair is memoised on
the matrix.  Every twisted product goes through one kernel,
:func:`phased_product`, which groups each operand's terms by degree and so
takes one phase per pair of degrees.  It visits only same-block term pairs:
the ambient's ``block`` key (the block index on a direct sum) tells which
pairs can have a nonzero product, and the others are never formed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .freealg import Element, _add_term, same_ambient
from .scalars import Cyclo, Scalar, ThetaLin

Frac = Fraction

#: Global sign in the twisted-product phase e(SIGMA * p.Jq): the sign of
#:   int int e((J^T p).u + q.v + u.v) du dv  =  e(-p.Jq),
#: pinned by its exact finite counterpart :func:`finite_oscillatory_sum` in
#: the deformation suite's twist-sign-oracle and in
#: test_graded.py::TestTwist::test_oracle_fixes_global_sign.
SIGMA = -1


class BlockAlgebra:
    """Twisted torus algebra on d phase-commuting unitary generators.

    ``comm[(a, b)]`` (a < b) is the scalar c with  u_b u_a = c * u_a u_b.
    Basis monomials are exponent vectors; the monomial m stands for the
    normal-ordered product u_0^m0 ... u_{d-1}^m{d-1}.  ``bidegrees``
    optionally assigns each generator a weight vector for a two-sided torus
    action (adjoints carry negated weights).  Powers ``c**k`` of the
    commutation scalars are memoised per instance, keyed by (pair, k), and
    so are bidegrees, keyed by exponent tuple.
    """

    def __init__(self, names, comm=None, bidegrees=None):
        self.names = list(names)
        self.d = len(self.names)
        self.comm = {}
        for a in range(self.d):
            for b in range(a + 1, self.d):
                c = comm.get((a, b)) if comm else None
                self.comm[(a, b)] = c if c is not None else Scalar.one()
        self.bidegrees = list(bidegrees) if bidegrees else None
        self._comm_pows = {}
        self._bidegrees = {}

    def _comm_pow(self, pair, k):
        key = (pair, k)
        p = self._comm_pows.get(key)
        if p is None:
            p = self._comm_pows[key] = self.comm[pair] ** k
        return p

    # -- monomial interface -----------------------------------------------------
    def one_terms(self):
        return {(0,) * self.d: Scalar.one()}

    def mul_mono(self, m1, m2):
        phase = Scalar.one()
        for pair in self.comm:
            k = m1[pair[1]] * m2[pair[0]]
            if k:
                phase = phase * self._comm_pow(pair, k)
        return [(phase, tuple(x + y for x, y in zip(m1, m2)))]

    def block(self, m):
        return None

    def star_mono(self, m):
        phase = Scalar.one()
        for pair in self.comm:
            k = m[pair[0]] * m[pair[1]]
            if k:
                phase = phase * self._comm_pow(pair, k)
        return phase, tuple(-x for x in m)

    def deg(self, m):
        return sum(abs(x) for x in m)

    def render_mono(self, m):
        parts = [
            f"{n}^{x}" if x != 1 else n for n, x in zip(self.names, m) if x != 0
        ]
        return " ".join(parts) if parts else "1"

    # -- helpers ------------------------------------------------------------------
    def gen(self, i_or_name, power=1) -> Element:
        i = i_or_name if isinstance(i_or_name, int) else self.names.index(i_or_name)
        m = [0] * self.d
        m[i] = power
        return Element(self, {tuple(m): Scalar.one()})

    def monomial(self, m) -> Element:
        return Element(self, {tuple(m): Scalar.one()})

    def degree_vec(self, m):
        return tuple(m)

    def same_structure(self, other) -> bool:
        return (
            self.names == other.names
            and self.bidegrees == other.bidegrees
            and all(c == other.comm[pair] for pair, c in self.comm.items())
        )

    def bidegree(self, m):
        tot = self._bidegrees.get(m)
        if tot is None:
            if self.bidegrees is None:
                raise ValueError("block algebra has no bidegrees")
            tot = self._bidegrees[m] = tuple(
                sum(x * b[i] for x, b in zip(m, self.bidegrees))
                for i in range(len(self.bidegrees[0]))
            )
        return tot


class DirectSum:
    """Finite direct sum of block algebras; monomials are (block, exponents)."""

    def __init__(self, blocks, block_names=None):
        self.blocks = list(blocks)
        self.block_names = block_names or [str(i) for i in range(len(blocks))]

    def one_terms(self):
        out = {}
        for k, blk in enumerate(self.blocks):
            out[(k, (0,) * blk.d)] = Scalar.one()
        return out

    def mul_mono(self, m1, m2):
        k1, e1 = m1
        k2, e2 = m2
        if k1 != k2:
            return []
        return [(c, (k1, m)) for c, m in self.blocks[k1].mul_mono(e1, e2)]

    def block(self, m):
        return m[0]

    def star_mono(self, m):
        k, e = m
        c, se = self.blocks[k].star_mono(e)
        return c, (k, se)

    def deg(self, m):
        return self.blocks[m[0]].deg(m[1])

    def render_mono(self, m):
        k, e = m
        inner = self.blocks[k].render_mono(e)
        return f"[{self.block_names[k]}: {inner}]"

    # -- helpers ------------------------------------------------------------------
    def block_gen(self, k, i, power=1) -> Element:
        blk = self.blocks[k]
        m = [0] * blk.d
        m[i] = power
        return Element(self, {(k, tuple(m)): Scalar.one()})

    def block_unit(self, k) -> Element:
        return Element(self, {(k, (0,) * self.blocks[k].d): Scalar.one()})

    def bidegree(self, m):
        k, e = m
        return self.blocks[k].bidegree(e)

    def same_structure(self, other) -> bool:
        return (
            self.block_names == other.block_names
            and len(self.blocks) == len(other.blocks)
            and all(map(same_ambient, self.blocks, other.blocks))
        )


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------


class Laplacian:
    """Diagonal Laplacian on a graded algebra: eigenvalue from the degree vector.

    For the flat torus the monomial of degree (m, n) has eigenvalue
    -(m^2 + n^2).
    """

    def __init__(self, eigenvalue_fn=None):
        self.eigenvalue_fn = eigenvalue_fn or (lambda v: -sum(x * x for x in v))

    def eigenvalue(self, degree_vec) -> int:
        return self.eigenvalue_fn(degree_vec)

    def apply(self, elem: Element) -> Element:
        amb = elem.ambient
        out = Element.zero(amb)
        for m, c in elem.t.items():
            out._add_term(m, c * Scalar.rational(self.eigenvalue(amb.degree_vec(m))))
        return out


# ---------------------------------------------------------------------------
# deformation matrices and twisted products
# ---------------------------------------------------------------------------


class SkewMatrix(tuple):
    """A deformation matrix J = (C + T*t)/den with integer matrices C and T.

    The rows are tuples, so ``J[i][j]`` reads an entry as a ThetaLin.  The
    integer form is built once, with the matrix, so that den * p.Jq is the
    pair of integers (p^T C q, p^T T q) (:meth:`forms`).  The exponentials
    e((a + b*t)/den) that phases take are memoised on the matrix, keyed by
    (a, b) (:meth:`exponential`).  Every matrix the package builds is t/2
    times an integer matrix: C = 0 and den = 2.
    """

    def __new__(cls, rows):
        J = super().__new__(cls, (tuple(row) for row in rows))
        J.den = math.lcm(*(x.denominator for row in J for e in row for x in (e.const, e.coef)))
        J.C = tuple(tuple(int(e.const * J.den) for e in row) for row in J)
        J.T = tuple(tuple(int(e.coef * J.den) for e in row) for row in J)
        # the nonzero entries (i, j, value), which are all the forms read
        J._c = [(i, j, v) for i, row in enumerate(J.C) for j, v in enumerate(row) if v]
        J._t = [(i, j, v) for i, row in enumerate(J.T) for j, v in enumerate(row) if v]
        J._exps = {}
        return J

    def forms(self, p, q) -> tuple:
        """(p^T C q, p^T T q) for integer vectors p, q: den * p.Jq."""
        return (sum(v * p[i] * q[j] for i, j, v in self._c),
                sum(v * p[i] * q[j] for i, j, v in self._t))

    def exponential(self, a: int, b: int) -> Scalar:
        """e((a + b*t)/den), memoised."""
        key = (a, b)
        x = self._exps.get(key)
        if x is None:
            x = self._exps[key] = Scalar.exponential(ThetaLin(Frac(a, self.den), Frac(b, self.den)))
        return x


def skew_matrix(entries) -> SkewMatrix:
    """A deformation matrix of ThetaLin entries; ValueError unless square and
    skew."""
    rows = [[e if isinstance(e, ThetaLin) else ThetaLin(e) for e in row] for row in entries]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("deformation matrix must be square")
    if any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(n)):
        raise ValueError("deformation matrix must be skew")
    return SkewMatrix(rows)


def j_torus() -> SkewMatrix:
    """The standard 2x2 deformation matrix with e(2*<upper entry>) = phase.

    Orientation is fixed so that deforming the commutative 2-torus yields the
    rotation algebra with  U V = e(t) V U; see test_graded.py.
    """
    return skew_matrix(
        [
            [ThetaLin(0, 0), ThetaLin(0, Frac(-1, 2))],
            [ThetaLin(0, Frac(1, 2)), ThetaLin(0, 0)],
        ]
    )


def block_diag(A, B) -> SkewMatrix:
    """The block-diagonal matrix A (+) B."""
    zero = ThetaLin(0, 0)
    return skew_matrix([list(row) + [zero] * len(B) for row in A]
                       + [[zero] * len(A) + list(row) for row in B])


def j_double(J) -> SkewMatrix:
    """The doubled matrix (-J) (+) J acting on bidegrees."""
    return block_diag([[-e for e in row] for row in J], J)


def pair(p, J: SkewMatrix, q) -> ThetaLin:
    """p . (J q) for integer vectors p, q."""
    a, b = J.forms(p, q)
    return ThetaLin(Frac(a, J.den), Frac(b, J.den))


def twist_phase(p, J: SkewMatrix, q) -> Scalar:
    """The exact deformation phase e(SIGMA * p.Jq)."""
    a, b = J.forms(p, q)
    return J.exponential(SIGMA * a, SIGMA * b)


def phased_product(x: Element, y: Element, phase, grading) -> Element:
    """x times y with the scalar ``phase(p, q)`` on each pair of terms of
    degrees p and q (``grading`` maps a monomial to its integer degree
    vector, a tuple).

    One pass over y buckets its terms by ambient ``block`` and then by
    degree, and one pass over x files each term under its degree with the
    buckets of its own block, so each term of x meets only the terms of its
    block, the only pairs whose product can be nonzero.  Each term's degree
    is computed once, and ``phase`` is called once per pair of degrees that
    has such a pair.  The pairs are taken in the all-pairs order of the
    degree-grouped product: degrees of x, then degrees of y, in order of
    first appearance, then the terms of x and of y in their own order.  So
    the result has the same terms, with the same coefficients formed in the
    same order, as the product over every term pair.  Every twisted product
    in the package is this kernel.
    """
    amb = x.ambient
    mul_mono, block = amb.mul_mono, amb.block
    rank: dict = {}  # degree of y -> order of first appearance
    buckets: dict = {}  # block -> degree -> terms of y
    for m2, c2 in y.t.items():
        q = grading(m2)
        if q not in rank:
            rank[q] = len(rank)
        buckets.setdefault(block(m2), {}).setdefault(q, []).append((m2, c2))
    groups: dict = {}  # degree of x -> degree of y -> [(m1, c1, terms of y)]
    for m1, c1 in x.t.items():
        pairs = groups.setdefault(grading(m1), {})
        bucket = buckets.get(block(m1))
        if bucket is not None:
            for q, yterms in bucket.items():
                pairs.setdefault(q, []).append((m1, c1, yterms))
    out = Element(amb)
    terms = out.t
    for p, pairs in groups.items():
        for q in sorted(pairs, key=rank.__getitem__) if len(pairs) > 1 else pairs:
            ph = phase(p, q)
            for m1, c1, yterms in pairs[q]:
                c1p = c1 * ph
                for m2, c2 in yterms:
                    c = c1p * c2
                    for pc, pm in mul_mono(m1, m2):
                        _add_term(terms, pm, c * pc)
    return out


def rieffel_product(x: Element, y: Element, J: SkewMatrix, grading=None) -> Element:
    """Twisted product of graded elements: phase e(SIGMA*p.Jq) times ab.

    ``grading`` maps a monomial to its integer degree vector; by default the
    ambient ``degree_vec`` (block algebras) is used.  Pass
    ``grading=ambient.bidegree`` together with ``j_double(J)`` for the
    companion product on bi-graded quantum-group models.
    """
    return phased_product(x, y, lambda p, q: twist_phase(p, J, q), grading or x.ambient.degree_vec)


def deform_block(block: BlockAlgebra, J, use_bidegrees=False) -> BlockAlgebra:
    """The deformed algebra of a block, presented on its own ordered basis.

    The result is again a block algebra: the generators pick up the relative
    commutation phase e(2*SIGMA*p_b.J p_a) and monomials denote twisted
    ordered products.
    """
    grading = block.bidegree if use_bidegrees else block.degree_vec
    unit = [0] * block.d
    gdeg = []
    for i in range(block.d):
        m = list(unit)
        m[i] = 1
        gdeg.append(grading(tuple(m)))
    comm = {}
    for (a, b), c in block.comm.items():
        extra = Scalar.exponential((pair(gdeg[b], J, gdeg[a]) - pair(gdeg[a], J, gdeg[b])) * SIGMA)
        comm[(a, b)] = c * extra
    return BlockAlgebra(block.names, comm, block.bidegrees)


def deform_sum(ds: DirectSum, J) -> DirectSum:
    """Every block deformed on its bidegrees."""
    return DirectSum([deform_block(b, J, use_bidegrees=True) for b in ds.blocks], ds.block_names)


# ---------------------------------------------------------------------------
# trace, invariant functionals
# ---------------------------------------------------------------------------


def tau(x: Element, weights=None) -> Scalar:
    """Degree-zero coefficient; on a direct sum, the weighted sum over blocks.

    With ``weights`` (one rational per block) this is the invariant state
    candidate; without, the weight of every block is 1.
    """
    amb = x.ambient
    tot = Scalar.zero()
    for m, c in x.t.items():
        if isinstance(amb, DirectSum):
            k, e = m
            if any(e):
                continue
            w = weights[k] if weights is not None else 1
            tot = tot + c * Scalar.rational(w)
        else:
            if any(m):
                continue
            tot = tot + c
    return tot


def collapse_phase(p, J: SkewMatrix, q) -> Scalar:
    """Exact value of  int int e((J^T p).u + q.v + u.v) du dv  =  e(-(J^T p).q).

    (J^T p).q = p.Jq comes from the integer forms of J.  The sign is that of
    the integral, not SIGMA, so the twist identities test the sign convention
    of :func:`twist_phase`.  :func:`finite_oscillatory_sum` is its finite
    counterpart, with the same normalisation (the integral of e(u.v) alone
    is 1).
    """
    a, b = J.forms(p, q)
    return J.exponential(-a, -b)


def finite_oscillatory_sum(a, b, n: int) -> Scalar:
    """n^-d sum over u, v in (Z/n)^d of e((a.u + b.v + u.v)/n), exactly.

    For integer vectors a, b the sum over v vanishes unless u = -b, so the
    value is e(-a.b/n): the finite counterpart of the integral in
    :func:`collapse_phase`, with the same sign.  Each coordinate is summed on
    its own: its exponents are counted mod n as integers, and
    sum_j count_j * e(j/n) is formed once.
    """
    out = Cyclo.rational(1)
    for ai, bi in zip(a, b):
        counts = [0] * n
        for u in range(n):
            for v in range(n):
                counts[(ai * u + bi * v + u * v) % n] += 1
        out = out * sum((Cyclo.rational(Frac(c, n)) * Cyclo.root(Frac(j, n))
                         for j, c in enumerate(counts) if c), Cyclo.zero())
    return Scalar({Frac(0): out})
