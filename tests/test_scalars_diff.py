"""Differential tests: the scalar kernel against an exact oracle and its frozen reference.

Every operation runs on random sums of  q * e(r + s*t)  (q, s rational; r with
denominator up to 12), so constants have conductor up to 12 and, after sums
and products, up to 27720 = lcm(5, 7, 8, 9, 11).

The oracle below holds a coefficient as a formal sum of roots of unity,
sum q * e(r), together with the conductor n that the kernel's rule gives it:
the result of an operation has the lcm of its operands' conductors, and a
rational result has n = 1.  Its exact power-basis coordinates in Q(zeta_n)
come from one sparse reduction of  sum q * x^(r*n)  by Phi_n, with Phi_n
computed here from the Moebius product.  Every kernel result must have the
oracle's exponents, conductors and coordinates, and so a byte-identical
``render``.  No float decides any test.

``scalars_ref`` is a frozen copy of the original kernel.  It tabulates
m * phi(m) ``Fraction``s for each conductor m and multiplies densely, so it is
compared as well only where that is cheap: up to conductor ``REF_CONDUCTOR``.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalars_ref as ref
from qiso import scalars as new

SETTINGS = settings(deadline=None, max_examples=60)
REF_CONDUCTOR = 420

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5])
)
roots = st.integers(1, 12).flatmap(
    lambda n: st.builds(Fraction, st.integers(0, n - 1), st.just(n))
)
exponents = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
term = st.tuples(rationals, roots, exponents)
specs = st.lists(term, max_size=3)
unit_specs = st.tuples(
    rationals.filter(bool), roots, exponents
).map(lambda t: [t])
thetas = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))
cyclo_specs = st.lists(st.tuples(rationals, roots), max_size=3)


# ---------------------------------------------------------------------------
# the oracle: formal sums of roots of unity
# ---------------------------------------------------------------------------


def mobius(k):
    out, p = 1, 2
    while k > 1:
        if p * p > k:
            p = k
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return out


@lru_cache(maxsize=None)
def phi(m):
    """Phi_m, integers low degree first: the product of (x^d - 1)^mu(m/d) over d | m."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    p = [1]
    for d in divisors:
        if mobius(m // d) == 1:  # times x^d - 1
            new_p = [0] * (len(p) + d)
            for i, v in enumerate(p):
                new_p[i] -= v
                new_p[i + d] += v
            p = new_p
    for d in divisors:
        if mobius(m // d) == -1:  # exactly divided by x^d - 1
            q = [0] * (len(p) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - p[i]
            p = q
    return tuple(p)


def coords(n, roots):
    """Exact power-basis coordinates of  sum q * e(r)  in Q(zeta_n): the sum
    of q * x^(r*n), reduced once by the sparse tail of Phi_n."""
    p = phi(n)
    deg = len(p) - 1
    tail = [(i, c) for i, c in enumerate(p[:deg]) if c]
    den = math.lcm(1, *(q.denominator for q in roots.values()))
    acc = [0] * max(n, deg)
    for r, q in roots.items():
        j = r * n
        assert j.denominator == 1 and 0 <= j < n
        acc[j.numerator] += q.numerator * (den // q.denominator)
    for k in range(n - 1, deg - 1, -1):
        v = acc[k]
        if v:
            for i, c in tail:
                acc[k - deg + i] -= v * c
    return [Fraction(v, den) for v in acc[:deg]]


# An oracle coefficient is (n, roots, c): roots maps each r in [0, 1) to its
# nonzero rational multiplicity, n is the conductor and c the coordinates.
# An oracle scalar is a dict {s: coefficient}, in the kernel's term order.


def settle(n, roots):
    """sum q * e(r) at conductor n, by the conductor rule: a rational value
    moves to n = 1."""
    roots = {r: q for r, q in roots.items() if q}
    c = coords(n, roots)
    if any(c[1:]):
        return n, roots, c
    return (1, {Fraction(0): c[0]}, c[:1]) if c[0] else (1, {}, [Fraction(0)])


def c_rational(q):
    return settle(1, {Fraction(0): Fraction(q)})


def c_root(r):
    r = Fraction(r) % 1
    return settle(r.denominator, {r: Fraction(1)})


def c_add(a, b):
    roots = dict(a[1])
    for r, q in b[1].items():
        roots[r] = roots.get(r, 0) + q
    return settle(math.lcm(a[0], b[0]), roots)


def c_neg(a):
    return a[0], {r: -q for r, q in a[1].items()}, [-v for v in a[2]]


def c_mul(a, b):
    roots = {}
    for r1, q1 in a[1].items():
        for r2, q2 in b[1].items():
            r = (r1 + r2) % 1
            roots[r] = roots.get(r, 0) + q1 * q2
    return settle(math.lcm(a[0], b[0]), roots)


def c_conj(a):
    return settle(a[0], {-r % 1: q for r, q in a[1].items()})


def c_inv(a):
    """The inverse of one root times a rational: (1/q) * e(-r)."""
    ((r, q),) = a[1].items()
    return settle(a[0], {-r % 1: 1 / q})


def c_of(u):
    """A kernel Cyclo read back as a formal sum of roots."""
    c = u.coords(u.n)
    return settle(u.n, {Fraction(k, u.n): v for k, v in enumerate(c) if v})


def c_pow(a, k):
    """a**k by the kernel's repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else c_mul(out, a)
        k >>= 1
        if not k:
            return out
        a = c_mul(a, a)


def c_build(spec):
    x = c_rational(0)
    for q, r in spec:
        x = c_add(x, c_mul(c_rational(q), c_root(r)))
    return x


def is_zero(a):
    return not a[1]


def key(s):
    s = Fraction(s)
    return s.numerator if s.denominator == 1 else s


def o_rational(q):
    return {0: c_rational(q)} if q else {}


def o_add(x, y):
    out = dict(x)
    for s, c in y.items():
        if s in out:
            r = c_add(out[s], c)
            if is_zero(r):
                del out[s]
            else:
                out[s] = r
        else:
            out[s] = c
    return out


def o_neg(x):
    return {s: c_neg(c) for s, c in x.items()}


def o_mul(x, y):
    if len(x) == 1 and len(y) == 1:
        ((s1, c1),) = x.items()
        ((s2, c2),) = y.items()
        return {key(s1 + s2): c_mul(c1, c2)}
    out = {}
    for s1, c1 in x.items():
        for s2, c2 in y.items():
            s, c = key(s1 + s2), c_mul(c1, c2)
            if s in out:
                r = c_add(out[s], c)
                if is_zero(r):
                    del out[s]
                else:
                    out[s] = r
            else:
                out[s] = c
    return out


def o_conj(x):
    return {key(-s): c_conj(c) for s, c in x.items()}


def o_inv(x):
    ((s, c),) = x.items()
    return {key(-s): c_inv(c)}


def o_pow(x, k):
    if k < 0:
        return o_pow(o_inv(x), -k)
    if k == 0:
        return o_rational(1)
    if len(x) == 1:
        ((s, c),) = x.items()
        return {key(k * s): c_pow(c, k)}
    out, base = o_rational(1), x
    while k:
        if k & 1:
            out = o_mul(out, base)
        k >>= 1
        if k:
            base = o_mul(base, base)
    return out


def o_specialize(x, theta):
    acc = c_rational(0)
    for s, c in x.items():
        acc = c_add(acc, c_mul(c, c_root(s * theta)))
    return {} if is_zero(acc) else {0: acc}


def o_build(spec):
    """The oracle of ``build``: sum q * e(r + s*t) over the spec."""
    x = {}
    for q, r, s in spec:
        x = o_add(x, o_mul(o_rational(q), {key(s): c_root(r)}))
    return x


def conductor(*xs):
    """The lcm of the conductors in oracle scalars."""
    return math.lcm(1, *(c[0] for x in xs for c in x.values()))


def ref_cyclo(a):
    """The reference kernel's Cyclo on the oracle's coordinates (no field tables)."""
    return ref.Cyclo(a[0], tuple(a[2]))


def assert_cyclo(u, a):
    """The kernel Cyclo u is the oracle coefficient a."""
    assert u.n == a[0]
    assert list(u.coords(u.n)) == a[2]
    assert u.render() == ref_cyclo(a).render()
    assert u.is_zero() == is_zero(a)
    assert u.is_rational() == (a[0] == 1)


def assert_oracle(u, x):
    """The kernel Scalar u is the oracle scalar x: the same exponents, and at
    each the same conductor and exact coordinates; and the same render."""
    assert set(u.terms) == set(x)
    for s, a in x.items():
        c = u.terms[s]
        assert c.n == a[0]
        assert list(c.coords(c.n)) == a[2]
    assert u.render() == ref.Scalar({s: ref_cyclo(a) for s, a in x.items()}).render()


def test_oracle_cyclotomic_polynomials():
    for m in range(1, 61):
        assert list(phi(m)) == ref.cyclotomic_poly(m)
    assert len(phi(27720)) - 1 == 5760
    assert sum(1 for v in phi(27720) if v) == 343


# ---------------------------------------------------------------------------
# the kernel against the oracle, and against the reference where it is cheap
# ---------------------------------------------------------------------------


def build(kernel, spec):
    """sum q * e(r + s*t) over the spec, with the kernel's own operations."""
    x = kernel.Scalar.zero()
    for q, r, s in spec:
        x = x + kernel.Scalar.rational(q) * kernel.Scalar.exponential(kernel.ThetaLin(r, s))
    return x


def rep(x):
    return {s: (c.n, tuple(c.coords(c.n))) for s, c in x.terms.items()}


def rep_ref(x):
    return {s: (c.n, tuple(c.c)) for s, c in x.terms.items()}


def assert_same(x, y):
    """A kernel Scalar and a reference Scalar are the same representation."""
    assert rep(x) == rep_ref(y)
    assert x.render() == y.render()


@SETTINGS
@given(specs)
def test_construction(spec):
    x, o = build(new, spec), o_build(spec)
    assert_oracle(x, o)
    assert x.is_zero() == (not o)
    assert x.is_rational() == (not o or (set(o) == {0} and o[0][0] == 1))
    assert x.is_one() == (o == o_rational(1))
    if conductor(o) <= REF_CONDUCTOR:
        xr = build(ref, spec)
        assert_same(x, xr)
        assert x.is_one() == xr.is_one()


@SETTINGS
@given(specs, specs)
def test_ring_operations(a, b):
    x, y, ox, oy = build(new, a), build(new, b), o_build(a), o_build(b)
    diff = o_add(ox, o_neg(oy))
    assert_oracle(x + y, o_add(ox, oy))
    assert_oracle(x - y, diff)
    assert_oracle(x * y, o_mul(ox, oy))
    assert_oracle(y * x, o_mul(oy, ox))
    assert_oracle(-x, o_neg(ox))
    assert_oracle(x.conj(), o_conj(ox))
    assert (x == y) == (not diff)
    if conductor(ox, oy) <= REF_CONDUCTOR:
        xr, yr = build(ref, a), build(ref, b)
        assert_same(x + y, xr + yr)
        assert_same(x - y, xr - yr)
        assert_same(x * y, xr * yr)
        assert_same(y * x, yr * xr)
        assert_same(-x, -xr)
        assert_same(x.conj(), xr.conj())
        assert (x == y) == (xr == yr)


@SETTINGS
@given(specs, rationals)
def test_mixed_with_rationals(a, q):
    x, o = build(new, a), o_build(a)
    assert_oracle(x * q, o_mul(o, o_rational(q)))
    assert_oracle(q * x, o_mul(o, o_rational(q)))
    assert_oracle(x + q, o_add(o, o_rational(q)))
    assert_oracle(q - x, o_add(o_rational(q), o_neg(o)))
    if conductor(o) <= REF_CONDUCTOR:
        xr = build(ref, a)
        assert_same(x * q, xr * q)
        assert_same(q * x, q * xr)
        assert_same(x + q, xr + q)
        assert_same(q - x, q - xr)


@SETTINGS
@given(specs, st.integers(0, 4))
def test_powers(a, k):
    x, o = build(new, a), o_build(a)
    assert_oracle(x**k, o_pow(o, k))
    if conductor(o) <= REF_CONDUCTOR:
        assert_same(x**k, build(ref, a) ** k)


@SETTINGS
@given(unit_specs, st.integers(-3, 4))
def test_unit_powers_and_inverse(a, k):
    x, xr, o = build(new, a), build(ref, a), o_build(a)
    assert_oracle(x.inv(), o_inv(o))
    assert_oracle(x**k, o_pow(o, k))
    assert_same(x.inv(), xr.inv())
    assert_same(x**k, xr**k)
    assert (x * x.inv()).is_one()


@SETTINGS
@given(specs, thetas)
def test_specialize(a, theta):
    x, o = build(new, a), o_build(a)
    expect = o_specialize(o, theta)
    assert_oracle(x.specialize(theta), expect)
    fields = (math.lcm(c[0], (s * theta % 1).denominator) for s, c in o.items())
    if math.lcm(1, *fields) <= REF_CONDUCTOR:
        assert_same(x.specialize(theta), build(ref, a).specialize(theta))


@SETTINGS
@given(specs, specs, thetas)
def test_specialize_is_a_ring_map(a, b, theta):
    x, y = build(new, a), build(new, b)
    sx, sy = x.specialize(theta), y.specialize(theta)
    assert (x + y).specialize(theta) == sx + sy
    assert (x * y).specialize(theta) == sx * sy
    assert x.conj().specialize(theta) == sx.conj()


def cyclo(kernel, spec):
    """sum q * e(r) over the spec, in the kernel's Cyclo."""
    x = kernel.Cyclo.zero()
    for q, r in spec:
        x = x + kernel.Cyclo.rational(q) * kernel.Cyclo.root(r)
    return x


@SETTINGS
@given(cyclo_specs, cyclo_specs)
def test_cyclo_operations(a, b):
    x, y, ox, oy = cyclo(new, a), cyclo(new, b), c_build(a), c_build(b)
    cases = [(x, ox), (x + y, c_add(ox, oy)), (x - y, c_add(ox, c_neg(oy))),
             (x * y, c_mul(ox, oy)), (-x, c_neg(ox)), (x.conj(), c_conj(ox))]
    for u, expect in cases:
        assert_cyclo(u, expect)
    assert (x == y) == is_zero(c_add(ox, c_neg(oy)))
    if not x.is_zero():
        # coordinates at a fixed conductor are unique, so an inverse at x's
        # conductor whose product with x is one is the inverse
        inv = x.inv()
        assert inv.n == x.n
        assert c_mul(ox, c_of(inv))[1] == {0: 1}
        assert x * inv == new.Cyclo.rational(1)
    if math.lcm(x.n, y.n) <= REF_CONDUCTOR:
        xr, yr = cyclo(ref, a), cyclo(ref, b)
        for u, ur in ((x, xr), (x + y, xr + yr), (x - y, xr - yr), (x * y, xr * yr),
                      (-x, -xr), (x.conj(), xr.conj())):
            assert (u.n, tuple(u.coords(u.n))) == (ur.n, tuple(ur.c))
            assert u.render() == ur.render()


@pytest.mark.parametrize("dens", [(3, 4), (5, 8), (7, 9), (5, 12), (4, 3, 11)])
def test_cyclo_inverse_equals_reference(dens):
    # the kernel's inverse against the reference's Euclid inverse itself, at
    # conductors (12 to 132) where the Euclid is quick
    for c in range(-1, 3):
        spec = [(Fraction(c), Fraction(0))] + [
            (Fraction(i + 3 + c, i + 2), Fraction(1, d)) for i, d in enumerate(dens)
        ]
        x, xr = cyclo(new, spec), cyclo(ref, spec)
        assert x.n == xr.n == math.lcm(*dens)
        inv, invr = x.inv(), xr.inv()
        assert (inv.n, tuple(inv.coords(inv.n))) == (invr.n, tuple(invr.c))
        assert inv.render() == invr.render()


@SETTINGS
@given(rationals, rationals, rationals, rationals, st.one_of(st.integers(-3, 3), rationals))
def test_theta_lin(a, b, c, d, q):
    x, y = new.ThetaLin(a, b), new.ThetaLin(c, d)
    xr, yr = ref.ThetaLin(a, b), ref.ThetaLin(c, d)
    for u, ur in ((x + y, xr + yr), (x - y, xr - yr), (-x, -xr), (x * q, xr * q),
                  (q * x, q * xr), (x + q, xr + q)):
        assert (u.const, u.coef) == (ur.const, ur.coef)
        assert type(u.const) is type(ur.const) and type(u.coef) is type(ur.coef)
        assert hash(u) == hash(ur)
        assert_same(new.Scalar.exponential(u), ref.Scalar.exponential(ur))
    assert (x == y) == (xr == yr)


def test_shared_constants_and_identities():
    x = build(new, [(Fraction(2, 3), Fraction(1, 4), Fraction(1))])
    assert new.Scalar.one() is new.ONE
    assert new.Scalar.zero() is new.ZERO
    assert x * new.ONE is x
    assert new.ONE * x is x
    assert (x * new.ZERO).is_zero()
    assert x**1 == x


# ---------------------------------------------------------------------------
# roots of unity by exponent: the table against the general arithmetic
# ---------------------------------------------------------------------------

# conductors 2..60 are tabled; 63 is above the bound and must fall back
ROOT_CONDUCTORS = [*range(2, new.ROOTS_MAX_N + 1), 63]


def general(x):
    """x as an ordinary Cyclo, whose arithmetic takes the general path
    (polynomial products, Galois conjugates, the norm inverse)."""
    return new._cyclo(x.n, x.c, x.d)


def triple(x):
    return x.n, x.c, x.d


def signed_root(n, a, neg):
    x = new.Cyclo.root(Fraction(a, n))
    return -x if neg else x


def test_root_fallback_above_the_bound():
    assert 63 > new.ROOTS_MAX_N
    for a in (1, 2, 62):
        x = new.Cyclo.root(Fraction(a, 63))
        assert type(x) is new.Cyclo
        assert triple(x * x) == triple(general(x) * general(x))
    assert 63 not in new._ROOTS


@pytest.mark.parametrize("n", ROOT_CONDUCTORS)
def test_root_rows(n):
    # every root of every tabled conductor, read by exponent, is the value
    # the general path gives, and so is its negation, conjugate and inverse
    for a in range(2 * n):
        r = Fraction(a, n)
        x = new.Cyclo.root(r)
        assert_cyclo(x, c_root(r))
        for u in (x, -x):
            for fast, slow in ((-u, -general(u)), (u.conj(), general(u).conj()),
                               (u.inv(), general(u).inv())):
                assert triple(fast) == triple(slow)
            one = u * u.inv()
            assert one is new._ONE if type(u) is new._Root else triple(one) == (1, (1,), 1)
    assert (n in new._ROOTS) == (n <= new.ROOTS_MAX_N)


root_products = st.sampled_from(ROOT_CONDUCTORS).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1), st.booleans(), st.integers(0, n - 1), st.booleans()))


@settings(deadline=None, max_examples=300)
@given(root_products)
def test_root_products(spec):
    # products of two signed roots of one conductor by exponent, and of two
    # of different conductors (e(a/n) with gcd(a, n) > 1) by the general path
    n, a, s, b, t = spec
    x, y = signed_root(n, a, s), signed_root(n, b, t)
    assert triple(x * y) == triple(general(x) * general(y))
    assert triple(y * x) == triple(general(y) * general(x))
    o = c_mul(c_root(Fraction(a, n)), c_root(Fraction(b, n)))
    if s != t:
        o = c_neg(o)
    assert_cyclo(x * y, o)
