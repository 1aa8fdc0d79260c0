"""Differential tests: the scalar kernel against its frozen reference.

``scalars_ref`` is a copy of the original kernel, before the conductor-1 and
one-term fast paths.  Every operation is run in both kernels on the same random
sums of  q * e(r + s*t)  (q, s rational; r with denominator up to 12, so
constants of conductor up to 12 and their products) and must give the same
representation: the same exponents, conductors and coordinates, and so a
byte-identical ``render``.  ``ThetaLin`` exponents are compared the same way.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import scalars_ref as ref
from qiso import scalars as new

SETTINGS = settings(deadline=None, max_examples=60)

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


def build(kernel, spec):
    """sum q * e(r + s*t) over the spec, with the kernel's own operations."""
    x = kernel.Scalar.zero()
    for q, r, s in spec:
        x = x + kernel.Scalar.rational(q) * kernel.Scalar.exponential(kernel.ThetaLin(r, s))
    return x


def both(spec):
    return build(new, spec), build(ref, spec)


def rep(x):
    return {s: (c.n, tuple(c.c)) for s, c in x.terms.items()}


def assert_same(x, y):
    assert rep(x) == rep(y)
    assert x.render() == y.render()


@SETTINGS
@given(specs)
def test_construction(spec):
    x, xr = both(spec)
    assert_same(x, xr)
    assert x.is_zero() == xr.is_zero()
    assert x.is_rational() == xr.is_rational()
    assert x.is_one() == xr.is_one()


@SETTINGS
@given(specs, specs)
def test_ring_operations(a, b):
    (x, xr), (y, yr) = both(a), both(b)
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
    x, xr = both(a)
    assert_same(x * q, xr * q)
    assert_same(q * x, q * xr)
    assert_same(x + q, xr + q)
    assert_same(q - x, q - xr)


@SETTINGS
@given(specs, st.integers(0, 4))
def test_powers(a, k):
    x, xr = both(a)
    assert_same(x**k, xr**k)


@SETTINGS
@given(unit_specs, st.integers(-3, 4))
def test_unit_powers_and_inverse(a, k):
    x, xr = both(a)
    assert_same(x.inv(), xr.inv())
    assert_same(x**k, xr**k)
    assert (x * x.inv()).is_one()


@SETTINGS
@given(specs, thetas)
def test_specialize(a, theta):
    x, xr = both(a)
    assert_same(x.specialize(theta), xr.specialize(theta))


@SETTINGS
@given(specs, specs, thetas)
def test_specialize_is_a_ring_map(a, b, theta):
    x, y = build(new, a), build(new, b)
    sx, sy = x.specialize(theta), y.specialize(theta)
    assert (x + y).specialize(theta) == sx + sy
    assert (x * y).specialize(theta) == sx * sy
    assert x.conj().specialize(theta) == sx.conj()


@SETTINGS
@given(st.lists(st.tuples(rationals, roots), max_size=3),
       st.lists(st.tuples(rationals, roots), max_size=3))
def test_cyclo_operations(a, b):
    def cyc(kernel, spec):
        x = kernel.Cyclo.zero()
        for q, r in spec:
            x = x + kernel.Cyclo.rational(q) * kernel.Cyclo.root(r)
        return x

    x, xr, y, yr = cyc(new, a), cyc(ref, a), cyc(new, b), cyc(ref, b)
    for u, ur in ((x, xr), (x + y, xr + yr), (x - y, xr - yr), (x * y, xr * yr),
                  (-x, -xr), (x.conj(), xr.conj())):
        assert (u.n, tuple(u.c)) == (ur.n, tuple(ur.c))
        assert u.render() == ur.render()
        assert u.is_zero() == ur.is_zero()
        assert u.is_rational() == ur.is_rational()
    if not x.is_zero():
        inv, invr = x.inv(), xr.inv()
        assert (inv.n, tuple(inv.c)) == (invr.n, tuple(invr.c))


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
