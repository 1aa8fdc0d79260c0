"""Ring and *-algebra laws of the scalar kernel, on the kernel alone.

Elements are sums of up to three rational multiples of roots of unity whose
orders divide 2520, so every operation stays in Q(zeta_m) for some m | 2520
(phi(2520) = 576).  ``test_laws_at_conductor_27720`` adds one case at the
largest conductor the differential strategies reach.  Every comparison is
exact.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qiso.scalars import ONE, Cyclo, Scalar, ThetaLin

SETTINGS = settings(deadline=None, max_examples=60)

ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 35, 72, 315, 840, 2520]  # lcms reach 2520 often
rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 7]))
roots = st.sampled_from(ORDERS).flatmap(
    lambda n: st.builds(Fraction, st.integers(0, n - 1), st.just(n))
)
cyclos = st.lists(st.tuples(rationals, roots), max_size=3).map(
    lambda spec: sum((Cyclo.rational(q) * Cyclo.root(r) for q, r in spec), Cyclo.zero())
)
exponents = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
scalars = st.lists(st.tuples(cyclos, exponents), max_size=3).map(
    lambda spec: sum((Scalar({0: c}) * Scalar.phase(s) for c, s in spec), Scalar.zero())
)
thetas = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 5, 7, 9]))


def assert_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x - x == Cyclo.zero()


def assert_star_laws(x, y):
    assert x.conj().conj() == x
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


def assert_inverse(x):
    if not x.is_zero():
        inv = x.inv()
        assert inv.n == x.n
        assert x * inv == Cyclo.rational(1)


def assert_lowest_form(x):
    # rebuilt from its exact coordinates, x has the same form, so == is a
    # tuple compare at one conductor
    y = Cyclo(x.n, x.coords(x.n))
    assert (y.n, y.c, y.d) == (x.n, x.c, x.d)
    assert x.d > 0


@SETTINGS
@given(cyclos, cyclos, cyclos)
def test_cyclo_ring_laws(x, y, z):
    assert_ring_laws(x, y, z)
    for u in (x, x * y, x + y * z, x.conj()):
        assert_lowest_form(u)


@SETTINGS
@given(cyclos, cyclos)
def test_conj_is_an_involutive_ring_map(x, y):
    assert_star_laws(x, y)


@SETTINGS
@given(cyclos)
def test_inverse(x):
    assert_inverse(x)


@SETTINGS
@given(scalars, scalars, scalars)
def test_scalar_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()


@SETTINGS
@given(scalars, scalars, thetas)
def test_specialize_is_a_ring_map(x, y, theta):
    sx, sy = x.specialize(theta), y.specialize(theta)
    assert (x + y).specialize(theta) == sx + sy
    assert (x * y).specialize(theta) == sx * sy
    assert x.conj().specialize(theta) == sx.conj()


@given(exponents, exponents)
def test_exponent_keys(s, u):
    # integral exponents are ints, others Fractions; both hash as rationals
    x = Scalar.exponential(ThetaLin(0, s)) * Scalar.phase(u)
    ((key, _),) = x.terms.items()
    assert key == s + u and hash(key) == hash(s + u)
    assert type(key) is (int if (s + u).denominator == 1 else Fraction)


def test_laws_at_conductor_27720():
    # 27720 = lcm(5, 7, 8, 9, 11): the largest conductor of a product of two
    # random sums in tests/test_scalars_diff.py
    x = Cyclo.root(Fraction(1, 8)) + Cyclo.rational(3) * Cyclo.root(Fraction(2, 9))
    x = x + Cyclo.root(Fraction(1, 35))
    y = Cyclo.root(Fraction(5, 11)) - Cyclo.rational(Fraction(1, 2)) * Cyclo.root(Fraction(1, 12))
    z = Cyclo.rational(2) + Cyclo.root(Fraction(3, 7))
    assert (x.n, (x * y).n) == (2520, 27720)
    assert_ring_laws(x, y, z)
    assert_star_laws(x, y)
    assert_lowest_form(x * y)
    assert_inverse(x)
    X, Y = Scalar({0: x}) * Scalar.phase(1), Scalar({0: y}) * Scalar.phase(Fraction(-1, 2))
    theta = Fraction(2, 3)
    assert (X * Y).specialize(theta) == X.specialize(theta) * Y.specialize(theta)
    assert (X + Y).specialize(theta) == X.specialize(theta) + Y.specialize(theta)


def _e(r):
    return Scalar.root(Fraction(r))


# 1 and -1 built without being ONE: by conjugation, as products of rationals,
# of phases e(s*t), and of roots of unity at conductors 3 and 6
UNITS = [
    ONE.conj(),
    Scalar.rational(2) * Scalar.rational(Fraction(1, 2)),
    Scalar.phase(1) * Scalar.phase(-1),
    Scalar.phase(Fraction(2, 3)) * Scalar.exponential(ThetaLin(0, Fraction(-2, 3))),
    _e(Fraction(1, 3)) * _e(Fraction(2, 3)),
    _e(Fraction(1, 6)) * _e(Fraction(5, 6)),
]
MINUS_UNITS = [
    (-ONE).conj(),
    Scalar.rational(-2) * Scalar.rational(Fraction(1, 2)),
    Scalar.phase(1) * -Scalar.phase(-1),
    Scalar.exponential(ThetaLin(Fraction(1, 2), 1)) * Scalar.phase(-1),
    _e(Fraction(1, 3)) * _e(Fraction(1, 6)),
    _e(Fraction(1, 6)) * _e(Fraction(1, 3)) * ONE.conj(),
]


def test_units_are_not_the_shared_constant():
    for u in UNITS:
        assert u is not ONE and u == 1
    for m in MINUS_UNITS:
        assert m is not ONE and m == -1


def _no_zero_term(x):
    return all(not c.is_zero() for c in x.terms.values())


@SETTINGS
@given(scalars, st.sampled_from(UNITS))
def test_product_with_one_by_value(x, u):
    assert x * u == x and u * x == x
    assert _no_zero_term(x * u) and _no_zero_term(u * x)


@SETTINGS
@given(scalars, st.sampled_from(MINUS_UNITS))
def test_product_with_minus_one_by_value(x, m):
    assert x * m == -x and m * x == -x
    assert (x * m).render() == (-x).render()
    assert _no_zero_term(x * m) and _no_zero_term(m * x)


@SETTINGS
@given(scalars, scalars)
def test_products_hold_no_zero_term(x, y):
    assert _no_zero_term(x * y)
    assert _no_zero_term(x * y * ONE.conj())
