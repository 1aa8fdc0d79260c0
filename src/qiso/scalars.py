"""Exact scalar arithmetic for the verification kernel.

Scalars are finite sums  sum_s  c_s * e(s*t)  where t is a formal deformation
parameter, s runs over rationals, e(x) = exp(2*pi*i*x), and each coefficient
c_s lies in a cyclotomic field Q(zeta_N).  Because the exponentials e(s*t) for
distinct s are linearly independent over every cyclotomic field (t formal),
the zero test is exact: a scalar is zero iff every cyclotomic coefficient is.

A ``Cyclo`` holds integer coordinates in the power basis mod Phi_n over one
positive common denominator, in lowest terms (the gcd of the denominator and
every coordinate is 1).  So a value has one form at each conductor, and ``==``
at one conductor is a tuple compare.  The result of an operation has the lcm
of its operands' conductors, and only a rational result moves to n = 1.
Rationals (conductor 1) are combined on two ints, with a gcd only when a
denominator is not 1.  Other products and embeddings multiply over the nonzero
coordinates and reduce once by the sparse tail of Phi_m, and the inverse
multiplies by Galois conjugates until the product is the rational norm.
``Cyclo.coords`` reads exact ``Fraction`` coordinates.

Roots of unity are read by exponent.  The N = lcm(2, n) roots inside
Q(zeta_n) of a conductor n <= ``ROOTS_MAX_N`` form one shared row, built on
first use, of values in the form above (the irrational ones tagged with
their exponent k).  ``Cyclo.root`` returns a row's value, every irrational
result equal to a tabled root is that shared value, and a product of two
roots of one conductor is the root at (a + b) mod N, a negation at
k + N/2, and a conjugate or an inverse at -k mod N: no polynomial product
and no norm.  The values, and so every render, are those the general
arithmetic gives.  Roots of larger conductors are ordinary values.

``Scalar`` exponent keys are ``int`` when integral and ``Fraction`` otherwise,
so they hash and compare as the same rationals at the cost of an int.

``Cyclo`` and ``Scalar`` values are immutable: operations may return one of
their operands or a shared constant, so no code may mutate ``.c`` or
``.terms``.  A product with a factor equal to 1 or -1 (``ONE`` or any other
form of it) returns the other factor or its negation, and a product or power
of one-term scalars builds a single term without the general merge loop.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import islice
from math import gcd, prod

Frac = Fraction

# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_n), represented in the power basis mod Phi_n
# ---------------------------------------------------------------------------


def _primes(k: int) -> list:
    """The prime factors of k, ascending."""
    out, p = [], 2
    while k > 1:
        if p * p > k:
            p = k
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return out


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and for squarefree r it
    is the product of (x^d - 1)^mu(r/d) over the divisors d of r: each factor
    is one sparse multiplication or exact division."""
    primes = _primes(n)
    r = prod(primes)
    if r < n:
        base, k = cyclotomic_poly(r), n // r
        phi = [0] * ((len(base) - 1) * k + 1)
        phi[::k] = base
        return phi
    up, down = [], []
    for mask in range(1 << len(primes)):
        sub = prod(p for i, p in enumerate(primes) if mask >> i & 1)
        (down if bin(mask).count("1") % 2 else up).append(n // sub)
    phi = [1]
    for d in up:  # times x^d - 1
        new = [0] * (len(phi) + d)
        for i, v in enumerate(phi):
            new[i] -= v
            new[i + d] += v
        phi = new
    for d in down:  # over x^d - 1: phi[i] = q[i - d] - q[i]
        q = [0] * (len(phi) - d)
        for i in range(len(q)):
            q[i] = (q[i - d] if i >= d else 0) - phi[i]
        phi = q
    return phi


_TAILS: dict[int, tuple] = {}


def _phi_tail(n: int) -> tuple:
    """deg Phi_n and the nonzero (j, c) of Phi_n below its leading term."""
    t = _TAILS.get(n)
    if t is None:
        phi = cyclotomic_poly(n)
        t = _TAILS[n] = (len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c))
    return t


def _reduce(n: int, p: list) -> list:
    """The integer coordinates of  sum p[k] zeta_n^k, in p (which it
    overwrites): fold with zeta^n = 1, then divide by the monic Phi_n."""
    d, tail = _phi_tail(n)
    for k in range(n, len(p)):
        if p[k]:
            p[k % n] += p[k]
    del p[n:]
    for k in range(len(p) - 1, d - 1, -1):
        v = p[k]
        if v:
            base = k - d
            for j, c in tail:
                p[base + j] -= v * c
    del p[d:]
    p.extend([0] * (d - len(p)))
    return p


def _mul(n: int, a, b, sa: int = 1, sb: int = 1) -> list:
    """Integer coordinates of  a(zeta_n^sa) * b(zeta_n^sb): one sparse
    convolution over the nonzero coordinates, reduced once."""
    bs = [(j * sb, y) for j, y in enumerate(b) if y]
    p = [0] * ((len(a) - 1) * sa + bs[-1][0] + 1)
    for i, x in enumerate(a):
        if x:
            i *= sa
            for j, y in bs:
                p[i + j] += x * y
    return _reduce(n, p)


def _embed(c, n: int, m: int) -> list:
    """Integer coordinates c of Q(zeta_n) as coordinates of Q(zeta_m), n | m."""
    if n == m:
        return list(c)
    step = m // n
    p = [0] * ((len(c) - 1) * step + 1)
    p[::step] = c
    return _reduce(m, p)


def _galois(n: int, c, g: int) -> list:
    """The automorphism zeta_n -> zeta_n^g on integer coordinates."""
    p = [0] * n
    for k, v in enumerate(c):
        if v:
            p[k * g % n] = v
    return _reduce(n, p)


_GENS: dict[int, list] = {}


def _unit_gens(n: int) -> list:
    """Pairs (g, h): units g mod n of order h whose cyclic groups multiply
    to (Z/n)^*, one or two per prime power q of n, lifted from Z/q by CRT."""
    gens = _GENS.get(n)
    if gens is None:
        gens = _GENS[n] = []
        for p in _primes(n):
            q = p
            while n % (q * p) == 0:
                q *= p
            if p == 2:  # -1 and 5 generate (Z/2^e)^*
                local = ([(q - 1, 2)] if q > 2 else []) + ([(5, q // 4)] if q > 4 else [])
            else:  # cyclic: the least primitive root
                h, rs = q // p * (p - 1), _primes(q // p * (p - 1))
                g = next(g for g in range(2, q) if g % p and all(pow(g, h // r, q) != 1 for r in rs))
                local = [(g, h)]
            rest = n // q
            gens += [(1 + rest * ((g - 1) * pow(rest, -1, q) % q), h) for g, h in local]
    return gens


class Cyclo:
    """An element of Q(zeta_n): sum c[k] zeta_n^k / d in the power basis mod
    Phi_n, with integers c[k] and d > 0 in lowest terms.

    Rational values always have n == 1, so the conductor-1 fast paths below
    see every rational operand, and every value with n > 1 is irrational.
    """

    __slots__ = ("n", "c", "d")

    def __init__(self, n: int, c):
        """sum c[k] zeta_n^k for rationals c[k], any k >= 0."""
        c = [Frac(v) for v in c] or [Frac(0)]
        d = 1
        for v in c:
            d = d * v.denominator // gcd(d, v.denominator)
        x = _make(n, _reduce(n, [v.numerator * (d // v.denominator) for v in c]), d)
        self.n, self.c, self.d = x.n, x.c, x.d

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Cyclo":
        return _ZERO

    @staticmethod
    def rational(q) -> "Cyclo":
        if q.__class__ is int:
            return _cyclo(1, (q,), 1)
        q = Frac(q)
        return _cyclo(1, (q.numerator,), q.denominator)

    @staticmethod
    def root(r) -> "Cyclo":
        """e(r) for rational r, as a root of unity."""
        if r.__class__ is not Frac:
            r = Frac(r)
        n = r.denominator
        if n == 1:
            return _ONE
        if n <= ROOTS_MAX_N:
            row = _roots(n)
            # zeta_n^a is zeta_N^a, or zeta_2n^2a when n is odd
            return row[r.numerator * len(row) // n % len(row)]
        return _make(n, _reduce(n, [0] * (r.numerator % n) + [1]), 1)

    # -- coordinates ---------------------------------------------------------
    def coords(self, m: int) -> tuple:
        """Exact ``Fraction`` coordinates in the power basis of Q(zeta_m), n | m."""
        if m % self.n:
            raise ValueError(f"Q(zeta_{self.n}) is not inside Q(zeta_{m})")
        d = self.d
        return tuple(Frac(v, d) for v in _embed(self.c, self.n, m))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Cyclo") -> "Cyclo":
        n, m = self.n, other.n
        a, b = self.d, other.d
        if n == 1 and m == 1:
            if a == 1 and b == 1:
                return _cyclo(1, (self.c[0] + other.c[0],), 1)
            return _rat(self.c[0] * b + other.c[0] * a, a * b)
        if n == m:
            x, y = self.c, other.c
        else:
            k = n * m // gcd(n, m)
            x, y, n = _embed(self.c, n, k), _embed(other.c, m, k), k
        if a == b:
            return _make(n, [u + v for u, v in zip(x, y)], a)
        g = gcd(a, b)
        a, b = a // g, b // g
        return _make(n, [u * b + v * a for u, v in zip(x, y)], a * b * g)

    def __neg__(self) -> "Cyclo":
        if self.n == 1:
            return _cyclo(1, (-self.c[0],), self.d)
        if self.__class__ is _Root:
            return _root_neg(self)
        return _cyclo(self.n, tuple(-v for v in self.c), self.d)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        n, m = self.n, other.n
        if n == 1:
            if m == 1:
                a, b = self.d, other.d
                if a == 1 and b == 1:
                    return _cyclo(1, (self.c[0] * other.c[0],), 1)
                return _rat(self.c[0] * other.c[0], a * b)
            return _scale(other, self.c[0], self.d)
        if m == 1:
            return _scale(self, other.c[0], other.d)
        if n == m and self.__class__ is _Root and other.__class__ is _Root:
            row = _ROOTS[n]
            return row[(self.k + other.k) % len(row)]
        k = n * m // gcd(n, m)
        return _make(k, _mul(k, self.c, other.c, k // n, k // m), self.d * other.d)

    def __radd__(self, other):
        # Cyclo meets only Cyclo.  These reflected stubs keep a mixed
        # operation with a _Root (a subclass) from looking them up in vain.
        return NotImplemented

    __rsub__ = __rmul__ = __radd__

    def conj(self) -> "Cyclo":
        # zeta -> zeta^-1 maps Z[zeta] onto itself, so the form stays lowest
        if self.n == 1:
            return self
        if self.__class__ is _Root:  # a root's conjugate is its inverse
            return self.inv()
        return _cyclo(self.n, tuple(_galois(self.n, self.c, self.n - 1)), self.d)

    def inv(self) -> "Cyclo":
        """Field inverse (Cohen, GTM 138, section 4.3).  Multiplying x by its
        conjugates under one cyclic factor of Gal(Q(zeta_n)/Q) = (Z/n)^* after
        another ends in the rational norm N(x); the conjugates multiplied in,
        over N(x), are 1/x.  A tabled root is inverted by its exponent."""
        n = self.n
        if n == 1:
            if not self.c[0]:
                raise ZeroDivisionError("inverse of zero cyclotomic")
            return _rat(self.d, self.c[0])
        if self.__class__ is _Root:
            row = _ROOTS[n]
            return row[-self.k % len(row)]
        y, cof = self.c, None
        for g, h in _unit_gens(n):
            z = part = _galois(n, y, g)
            for _ in range(h - 2):
                z = _galois(n, z, g)
                part = _mul(n, part, z)
            y = _mul(n, y, part)
            cof = part if cof is None else _mul(n, cof, part)
        norm = y[0]
        if any(islice(y, 1, None)):
            raise ArithmeticError(f"norm of {self.render()} is not rational")
        if norm < 0:
            norm, cof = -norm, [-v for v in cof]
        return _lowest(n, [v * self.d for v in cof], norm)

    # -- predicates / output ------------------------------------------------
    def is_zero(self) -> bool:
        return self.n == 1 and not self.c[0]

    def is_rational(self) -> bool:
        return self.n == 1

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"not a rational: {self.render()}")
        return Frac(self.c[0], self.d)

    def numeric(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        d = self.d
        return sum(v / d * z**k for k, v in enumerate(self.c) if v)

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        n, m = self.n, other.n
        if n == m:
            return self.d == other.d and self.c == other.c
        if n == 1 or m == 1:  # rational against irrational
            return False
        k = n * m // gcd(n, m)
        return self.d == other.d and _embed(self.c, n, k) == _embed(other.c, m, k)

    def __hash__(self):
        raise TypeError("Cyclo is unhashable")

    def render(self) -> str:
        parts = []
        d = self.d
        for k, v in enumerate(self.c):
            if v == 0:
                continue
            if k == 0:
                parts.append(_ratio(v, d))
            else:
                root = f"e({_ratio(k, self.n)})"
                if v == d:
                    parts.append(root)
                elif v == -d:
                    parts.append(f"-{root}")
                else:
                    parts.append(f"{_ratio(v, d)}*{root}")
        return join_signed(parts)

    def __repr__(self):
        return f"Cyclo({self.render()})"


def _ratio(a: int, b: int) -> str:
    """The rational a/b (b > 0) as ``str(Fraction(a, b))`` prints it."""
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    return str(a) if b == 1 else f"{a}/{b}"


def _cyclo(n: int, c: tuple, d: int) -> Cyclo:
    """A Cyclo on coordinates already in lowest terms, taken as is."""
    x = object.__new__(Cyclo)
    x.n = n
    x.c = c
    x.d = d
    return x


def _rat(a: int, b: int) -> Cyclo:
    """The rational a/b, b != 0."""
    if b != 1:
        if b < 0:
            a, b = -a, -b
        g = gcd(a, b)
        if g != 1:
            a, b = a // g, b // g
    return _cyclo(1, (a,), b)


def _lowest(n: int, p: list, d: int) -> Cyclo:
    """The irrational sum p[k] zeta_n^k / d (integers, d > 0) in lowest terms;
    a root of unity of a tabled conductor is the table's shared value."""
    if d != 1:
        g = gcd(d, *p)
        if g != 1:
            p = [v // g for v in p]
            d //= g
    c = tuple(p)
    if d == 1:
        x = _ROOT_AT.get((n, c))
        if x is not None:
            return x
    return _cyclo(n, c, d)


def _make(n: int, p: list, d: int) -> Cyclo:
    """sum p[k] zeta_n^k / d for reduced integer coordinates p and d > 0; a
    rational value moves to n = 1."""
    if not any(islice(p, 1, None)):
        return _rat(p[0], d)
    return _lowest(n, p, d)


def _scale(x: Cyclo, a: int, b: int) -> Cyclo:
    """The rational a/b (lowest terms, b > 0) times the irrational x."""
    if not a:
        return _ZERO
    if b == 1:
        if a == 1:
            return x
        if x.__class__ is _Root and a == -1:
            return _root_neg(x)
        if x.d == 1:  # in lowest terms, and a root only if x is one and a = -1
            return _cyclo(x.n, tuple([a * v for v in x.c]), 1)
    return _lowest(x.n, [a * v for v in x.c], b * x.d)


def _cyclo_pow(x: Cyclo, k: int) -> Cyclo:
    """x**k for k >= 1, by repeated squaring."""
    if x.n == 1:
        return _cyclo(1, (x.c[0] ** k,), x.d**k)
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


_ZERO = _cyclo(1, (0,), 1)
_ONE = _cyclo(1, (1,), 1)


# ---------------------------------------------------------------------------
# roots of unity by exponent
# ---------------------------------------------------------------------------

#: The largest conductor whose roots of unity are tabled.  The table holds
#: one row of N = lcm(2, n) values for each conductor n <= ROOTS_MAX_N that
#: has been used, so at most 2728 values in all, whatever is computed; a
#: root of a larger conductor is an ordinary Cyclo.  A row holds only the
#: values the general arithmetic gives, so filling one changes no result.
ROOTS_MAX_N = 60

_ROOTS: dict[int, list] = {}  # conductor n -> [zeta_N^k for k in range(N)]
_ROOT_AT: dict[tuple, "_Root"] = {}  # (n, coordinates) -> the irrational roots in _ROOTS


class _Root(Cyclo):
    """The irrational root of unity zeta_N^k (N = lcm(2, n)) in the form the
    general arithmetic gives at conductor n, with its exponent k.  Products,
    negations, conjugates and inverses of roots of one conductor are read
    from that conductor's row by exponent."""

    __slots__ = ("k",)


def _roots(n: int) -> list:
    """The row of conductor n (1 < n <= ROOTS_MAX_N), built on first use.  The
    rationals 1 and -1 (k = 0 and k = N/2) are ordinary conductor-1 values."""
    row = _ROOTS.get(n)
    if row is None:
        row, N = [], n if n % 2 == 0 else 2 * n
        for k in range(N):
            # for odd n, zeta_2n^k is zeta_n^(k/2) for even k and
            # -zeta_n^((k+n)/2) for odd k
            if n % 2 == 0 or k % 2 == 0:
                p = [0] * (k * n // N) + [1]
            else:
                p = [0] * ((k + n) // 2) + [-1]
            x = _make(n, _reduce(n, p), 1)
            if x.n != 1:
                c, x = x.c, object.__new__(_Root)
                x.n, x.c, x.d, x.k = n, c, 1, k
                _ROOT_AT[n, c] = x
            row.append(x)
        row[0] = _ONE
        _ROOTS[n] = row
    return row


def _root_neg(x: _Root) -> Cyclo:
    """-x for a tabled root x: zeta_N^(k + N/2)."""
    row = _ROOTS[x.n]
    N = len(row)
    return row[(x.k + N // 2) % N]



# ---------------------------------------------------------------------------
# linear exponents  r + s*t  (used by deformation matrices)
# ---------------------------------------------------------------------------


class ThetaLin:
    """A quantity of the form  const + coef*t  with rational entries.

    These appear as exponents of e(.) and as entries of deformation
    matrices whose entries are rational multiples of the parameter.
    """

    __slots__ = ("const", "coef")

    def __init__(self, const=0, coef=0):
        self.const = Frac(const)
        self.coef = Frac(coef)

    def __add__(self, o):
        o = o if isinstance(o, ThetaLin) else ThetaLin(o)
        a, b = o.const, o.coef
        return _lin(self.const + a if a else self.const, self.coef + b if b else self.coef)

    __radd__ = __add__

    def __neg__(self):
        return _lin(-self.const, -self.coef)

    def __sub__(self, o):
        return self + (-(o if isinstance(o, ThetaLin) else ThetaLin(o)))

    def __mul__(self, q):
        if q.__class__ is not int:
            q = Frac(q)
        a, b = self.const, self.coef
        return _lin(a * q if a else a, b * q if b else b)

    __rmul__ = __mul__

    def __eq__(self, o):
        o = o if isinstance(o, ThetaLin) else ThetaLin(o)
        return self.const == o.const and self.coef == o.coef

    def __hash__(self):
        return hash((self.const, self.coef))

    def numeric(self, theta: float) -> float:
        return float(self.const) + float(self.coef) * theta

    def __repr__(self):
        return f"ThetaLin({self.const}, {self.coef}*t)"


def _lin(const: Fraction, coef: Fraction) -> ThetaLin:
    """A ThetaLin on two Fractions, taken as is."""
    x = object.__new__(ThetaLin)
    x.const = const
    x.coef = coef
    return x



# ---------------------------------------------------------------------------
# the scalar ring
# ---------------------------------------------------------------------------


def _key(s) -> int | Fraction:
    """The exponent key of the rational s: an int when s is integral."""
    if s.__class__ is int:
        return s
    s = Frac(s)
    return s.numerator if s.denominator == 1 else s


class Scalar:
    """Exact scalar: finitely many terms  c_s * e(s*t), c_s cyclotomic."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for s, c in terms.items():
                if not c.is_zero():
                    self.terms[_key(s)] = c

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return ZERO

    @staticmethod
    def one() -> "Scalar":
        return ONE

    @staticmethod
    def rational(q) -> "Scalar":
        c = Cyclo.rational(q)
        return _scalar({0: c}) if c.c[0] else ZERO

    @staticmethod
    def root(r) -> "Scalar":
        """e(r) for rational r."""
        return _scalar({0: Cyclo.root(r)})

    @staticmethod
    def phase(s) -> "Scalar":
        """e(s*t): the s-th power of the fundamental deformation phase."""
        return _scalar({_key(s): _ONE})

    @staticmethod
    def exponential(x: ThetaLin) -> "Scalar":
        """e(const + coef*t) as an exact scalar."""
        return _scalar({_key(x.coef): Cyclo.root(x.const)})

    @staticmethod
    def coerce(v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar.rational(v)
        raise TypeError(f"cannot coerce {v!r} to Scalar")

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for s, c in other.terms.items():
            if s in out:
                r = out[s] + c
                if r.is_zero():
                    del out[s]
                else:
                    out[s] = r
            else:
                out[s] = c
        return _scalar(out)

    __radd__ = __add__

    def __neg__(self):
        return _scalar({s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, (Scalar, int, Fraction)):
                return NotImplemented
            other = Scalar.coerce(other)
        if other is ONE:
            return self
        if self is ONE:
            return other
        t1, t2 = self.terms, other.terms
        # a factor equal to 1 or -1 gives the other factor or its negation,
        # which are the terms the general product would build
        if len(t2) == 1:
            ((s2, c2),) = t2.items()
            if not s2 and c2.n == 1 and c2.d == 1:
                v = c2.c[0]
                if v == 1:
                    return self
                if v == -1:
                    return -self
            if len(t1) == 1:
                ((s1, c1),) = t1.items()
                # nonzero field elements have a nonzero product: no zero test
                if not s1:
                    if c1.n == 1 and c1.d == 1:
                        v = c1.c[0]
                        if v == 1:
                            return other
                        if v == -1:
                            return -other
                    return _scalar({s2: c1 * c2})
                if not s2:
                    return _scalar({s1: c1 * c2})
                s = s1 + s2
                if s.__class__ is not int and s.denominator == 1:
                    s = s.numerator
                return _scalar({s: c1 * c2})
        elif len(t1) == 1:
            ((s1, c1),) = t1.items()
            if not s1 and c1.n == 1 and c1.d == 1:
                v = c1.c[0]
                if v == 1:
                    return other
                if v == -1:
                    return -other
        out: dict = {}
        for s1, c1 in t1.items():
            for s2, c2 in t2.items():
                s = s1 + s2
                if s.__class__ is not int and s.denominator == 1:
                    s = s.numerator
                c = c1 * c2
                if s in out:
                    r = out[s] + c
                    if r.is_zero():
                        del out[s]
                    else:
                        out[s] = r
                else:
                    out[s] = c
        return _scalar(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        if k == 0 or self is ONE:
            return ONE
        if len(self.terms) == 1:
            ((s, c),) = self.terms.items()
            return _scalar({_key(k * s): _cyclo_pow(c, k)})
        out, base = ONE, self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def conj(self) -> "Scalar":
        return _scalar({-s: c.conj() for s, c in self.terms.items()})

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def inv(self) -> "Scalar":
        if not self.is_unit():
            raise ZeroDivisionError(f"not an invertible scalar: {self.render()}")
        ((s, c),) = self.terms.items()
        return _scalar({-s: c.inv()})

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and 0 in t and t[0].n == 1)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self.render()}")
        return self.terms[0].rational_value() if self.terms else Frac(0)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        t1, t2 = self.terms, other.terms
        if len(t1) != len(t2):
            return False
        for s, c in t1.items():
            d = t2.get(s)
            if d is None or not c == d:
                return False
        return True

    def __hash__(self):
        raise TypeError("Scalar is unhashable")

    # -- specialisation / numerics -------------------------------------------
    def specialize(self, theta: Fraction) -> "Scalar":
        """Substitute a rational value for the formal parameter t."""
        theta = Frac(theta)
        acc = _ZERO
        for s, c in self.terms.items():
            acc = acc + c * Cyclo.root(s * theta)
        return ZERO if acc.is_zero() else _scalar({0: acc})

    def numeric(self, theta: float | None = None) -> complex:
        tot = 0j
        for s, c in self.terms.items():
            if s != 0 and theta is None:
                raise ValueError("numeric value needs a parameter value")
            w = cmath.exp(2j * cmath.pi * float(s) * theta) if s else 1.0
            tot += c.numeric() * w
        return tot

    # -- output ---------------------------------------------------------------
    def render(self) -> str:
        if not self.terms:
            return "0"
        terms = self.terms
        parts = []
        for s in sorted(terms) if len(terms) > 1 else terms:
            c = terms[s]
            cs = c.render()
            if s == 0:
                parts.append(cs)
                continue
            ph = "e(t)" if s == 1 else ("e(-t)" if s == -1 else f"e({s}*t)")
            if cs == "1":
                parts.append(ph)
            elif cs == "-1":
                parts.append(f"-{ph}")
            else:
                if " + " in cs or " - " in cs:
                    cs = f"({cs})"
                # a '*' attached to ')' reads as an adjoint in qiso.expr
                parts.append(f"{cs} * {ph}" if cs.endswith(")") else f"{cs}*{ph}")
        return join_signed(parts)

    def __repr__(self):
        return f"Scalar({self.render()})"


def _scalar(terms: dict) -> Scalar:
    """A Scalar on a dict of nonzero terms, taken as is (no copy, no checks)."""
    x = object.__new__(Scalar)
    x.terms = terms
    return x


ZERO = _scalar({})
ONE = _scalar({0: _ONE})


def join_signed(parts) -> str:
    """Join rendered terms with ' + ' / ' - ', folding leading minus signs."""
    out = ""
    for p in parts:
        neg = p.startswith("-")
        body = p[1:] if neg else p
        if not out:
            out = ("-" + body) if neg else body
        else:
            out += (" - " if neg else " + ") + body
    return out or "0"
