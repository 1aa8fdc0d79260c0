"""Frozen reference copy of the original scalar kernel (test-only).

``tests/test_scalars_diff.py`` compares :mod:`qiso.scalars` against this
module on random inputs.  Do not edit it to match the package: it is the
fixed point the fast paths are checked against.  (Its ``Scalar.render``
follows the output format, which changed once: a constant ending in ')' is
now spaced from its phase, 'e(1/3) * e(t)', so that the text parses back.)

Exact scalar arithmetic for the verification kernel.

Scalars are finite sums  sum_s  c_s * e(s*t)  where t is a formal deformation
parameter, s runs over rationals, e(x) = exp(2*pi*i*x), and each coefficient
c_s lies in a cyclotomic field Q(zeta_N).  Because the exponentials e(s*t) for
distinct s are linearly independent over every cyclotomic field (t formal),
the zero test is exact: a scalar is zero iff every cyclotomic coefficient is.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

Frac = Fraction

# ---------------------------------------------------------------------------
# cyclotomic fields Q(zeta_n), represented in the power basis mod Phi_n
# ---------------------------------------------------------------------------


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (lists, low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(v == 0 for v in num)
    return out


_PHI_CACHE: dict[int, list[int]] = {1: [-1, 1]}


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n not in _PHI_CACHE:
        num = [0] * (n + 1)
        num[0], num[n] = -1, 1
        den = [1]
        for d in range(1, n):
            if n % d == 0:
                phi_d = cyclotomic_poly(d)
                new = [0] * (len(den) + len(phi_d) - 1)
                for i, a in enumerate(den):
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
                den = new
        _PHI_CACHE[n] = _poly_divmod_int(num, den)
    return _PHI_CACHE[n]


class _Field:
    """Reduction tables for one conductor n."""

    __slots__ = ("n", "deg", "pows")

    def __init__(self, n: int):
        phi = cyclotomic_poly(n)
        self.n = n
        self.deg = len(phi) - 1
        d = self.deg
        # pows[k] = power basis coordinates of zeta^k, k up to max needed
        top = [Frac(-c) for c in phi[:d]]  # zeta^d
        pows = [[Frac(0)] * d for _ in range(max(n, 2 * d - 1))]
        for k in range(len(pows)):
            if k < d:
                pows[k][k] = Frac(1)
            else:
                prev = pows[k - 1]
                cur = [Frac(0)] + list(prev[: d - 1])
                lead = prev[d - 1]
                if lead:
                    for i in range(d):
                        cur[i] += lead * top[i]
                pows[k] = cur
        self.pows = [tuple(p) for p in pows]


_FIELDS: dict[int, _Field] = {}


def _field(n: int) -> _Field:
    if n not in _FIELDS:
        _FIELDS[n] = _Field(n)
    return _FIELDS[n]


class Cyclo:
    """An element of Q(zeta_n) in the power basis mod Phi_n."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: tuple):
        self.n = n
        self.c = c
        self._shrink()

    def _shrink(self):
        if self.n > 1 and all(v == 0 for v in self.c[1:]):
            self.c = (self.c[0],)
            self.n = 1

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, (Frac(0),))

    @staticmethod
    def rational(q) -> "Cyclo":
        return Cyclo(1, (Frac(q),))

    @staticmethod
    def root(r: Fraction) -> "Cyclo":
        """e(r) for rational r, as a root of unity."""
        r = Frac(r) % 1
        n = r.denominator
        f = _field(n)
        return Cyclo(n, f.pows[r.numerator % n])

    # -- helpers -----------------------------------------------------------
    def _to(self, m: int) -> tuple:
        """Coordinates in Q(zeta_m), n | m."""
        if self.n == m:
            return self.c
        f = _field(m)
        step = m // self.n
        out = [Frac(0)] * f.deg
        for k, v in enumerate(self.c):
            if v:
                p = f.pows[k * step]
                for i in range(f.deg):
                    out[i] += v * p[i]
        return tuple(out)

    def _lcm(self, other: "Cyclo") -> int:
        return self.n * other.n // gcd(self.n, other.n)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Cyclo") -> "Cyclo":
        m = self._lcm(other)
        a, b = self._to(m), other._to(m)
        return Cyclo(m, tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.n, tuple(-x for x in self.c))

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + (-other)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        m = self._lcm(other)
        f = _field(m)
        a, b = self._to(m), other._to(m)
        d = f.deg
        conv = [Frac(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = [Frac(0)] * d
        for k, v in enumerate(conv):
            if v:
                p = f.pows[k]
                for i in range(d):
                    out[i] += v * p[i]
        return Cyclo(m, tuple(out))

    def conj(self) -> "Cyclo":
        f = _field(self.n)
        d = f.deg
        out = [Frac(0)] * d
        for k, v in enumerate(self.c):
            if v:
                p = f.pows[(self.n - k) % self.n]
                for i in range(d):
                    out[i] += v * p[i]
        return Cyclo(self.n, tuple(out))

    def inv(self) -> "Cyclo":
        """Field inverse via extended Euclid mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.n == 1:
            return Cyclo(1, (1 / self.c[0],))
        phi = [Frac(v) for v in cyclotomic_poly(self.n)]
        a = list(self.c)
        while a and a[-1] == 0:
            a.pop()
        # extended euclid: s*a + t*phi = gcd (constant)
        r0, r1 = phi, a
        s0, s1 = [Frac(0)], [Frac(1)]
        while len(r1) > 1 or (len(r1) == 1 and False):
            if len(r1) == 1:
                break
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            while r1 and r1[-1] == 0:
                r1.pop()
            if not r1:
                raise ZeroDivisionError("non-invertible cyclotomic element")
        g = r1[0]
        inv = [v / g for v in s1]
        f = _field(self.n)
        out = [Frac(0)] * f.deg
        for k, v in enumerate(inv):
            if v:
                p = f.pows[k]
                for i in range(f.deg):
                    out[i] += v * p[i]
        return Cyclo(self.n, tuple(out))

    # -- predicates / output ------------------------------------------------
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.c)

    def is_rational(self) -> bool:
        return all(v == 0 for v in self.c[1:])

    def rational_value(self) -> Fraction:
        assert self.is_rational()
        return self.c[0]

    def numeric(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(float(v) * z**k for k, v in enumerate(self.c) if v)

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Cyclo is unhashable")

    def render(self) -> str:
        parts = []
        for k, v in enumerate(self.c):
            if v == 0:
                continue
            if k == 0:
                parts.append(str(v))
            else:
                root = f"e({Frac(k, self.n)})"
                if v == 1:
                    parts.append(root)
                elif v == -1:
                    parts.append(f"-{root}")
                else:
                    parts.append(f"{v}*{root}")
        return join_signed(parts)

    def __repr__(self):
        return f"Cyclo({self.render()})"


def _poly_divmod_frac(num, den):
    num = list(num)
    dn = len(den) - 1
    q = [Frac(0)] * max(len(num) - dn, 1)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn] / den[dn]
        q[i] = c
        for j in range(dn + 1):
            num[i + j] -= c * den[j]
    return q, num[:dn]


def _poly_mul(a, b):
    out = [Frac(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Frac(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


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
        return ThetaLin(self.const + o.const, self.coef + o.coef)

    __radd__ = __add__

    def __neg__(self):
        return ThetaLin(-self.const, -self.coef)

    def __sub__(self, o):
        return self + (-(o if isinstance(o, ThetaLin) else ThetaLin(o)))

    def __mul__(self, q):
        q = Frac(q)
        return ThetaLin(self.const * q, self.coef * q)

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


# ---------------------------------------------------------------------------
# the scalar ring
# ---------------------------------------------------------------------------


class Scalar:
    """Exact scalar: finitely many terms  c_s * e(s*t), c_s cyclotomic."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for s, c in terms.items():
                if not c.is_zero():
                    self.terms[Frac(s)] = c

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({Frac(0): Cyclo.rational(1)})

    @staticmethod
    def rational(q) -> "Scalar":
        return Scalar({Frac(0): Cyclo.rational(q)})

    @staticmethod
    def root(r) -> "Scalar":
        """e(r) for rational r."""
        return Scalar({Frac(0): Cyclo.root(Frac(r))})

    @staticmethod
    def phase(s) -> "Scalar":
        """e(s*t): the s-th power of the fundamental deformation phase."""
        return Scalar({Frac(s): Cyclo.rational(1)})

    @staticmethod
    def exponential(x: ThetaLin) -> "Scalar":
        """e(const + coef*t) as an exact scalar."""
        return Scalar({x.coef: Cyclo.root(x.const)})

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
        res = Scalar.__new__(Scalar)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Scalar.__new__(Scalar)
        res.terms = {s: -c for s, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        out: dict = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                s = s1 + s2
                c = c1 * c2
                if s in out:
                    r = out[s] + c
                    if r.is_zero():
                        del out[s]
                    else:
                        out[s] = r
                elif not c.is_zero():
                    out[s] = c
        res = Scalar.__new__(Scalar)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = Scalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Scalar":
        res = Scalar.__new__(Scalar)
        res.terms = {-s: c.conj() for s, c in self.terms.items()}
        return res

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def inv(self) -> "Scalar":
        if not self.is_unit():
            raise ZeroDivisionError(f"not an invertible scalar: {self.render()}")
        ((s, c),) = self.terms.items()
        return Scalar({-s: c.inv()})

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (self - Scalar.one()).is_zero()

    def is_rational(self) -> bool:
        if not self.terms:
            return True
        if set(self.terms) != {Frac(0)}:
            return False
        return self.terms[Frac(0)].is_rational()

    def rational_value(self) -> Fraction:
        if self.is_zero():
            return Frac(0)
        return self.terms[Frac(0)].rational_value()

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Scalar is unhashable")

    # -- specialisation / numerics -------------------------------------------
    def specialize(self, theta: Fraction) -> "Scalar":
        """Substitute a rational value for the formal parameter t."""
        theta = Frac(theta)
        acc = Cyclo.zero()
        for s, c in self.terms.items():
            acc = acc + c * Cyclo.root(s * theta)
        return Scalar({Frac(0): acc})

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
        parts = []
        for s in sorted(self.terms):
            c = self.terms[s]
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


ZERO = Scalar.zero()
ONE = Scalar.one()


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
