"""Text grammar for algebra elements.

Expressions support ``+``/``-``, products by juxtaposition or ``*``,
integer powers ``^n`` (negative powers of a generator mean powers of its
adjoint), trailing ``*`` or ``'`` for adjoints (a ``*`` directly attached to
an identifier or closing parenthesis is an adjoint; a spaced ``*`` is a
product), scalar factors ``e(r)`` and ``e(s*t)`` with rational r, s and the
formal parameter ``t``, rational constants, parentheses, and ``(x)`` as the
tensor separator.

Example: ``A1* A1 + B1* B1 - 1`` or ``U (x) A1 + e(-t) * V (x) B1``.

:func:`tokenize` reads a text once; the parser reads its tokens by index.
A run of generator factors is read in one loop, one name lookup per
generator, into one word, and a sum adds its terms to its own accumulator
in place, in time linear in its length.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .freealg import Element, _add_term, same_ambient, tensor
from .scalars import ONE, Scalar, ThetaLin

Frac = Fraction


class ParseError(ValueError):
    """Malformed input.  ``pos`` is the number of tokens :func:`parse` had
    taken when it stopped (0 for an error before parsing)."""

    pos = 0


# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = "+-*^/()'"
_DIGITS = "0123456789"  # not str.isdigit, which also takes '²' and other scripts' digits


def tokenize(text: str) -> list:
    """The tokens of an expression; :func:`parse` takes them in place of the
    text, so that a text tried over several algebras is read once."""
    toks = []  # (kind, value); kinds: IDENT INT SYM ADJ TENSOR
    i = 0
    n = len(text)
    prev_end = -2  # end index of previous token
    while i < n:
        ch = text[i]
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("IDENT", text[i:j]))
            prev_end = i = j
            continue
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(("INT", int(text[i:j])))
            prev_end = i = j
            continue
        if ch == "(" and text.startswith("(x)", i):
            toks.append(("TENSOR", "(x)"))
            prev_end = i = i + 3
            continue
        if ch == "*":
            # only a SYM token has the value ')'
            attached = i == prev_end and toks and (toks[-1][0] in ("IDENT", "ADJ") or toks[-1][1] == ")")
            toks.append(("ADJ" if attached else "SYM", "*"))
        elif ch == "'":
            toks.append(("ADJ", "'"))
        elif ch in _SYMBOLS:
            toks.append(("SYM", ch))
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
        prev_end = i = i + 1
    return toks


# -- parser ------------------------------------------------------------------

_END = (None, None)  # the token after the last one, as errors name it


class _Parser:
    """Recursive descent over ``toks``, a token list that ends in ``_END``.
    Each rule reads the token at ``pos`` by index and takes it by moving
    ``pos`` past it, so ``pos`` is the number of tokens taken.  No rule
    takes ``_END`` without raising, so reads stay inside the list.

    Only a SYM token has the value ``(``, so ``toks[i + 1][1] == "("``
    after an IDENT ``e`` is the test for ``e(``, a scalar and not a
    generator."""

    def __init__(self, toks, algebras, theta, cap):
        self.toks = toks
        self.pos = 0
        self.algebras = algebras
        self.theta = theta
        self.cap = cap

    def expect(self, kind, value=None):
        k, v = self.toks[self.pos]
        self.pos += 1
        if k != kind or (value is not None and v != value):
            raise ParseError(f"expected {value or kind}, got {v!r}")
        return v

    # expr := ['-'] tensterm (('+'|'-') tensterm)*
    def parse_expr(self):
        toks = self.toks
        k, v = toks[self.pos]
        neg = k == "SYM" and v == "-"
        if neg:
            self.pos += 1
        acc = self.parse_tensterm()
        if neg:
            acc = -acc
        own = False  # whether acc is an element made here, which terms are added to in place
        while True:
            k, op = toks[self.pos]
            if k != "SYM" or (op != "+" and op != "-"):
                return acc
            self.pos += 1
            term = self.parse_tensterm()
            _check_combinable(acc, term)
            if isinstance(acc, Element) and isinstance(term, Element):
                # acc + term would copy acc for every term: a sum of n terms
                # would take time quadratic in n
                if not own:
                    acc, own = Element(acc.ambient, acc.t), True
                t = acc.t
                if op == "-":
                    for m, c in term.t.items():
                        _add_term(t, m, -c)
                else:
                    for m, c in term.t.items():
                        _add_term(t, m, c)
            else:
                acc = acc + (-term if op == "-" else term)
                own = isinstance(acc, Element)
            _check_printable_sum(acc, term)

    # tensterm := product ((x) product)*
    def parse_tensterm(self):
        toks = self.toks
        first = self.parse_product()
        if toks[self.pos][0] != "TENSOR":
            return first
        parts = [first]
        while toks[self.pos][0] == "TENSOR":
            self.pos += 1
            parts.append(self.parse_product())
        if len(parts) != len(self.algebras):
            raise ParseError(
                f"{len(parts)} tensor factors for {len(self.algebras)} algebras"
            )
        elems = [
            _as_element(p, alg) for p, alg in zip(parts, self.algebras)
        ]
        return tensor(*elems)

    # product := factor+   ('*' as explicit separator also allowed)
    def parse_product(self):
        toks = self.toks
        acc = None
        while True:
            k, v = toks[self.pos]
            if k == "IDENT":
                if v == "e" and toks[self.pos + 1][1] == "(":
                    f = self.parse_factor()
                else:
                    f = self.parse_word()
            elif k == "INT" or (k == "SYM" and v == "("):
                f = self.parse_factor()
            elif k == "SYM" and v == "*":
                self.pos += 1
                continue
            else:
                break
            if acc is None:
                acc = f
            else:
                _check_combinable(acc, f)
                _check_printable_products(acc, f)
                acc = acc * f
        if acc is None:
            raise ParseError(f"empty product near token {toks[self.pos]!r}")
        return acc

    def parse_word(self):
        """A run of generator factors over one algebra, each with its adjoint
        marks and powers, as one word: a monomial with coefficient 1 (the
        adjoint of a free word has coefficient 1).  Each name is looked up
        once, in the first algebra that has it."""
        toks, i = self.toks, self.pos
        alg, word = None, []
        while True:
            k, v = toks[i]
            if k != "IDENT":
                if k == "SYM" and v == "*":
                    i += 1
                    continue
                break
            if v == "e" and toks[i + 1][1] == "(":
                break
            i += 1
            for f_alg in self.algebras:
                gi = f_alg.index.get(v)
                if gi is not None:
                    break
            else:
                self.pos = i
                raise ParseError(f"unknown generator {v!r}")
            # the factor: its letter (2 * the generator's index), or its word w once powered
            let, w = 2 * gi, None
            while True:
                k, v = toks[i]
                if k == "ADJ":
                    i += 1
                    if w is None:
                        let = f_alg.star_letter[let]
                    else:
                        w = f_alg.star_mono(w)[1]
                elif k == "SYM" and v == "^":
                    self.pos = i + 1
                    p = self.parse_power()
                    i = self.pos
                    if w is None:
                        w = (let,)
                    if p < 0:  # a negative power is a power of the adjoint
                        w, p = f_alg.star_mono(w)[1], -p
                    self._check_power(len(w), p)
                    w = w * p
                else:
                    break
            if alg is None:
                alg = f_alg
            elif f_alg is not alg and not same_ambient(alg, f_alg):
                self.pos = i
                raise ParseError("cannot combine terms over different algebras")
            if w is None:
                word.append(let)
            else:
                word += w
        self.pos = i
        return Element(alg, {tuple(word): ONE})

    def parse_factor(self):
        toks = self.toks
        a = self.parse_atom()
        while True:
            k, v = toks[self.pos]
            if k == "ADJ":
                self.pos += 1
                a = _star(a)
            elif k == "SYM" and v == "^":
                self.pos += 1
                p = self.parse_power()
                if isinstance(a, Element):
                    self._check_power(a.deg(), abs(p))
                a = _power(a, p)
            else:
                return a

    def _check_power(self, deg: int, p: int):
        """Refuse a power of degree above the cap before it is built."""
        if self.cap is not None and deg * p > self.cap:
            raise ParseError(f"power of degree {deg * p} exceeds rewriting cap {self.cap}")

    # power := ['-'] INT, after '^'
    def parse_power(self) -> int:
        k, v = self.toks[self.pos]
        if k == "SYM" and v == "-":
            self.pos += 1
            return -self.expect("INT")
        return self.expect("INT")

    def parse_atom(self):
        toks = self.toks
        k, v = toks[self.pos]
        self.pos += 1
        if k == "INT":
            k, s = toks[self.pos]
            if k == "SYM" and s == "/":
                return Scalar.rational(self.parse_ratio(v))
            return Scalar.rational(v)
        if k == "IDENT":  # only e(...): generators are read by parse_word
            self.pos += 1
            lin = self.parse_exponent()
            self.expect("SYM", ")")
            return self._exp_scalar(lin)
        if k == "SYM" and v == "(":
            e = self.parse_expr()
            self.expect("SYM", ")")
            return e
        raise ParseError(f"unexpected token {v!r}")

    # ratio := INT ['/' INT], the numerator already taken
    def parse_ratio(self, num: int) -> Fraction:
        k, v = self.toks[self.pos]
        if k != "SYM" or v != "/":
            return Frac(num)
        self.pos += 1
        den = self.expect("INT")
        if den == 0:
            raise ParseError(f"zero denominator in {num}/{den}")
        return Frac(num, den)

    # exponent := ['-'] item (('+'|'-') item)*;  item := rat ['*' t] | t
    def parse_exponent(self):
        toks = self.toks
        acc = ThetaLin(0, 0)
        sign = 1
        k, v = toks[self.pos]
        if k == "SYM" and v == "-":
            self.pos += 1
            sign = -1
        while True:
            acc = acc + self.parse_exp_item() * sign
            k, v = toks[self.pos]
            if k == "SYM" and v in "+-":
                self.pos += 1
                sign = 1 if v == "+" else -1
            else:
                return acc

    def parse_exp_item(self):
        toks = self.toks
        k, v = toks[self.pos]
        self.pos += 1
        if k == "IDENT" and v == "t":
            return ThetaLin(0, 1)
        if k == "INT":
            q = self.parse_ratio(v)
            k, s = toks[self.pos]
            if k == "SYM" and s == "*":
                self.pos += 1
                self.expect("IDENT", "t")
                return ThetaLin(0, q)
            return ThetaLin(q, 0)
        raise ParseError(f"bad exponent term {v!r}")

    def _exp_scalar(self, lin: ThetaLin) -> Scalar:
        if self.theta is not None and lin.coef:
            return Scalar.root(lin.const + lin.coef * self.theta)
        return Scalar.exponential(lin)


def _star(x):
    if isinstance(x, Scalar):
        return x.conj()
    return x.star()


def _power(x, p: int):
    if isinstance(x, Scalar):
        if p < 0 and not x.is_unit():
            raise ParseError(f"negative power of the non-invertible scalar {x.render()}")
        _check_printable_power(x, p)
        return x**p
    if p < 0:
        return x.star() ** (-p)
    return x**p


def _check_printable_power(x: Scalar, p: int):
    """Refuse x^p, before it is computed, when a numerator or denominator of
    the result would be longer than ``sys.get_int_max_str_digits()``, so the
    result could not be printed.

    A negative power is the power k = -p of the inverse.  A rational a/b in
    lowest terms gives |a|^k and b^k, whose lengths are exact.  Any other
    x^k gets a lower bound: at every real t, a scalar with m' terms over
    Q(zeta_n) whose printed coordinates are at most H is at most m' * n * H
    in modulus, and x^k has m' <= (k + 1)^(m - 1) terms for the m terms of
    x.  |x| is read at t = 0 and at t = sqrt(2) (:func:`_log10_sizes`)."""
    limit = _digit_limit()
    if not limit:
        return
    k = p
    if k < 0:
        x, k = x.inv(), -k
    if x.is_rational():
        q = x.rational_value()
        digits = k * math.log10(max(abs(q.numerator), q.denominator))
    else:
        m = len(x.terms)
        digits = (k * max(_log10_sizes(x)) - math.log10(_conductor(x))
                  - (m - 1) * math.log10(k + 1))
    if digits >= limit:
        raise ParseError(f"scalar power ^{p} would print a number of more than {limit} digits")


def _check_printable_products(x, y):
    """Refuse the product x * y of two parsed factors (scalars or elements),
    before it is computed, when one of the scalar products it forms could
    not be printed (:func:`_check_printable_product`).  A product with the
    shared ``ONE``, the coefficient of every word a parse reads, is its
    other factor and is passed at once."""
    xs = (x,) if isinstance(x, Scalar) else x.t.values()
    ys = (y,) if isinstance(y, Scalar) else y.t.values()
    for a in xs:
        for b in ys:
            if a is not ONE and b is not ONE:
                _check_printable_product(a, b)


def _check_printable_product(x: Scalar, y: Scalar):
    """Refuse x * y, before it is computed, by the rule of
    :func:`_check_printable_power`.  For rationals a/b and c/d in lowest
    terms the product is (a/g)(c/h) over (b/h)(d/g) with g = gcd(a, d) and
    h = gcd(c, b), whose lengths are exact.  Any other product has at most
    m * m' terms for the m and m' terms of x and y, and |xy| = |x||y|.

    Neither bound can reach the limit when the bits of the largest
    coordinates or denominators of x and y, and the conductor n, satisfy
    (bits(x) + bits(y)) * log10(2) + log10(n) < limit, so such factors are
    passed without reading a size."""
    limit = _digit_limit()
    if not limit or not x.terms or not y.terms:
        return
    n = math.lcm(_conductor(x), _conductor(y))
    if (_bits(x) + _bits(y)) * math.log10(2) + math.log10(n) < limit:
        return
    if n == 1 and x.is_rational() and y.is_rational():
        p, q = x.rational_value(), y.rational_value()
        g, h = math.gcd(p.numerator, q.denominator), math.gcd(q.numerator, p.denominator)
        digits = max(math.log10(abs(p.numerator) // g) + math.log10(abs(q.numerator) // h),
                     math.log10(p.denominator // h) + math.log10(q.denominator // g))
    else:
        size = max(a + b for a, b in zip(_log10_sizes(x), _log10_sizes(y)))
        digits = size - math.log10(n) - math.log10(len(x.terms) * len(y.terms))
    if digits >= limit:
        raise ParseError(f"scalar product would print a number of more than {limit} digits")


def _check_printable_sum(total, y):
    """Refuse the sum ``total`` of the terms a parse has read so far, the
    last of which is y, when a coefficient that y changed prints a numerator
    or denominator longer than ``sys.get_int_max_str_digits()``: the rule of
    :func:`_check_printable_power`.  A sum is formed in time linear in its
    operands, so it is measured exactly, once formed.  A coefficient is read
    only when its bits could reach the limit."""
    limit = _digit_limit()
    if not limit:
        return
    if isinstance(total, Scalar):
        changed = (total,)
    else:
        words = total.ambient.one_terms() if isinstance(y, Scalar) else y.t
        changed = [total.t[m] for m in words if m in total.t]
    for x in changed:
        if not x.terms or _bits(x) * math.log10(2) < limit:
            continue
        for c in x.terms.values():
            for v in c.c:
                g = math.gcd(v, c.d)
                if max(abs(v), c.d) // g >= 10**limit:
                    raise ParseError(
                        f"scalar sum would print a number of more than {limit} digits")


def _digit_limit() -> int:
    """Python's limit on the digits of a printed int; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _bits(x: Scalar) -> int:
    """The bit length of the largest coordinate or denominator of x."""
    return max(v.bit_length() for c in x.terms.values() for v in (c.d, *c.c))


def _conductor(x: Scalar) -> int:
    """The lcm of the conductors of the coefficients of x."""
    return math.lcm(*(c.n for c in x.terms.values()))


def _log10_sizes(x: Scalar) -> list:
    """log10 |x(t)| at t = 0 and at t = sqrt(2), where no nonzero scalar
    vanishes (e(sqrt(2)/d) is transcendental); -inf where the float sum
    reads 0, and at sqrt(2) where an exponent of e(s*t) is too large for a
    float.  x is first divided by a power of 2 that brings every coordinate
    into float range, and the sizes are corrected for it."""
    bits = max(v.bit_length() - c.d.bit_length() for c in x.terms.values() for v in c.c)
    shift = max(0, bits - 1000)
    if shift:
        x = x * Scalar.rational(Frac(1, 1 << shift))
    sizes = [abs(sum(c.numeric() for c in x.terms.values()))]  # every e(s*0) is 1
    try:
        sizes.append(abs(x.numeric(2**0.5)))
    except OverflowError:
        sizes.append(0.0)
    return [math.log10(size) + shift * math.log10(2) if size else -math.inf for size in sizes]


def _check_combinable(x, y):
    """Two elements can be added or multiplied only over one algebra, so a
    tensor term does not combine with a plain one."""
    if isinstance(x, Element) and isinstance(y, Element) and not same_ambient(x.ambient, y.ambient):
        raise ParseError("cannot combine terms over different algebras")


def _as_element(x, alg) -> Element:
    if isinstance(x, Scalar):
        return Element.unit(alg) * x
    if not same_ambient(x.ambient, alg):  # a nested tensor, or a factor out of place
        raise ParseError("a tensor factor does not lie in the algebra of its position")
    return x


def parse(text: str | list, algebras, theta: Fraction | None = None, cap: int | None = None):
    """Parse an expression over one or more algebras.

    ``text`` is the expression or its :func:`tokenize` list.  ``algebras``
    is a single free algebra or a list (tensor factors, in order).  With
    ``theta`` set, occurrences of the formal parameter inside e(..) are
    specialised to the given rational.  With ``cap`` set, a power whose
    degree exceeds it (``U^9`` or ``(U V)^5`` at cap 8) is a ParseError,
    raised before the power is built.  Returns an Element, or a Scalar for
    purely scalar expressions.
    """
    if not isinstance(algebras, (list, tuple)):
        algebras = [algebras]
    toks = tokenize(text) if isinstance(text, str) else text
    p = _Parser([*toks, _END], list(algebras), theta, cap)
    try:
        out = p.parse_expr()
        if p.pos != len(toks):
            raise ParseError(f"trailing input at token {p.toks[p.pos]!r}")
    except ParseError as exc:
        exc.pos = p.pos
        raise
    return out


def parse_element(text: str | list, algebras, theta: Fraction | None = None,
                  cap: int | None = None) -> Element:
    out = parse(text, algebras, theta, cap)
    if isinstance(out, Scalar):
        algs = algebras if isinstance(algebras, (list, tuple)) else [algebras]
        if len(algs) > 1:
            return tensor(*[Element.unit(a) for a in algs]) * out
        return Element.unit(algs[0]) * out
    return out
