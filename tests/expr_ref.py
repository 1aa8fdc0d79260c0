"""Frozen reference copy of the token-by-token parser (test-only).

``tests/test_expr_ref.py`` checks :func:`qiso.expr.parse` against
:func:`parse` here.  Do not edit it to match the package: it is the fixed
point the index-reading parser is checked against.

It freezes ``tokenize``, ``_Parser`` and ``parse`` as ``qiso.expr`` had
them before the parser read its tokens by index: every token is read by a
``peek()`` and taken by a ``take()``, ``e(`` is tested by slicing the token
list, a run's adjoint marks go through ``star_mono``, and a sum copies its
accumulated element for each term (``acc + term``).  The checks it calls
(the power cap, the size budget, the algebra checks) and
``ParseError`` are shared with the package.
"""

from __future__ import annotations

from fractions import Fraction

from qiso.expr import (
    ParseError,
    _as_element,
    _check_combinable,
    _check_sum,
    _power,
    _product,
    _star,
)
from qiso.freealg import Element, same_ambient, tensor
from qiso.scalars import Scalar, ThetaLin

Frac = Fraction


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
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(x)", i):
            toks.append(("TENSOR", "(x)"))
            prev_end = i + 3
            i += 3
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("IDENT", text[i:j]))
            prev_end = j
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(("INT", int(text[i:j])))
            prev_end = j
            i = j
            continue
        if ch == "*":
            attached = (
                i == prev_end
                and toks
                and (toks[-1][0] in ("IDENT", "ADJ") or toks[-1] == ("SYM", ")"))
            )
            toks.append(("ADJ" if attached else "SYM", "*"))
            prev_end = i + 1
            i += 1
            continue
        if ch == "'":
            toks.append(("ADJ", "'"))
            prev_end = i + 1
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append(("SYM", ch))
            prev_end = i + 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    return toks


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, toks, algebras, theta, cap):
        self.toks = toks
        self.pos = 0
        self.algebras = algebras
        self.theta = theta
        self.cap = cap

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        k, v = self.take()
        if k != kind or (value is not None and v != value):
            raise ParseError(f"expected {value or kind}, got {v!r}")
        return v

    # expr := ['-'] tensterm (('+'|'-') tensterm)*
    def parse_expr(self):
        neg = False
        if self.peek() == ("SYM", "-"):
            self.take()
            neg = True
        acc = self.parse_tensterm()
        if neg:
            acc = -acc
        while self.peek() in (("SYM", "+"), ("SYM", "-")):
            _, op = self.take()
            term = self.parse_tensterm()
            _check_combinable(acc, term)
            acc = acc + (-term if op == "-" else term)
            _check_sum(acc, term)
        return acc

    # tensterm := product ((x) product)*
    def parse_tensterm(self):
        parts = [self.parse_product()]
        while self.peek()[0] == "TENSOR":
            self.take()
            parts.append(self.parse_product())
        if len(parts) == 1:
            return parts[0]
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
        acc = None
        while True:
            k, v = self.peek()
            if k == "SYM" and v == "*":
                self.take()
                continue
            if k == "IDENT" and not self._at_call():
                f = self.parse_word()
            elif k in ("IDENT", "INT") or (k == "SYM" and v == "("):
                f = self.parse_factor()
            else:
                break
            if acc is None:
                acc = f
            else:
                _check_combinable(acc, f)
                acc = _product(acc, f)
        if acc is None:
            raise ParseError(f"empty product near token {self.peek()!r}")
        return acc

    def _at_call(self):
        """Whether the next tokens are ``e(``, a scalar and not a generator."""
        return self.toks[self.pos : self.pos + 2] == [("IDENT", "e"), ("SYM", "(")]

    def parse_word(self):
        """A run of generator factors over one algebra, each with its adjoint
        marks and powers, as one word: a monomial with coefficient 1 (the
        adjoint of a free word has coefficient 1)."""
        alg, word = None, ()
        while True:
            k, v = self.peek()
            if k == "SYM" and v == "*":
                self.take()
                continue
            if k != "IDENT" or self._at_call():
                return Element(alg, {word: Scalar.one()})
            self.take()
            f_alg = self._algebra_of(v)
            w = (f_alg.letter(v),)
            while True:
                k, v = self.peek()
                if k == "ADJ":
                    self.take()
                    w = f_alg.star_mono(w)[1]
                elif k == "SYM" and v == "^":
                    self.take()
                    p = self.parse_power()
                    if p < 0:  # a negative power is a power of the adjoint
                        w, p = f_alg.star_mono(w)[1], -p
                    self._check_power(len(w), p)
                    w = w * p
                else:
                    break
            if alg is None:
                alg = f_alg
            elif f_alg is not alg and not same_ambient(alg, f_alg):
                raise ParseError("cannot combine terms over different algebras")
            word += w

    def parse_factor(self):
        a = self.parse_atom()
        while True:
            k, v = self.peek()
            if k == "ADJ":
                self.take()
                a = _star(a)
            elif k == "SYM" and v == "^":
                self.take()
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
        sign = 1
        if self.peek() == ("SYM", "-"):
            self.take()
            sign = -1
        return self.expect("INT") * sign

    def _algebra_of(self, name):
        for alg in self.algebras:
            if name in alg.index:
                return alg
        raise ParseError(f"unknown generator {name!r}")

    def parse_atom(self):
        k, v = self.take()
        if k == "INT":
            return Scalar.rational(self.parse_ratio(v))
        if k == "IDENT":  # only e(...): generators are read by parse_word
            self.take()
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
        if self.peek() != ("SYM", "/"):
            return Frac(num)
        self.take()
        den = self.expect("INT")
        if den == 0:
            raise ParseError(f"zero denominator in {num}/{den}")
        return Frac(num, den)

    # exponent := ['-'] item (('+'|'-') item)*;  item := rat ['*' t] | t
    def parse_exponent(self):
        acc = ThetaLin(0, 0)
        sign = 1
        if self.peek() == ("SYM", "-"):
            self.take()
            sign = -1
        while True:
            acc = acc + self.parse_exp_item() * sign
            k, v = self.peek()
            if k == "SYM" and v in "+-":
                self.take()
                sign = 1 if v == "+" else -1
            else:
                return acc

    def parse_exp_item(self):
        k, v = self.take()
        if k == "IDENT" and v == "t":
            return ThetaLin(0, 1)
        if k == "INT":
            q = self.parse_ratio(v)
            if self.peek() == ("SYM", "*"):
                self.take()
                self.expect("IDENT", "t")
                return ThetaLin(0, q)
            return ThetaLin(q, 0)
        raise ParseError(f"bad exponent term {v!r}")

    def _exp_scalar(self, lin: ThetaLin) -> Scalar:
        if self.theta is not None and lin.coef:
            return Scalar.root(lin.const + lin.coef * self.theta)
        return Scalar.exponential(lin)


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
    p = _Parser(tokenize(text) if isinstance(text, str) else text, list(algebras), theta, cap)
    try:
        out = p.parse_expr()
        if p.pos != len(p.toks):
            raise ParseError(f"trailing input at token {p.peek()!r}")
    except ParseError as exc:
        exc.pos = p.pos
        raise
    return out
