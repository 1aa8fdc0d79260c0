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

One size budget holds every product, tensor product, power and sum a parse
forms.  Integer bounds on its operands' exact sizes refuse it before it is
computed when it could hold a number of more than ``_NUMBER_BITS`` bits or
more than ``_TOTAL_SIZE`` letters and coefficient bits in all (stage 1); a
sum is refused before the term whose size takes its terms' sizes over
``_TOTAL_SIZE``.  Once computed, a product, tensor product, power or sum is
refused when it prints a number of more than ``sys.get_int_max_str_digits()``
digits (stage 2).  Each refusal is a ParseError "<operation> exceeds the
size budget: <limit>".
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from math import gcd, lcm

from .freealg import Element, _add_term, same_ambient, tensor
from .scalars import ONE, Cyclo, Scalar, ThetaLin


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
        size = None  # the sizes of the terms added so far, from the second term on
        while True:
            k, op = toks[self.pos]
            if k != "SYM" or (op != "+" and op != "-"):
                return acc
            self.pos += 1
            term = self.parse_tensterm()
            _check_combinable(acc, term)
            size = (_size(acc) if size is None else size) + _size(term)
            if size > _TOTAL_SIZE:
                _refuse("sum", _TOTAL_LIMIT)
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
            _check_sum(acc, term)

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
        functools.reduce(functools.partial(_bound_product, "tensor product"), map(_sizes, elems))
        return _printable("tensor product", tensor(*elems))

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
                acc = _product(acc, f)
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
                        w = f_alg.star_mono(w)[1]
                    self._check_power(len(w), abs(p))
                    _bound(f"power ^{p}", 1, len(word) + len(w) * abs(p), 1, 1)
                    w = w * abs(p)
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
            return Fraction(num)
        self.pos += 1
        den = self.expect("INT")
        if den == 0:
            raise ParseError(f"zero denominator in {num}/{den}")
        return Fraction(num, den)

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
    """x^p; for p < 0, the power -p of a scalar's inverse or an element's adjoint.
    Stage 1 bounds k-fold products of terms reduced once, so the bound does not
    compound per squaring; a root of unity (an algebraic integer times its
    conjugate is 1) stays a root."""
    if p < 0 and isinstance(x, Scalar) and not x.is_unit():
        raise ParseError(f"negative power of the non-invertible scalar {x.render()}")
    if p < 0:
        x = x.inv() if isinstance(x, Scalar) else x.star()
    k, (t, w, d, _, s, n) = abs(p), _sizes(x)
    v = x if isinstance(x, Scalar) else next(iter(x.t.values()), ONE)
    if t == 1 and d == 1 and v * v.conj() == ONE:
        terms, l = 1, _root_norm(n)
    elif (max(d, s).bit_length() - 1) * k >= _NUMBER_BITS:  # refused uncomputed; t <= s
        _refuse(f"power ^{p}", f"a number of more than {_NUMBER_BITS} bits")
    else:
        terms, d, l = t**k, d**k, s**k * _root_norm(n)
    if isinstance(x, Scalar) and t:  # squared last: a term per pair of terms of x^h, h = ceil(k/2)
        h, m, lo = (k + 1) // 2, lcm(*[Fraction(e).denominator for e in x.terms]), min(x.terms)
        steps = [int((e - lo) * m) for e in x.terms]  # x^h has h * span + 1 exponents at most
        terms = min(t**h, h * max(steps) // (gcd(*steps) or 1) + 1) ** 2
    _bound(f"power ^{p}", terms, k * w, d, l)
    return _printable(f"power ^{p}", x**k)


def _product(x, y):
    """x * y.  A scalar times a word (coefficient ONE) only sets its coefficient."""
    e = y if isinstance(x, Scalar) else x
    if isinstance(x, Scalar) is not isinstance(y, Scalar) and len(e.t) == 1 and ONE in e.t.values():
        return x * y
    _bound_product("product", _sizes(x), _sizes(y))
    return _printable("product", x * y)


def _bound_product(op: str, a: tuple, b: tuple) -> tuple:
    """Stage 1 on op, a product of operands of sizes a and b (as :func:`_sizes`
    gives them), and the sizes that bound the product.  It counts a term per
    pair of terms, at most min(ta, tb) pairs in one, each a sum of roots of
    unity reduced once (or scaled by a rational)."""
    ta, wa, da, la, _, na = a
    tb, wb, db, lb, _, nb = b
    r = 1 if (ta == 1 and na == 1) or (tb == 1 and nb == 1) else _root_norm(lcm(na, nb))
    t, l = ta * tb, min(ta, tb) * la * lb * r
    _bound(op, t, wa + wb, da * db, l)
    return t, wa + wb, da * db, l, t * l, lcm(na, nb)


def _check_sum(total, y):
    """Stage 2 on the coefficients of the sum ``total`` that its last term y changed."""
    if isinstance(total, Element):
        words = total.ambient.one_terms() if isinstance(y, Scalar) else y.t
        total = [total.t[m] for m in words if m in total.t]
    _printable("sum", total)


# -- size budget ---------------------------------------------------------------

_NUMBER_BITS = 30_000  # about twice the 4300 digits Python prints by default
_TOTAL_SIZE = 1 << 21  # letters and coefficient bits over all terms
_TOTAL_LIMIT = f"more than {_TOTAL_SIZE} letters and coefficient bits"
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # Python's print limit; 0: none


def _refuse(op: str, limit: str):
    raise ParseError(f"{op} exceeds the size budget: {limit}")


def _bound(op: str, terms: int, letters: int, d: int, l: int):
    """Stage 1: refuse op if a result of ``terms`` terms of ``letters`` letters, with
    coordinates of l1 norm l over a denominator d, would be over the budget."""
    if max(d, l).bit_length() > _NUMBER_BITS:
        _refuse(op, f"a number of more than {_NUMBER_BITS} bits")
    if terms * (letters + d.bit_length() + l.bit_length()) > _TOTAL_SIZE:
        _refuse(op, _TOTAL_LIMIT)


def _printable(op: str, x):
    """Stage 2: x, the result of op (a scalar, an element or scalars), unless it prints
    a numerator or denominator of more than L digits, so of more than 3L bits."""
    limit = _digit_limit()
    for v in (x,) if isinstance(x, Scalar) else x.t.values() if isinstance(x, Element) else x:
        for c in v.terms.values():
            for a in c.c:
                m = max(abs(a), c.d)
                if limit and m.bit_length() > 3 * limit and m // gcd(a, c.d) >= 10**limit:
                    _refuse(op, f"a number of more than {limit} digits")
    return x


def _sizes(x) -> tuple:
    """The terms of x (one per word and exponent of e(s*t)), its most letters
    in a word, the lcm D of its coefficients' denominators, the largest and
    total l1 norm of their integer coordinates over D, and their conductors' lcm."""
    vals, w = ([x], 0) if isinstance(x, Scalar) else (x.t.values(), x.deg())
    cs = [c for v in vals for c in v.terms.values()]
    d = lcm(*[c.d for c in cs])
    norms = [sum(map(abs, c.c)) * (d // c.d) for c in cs]
    return len(cs), w, d, max(norms, default=0), sum(norms), lcm(*[c.n for c in cs])


def _size(x) -> int:
    """The letters and coefficient bits of x's terms, one term per word and
    exponent of e(s*t), as stage 1 counts them: its word's letters and the
    bits of its coordinates' denominator and l1 norm."""
    terms, deg = (x.t.items(), x.ambient.deg) if isinstance(x, Element) else ((((), x),), len)
    size = 0
    for m, c in terms:
        w = deg(m)
        for z in c.terms.values():
            size += w + z.d.bit_length() + sum(map(abs, z.c)).bit_length()
    return size


@functools.cache
def _root_norm(n: int) -> int:
    """R(n), the largest l1 norm of a root of unity's coordinates mod Phi_k, k | n:
    roots summed with integer coefficients of l1 norm L reduce to at most L * R(n).
    Exact up to n = 210 (60 ms); above, 2^n + 1 bounds it (|Phi_k|_1 <= 2^phi(k))."""
    if n > 210:
        return (1 << n) + 1
    return max(sum(map(abs, Cyclo(k, [0] * j + [1]).c))
               for k in range(1, n + 1) if n % k == 0 for j in range(k))


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
    raised before the power is built; so is anything over the size budget
    (``(1+e(t))^3000``, ``A1^3000000``).  Returns an Element, or a Scalar
    for purely scalar expressions.
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
