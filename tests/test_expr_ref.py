"""The parser against its frozen token-by-token reference.

``expr_ref`` reads every token through ``peek()``/``take()``, tests for
``e(`` by slicing the token list, takes a letter's adjoint from
``star_mono`` and copies the accumulated element for each term of a sum.
:func:`qiso.expr.parse` reads its tokens by index, takes a letter's adjoint
from the algebra's letter table and adds the terms of a sum in place.  On
every text, both must give the same terms in the same insertion order with
the same rendered coefficients, over the same algebra, or raise the same
exception type with the same text and the same token position ``pos``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_ref
from qiso import catalog
from qiso.expr import parse, tokenize
from qiso.freealg import Element, FreeAlgebra, TensorAlgebra
from qiso.scalars import Scalar

THETAS = [None, Fraction(1, 3)]
CAPS = [None, 4]


def _ambient(amb, algebras):
    """The ambient as positions in ``algebras``, compared by identity."""
    if isinstance(amb, TensorAlgebra):
        return tuple(_ambient(f, algebras) for f in amb.factors)
    return next((i for i, alg in enumerate(algebras) if alg is amb), None)


def _outcome(read, text, algebras, theta, cap):
    try:
        got = read(text, algebras, theta, cap)
    except Exception as exc:  # compared by type, message and token position
        return type(exc), str(exc), getattr(exc, "pos", None)
    if isinstance(got, list):  # tokens
        return got
    if isinstance(got, Scalar):
        return "scalar", [(s, c.render()) for s, c in got.terms.items()]
    return _ambient(got.ambient, algebras), [(m, c.render()) for m, c in got.t.items()]


def assert_same(text, algebras, theta=None, cap=None):
    """The same outcome from both parsers, on ``text`` (a string or a token
    list), and on a string's tokens."""
    want = _outcome(expr_ref.parse, text, algebras, theta, cap)
    assert _outcome(parse, text, algebras, theta, cap) == want, text
    if isinstance(text, str):
        assert _outcome(lambda t, *a: tokenize(t), text, None, None, None) == _outcome(
            lambda t, *a: expr_ref.tokenize(t), text, None, None, None), text
        if not isinstance(want[0], type):
            assert _outcome(parse, tokenize(text), algebras, theta, cap) == want, text


def _shared():
    """Two algebras that both have U: a name is looked up in the first
    algebra that has it, whichever algebra the run began in."""
    return [FreeAlgebra(["U", "X"]), FreeAlgebra(["V", "U"], selfadjoint={"V"})]


_BUILT = {}


def _algebra_lists(theta):
    """Each scenario's parse algebras, alone and as a two-factor list, and
    the pair that shares a name."""
    if theta not in _BUILT:
        lists = []
        for sc in catalog.build_all(sorted(catalog.BUILDERS), theta):
            algs = sc.parse_algebras
            lists += [[alg] for alg in algs] + [algs[:2]]
        _BUILT[theta] = lists + [_shared()]
    return _BUILT[theta]


# -- drawn texts --------------------------------------------------------------

_EXPONENTS = ["t", "-t", "1/3", "-1/2", "2*t", "1/2 + t", "-1/3*t + 1/4", "t - 1", "0"]
_SCALARS = ["0", "1", "2", "3", "1/2", "-2/3", "4/6"]
_MARKS = ["", "", "*", "'", "**", "*'"]
_POWERS = ["", "", "", "^0", "^1", "^2", "^-1", "^-2", "^2^2", "^-1^2", "^3", "^5"]
# a parenthesized sum has few powers, so that its products stay small
_PAREN_POWERS = ["", "", "^0", "^2", "^-1", "^2^1"]
_UNKNOWN = ["Z9", "e", "t", "W", "_q"]
# syntax errors: tokens dropped, or inserted from this list, and characters
# inserted into the text (no digit, which could lengthen a power)
_NOISE_TOKENS = [("SYM", s) for s in "+-*^/()"] + [
    ("ADJ", "*"), ("ADJ", "'"), ("TENSOR", "(x)"), ("INT", 2), ("IDENT", "e"), ("IDENT", "U")]
_NOISE_CHARS = ["+", "-", "*", "^", "'", "(", ")", "/", "(x)", "e(", "U", " ", "²", "é", "#"]


@st.composite
def _run(draw, names):
    """A run of generator factors, each with its marks and powers."""
    factors = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(_MARKS), st.sampled_from(_POWERS)),
        min_size=1, max_size=4))
    sep = draw(st.sampled_from([" ", " ", " * ", ""]))
    return sep.join("".join(f) for f in factors)


@st.composite
def _factor(draw, names, nested):
    kind = draw(st.sampled_from(["run", "run", "scalar", "exp"] + ["paren"] * nested))
    if kind == "run":
        return draw(_run(names))
    if kind == "scalar":
        return draw(st.sampled_from(_SCALARS)) + draw(st.sampled_from(["", "", "^2", "^-1"]))
    if kind == "exp":
        return f"e({draw(st.sampled_from(_EXPONENTS))})" + draw(st.sampled_from(["", "*", "^2", "^-1"]))
    inner = draw(_expr(names, False, [names]))
    return f"({inner})" + draw(st.sampled_from(_MARKS)) + draw(st.sampled_from(_PAREN_POWERS))


@st.composite
def _product(draw, names, nested):
    factors = draw(st.lists(_factor(names, nested), min_size=1, max_size=3))
    return draw(st.sampled_from([" ", " * "])).join(factors)


@st.composite
def _expr(draw, names, nested, factor_names):
    """A sum of products; parenthesized sums only when ``nested``.  With two
    or more ``factor_names`` (the names of each tensor factor), a term may be
    a tensor of products, the k-th over the k-th factor's names."""
    terms = []
    n = len(factor_names)
    for _ in range(draw(st.integers(1, 3))):
        if n > 1 and draw(st.booleans()):
            # one product per algebra, or a wrong number of them
            count = draw(st.sampled_from([n, n, n + 1]))
            terms.append(" (x) ".join(draw(_product(factor_names[k % n], nested)) for k in range(count)))
        else:
            terms.append(draw(_product(names, nested)))
    lead = draw(st.sampled_from(["", "", "-"]))
    return lead + "".join(t + draw(st.sampled_from([" + ", " - ", "+", "-"])) for t in terms[:-1]) + terms[-1]


@st.composite
def _texts(draw, algebras):
    """A text over the algebras' names, or sometimes its token list, with
    names no algebra has and syntax errors."""
    names = sorted({n for alg in algebras for n in alg.names})
    if draw(st.booleans()):  # the names of one algebra
        names = draw(st.sampled_from(algebras)).names
    if draw(st.integers(0, 4)) == 0:
        names = names + _UNKNOWN
    text = draw(_expr(names, True, [alg.names for alg in algebras]))
    for _ in range(draw(st.sampled_from([0, 0, 1]))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_NOISE_CHARS)) + text[i:]
    if not draw(st.booleans()):
        return text
    try:
        toks = expr_ref.tokenize(text)
    except expr_ref.ParseError:
        return text
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        i = draw(st.integers(0, len(toks)))
        if draw(st.booleans()):
            toks = toks[:i] + toks[i + 1:]
        else:
            toks = toks[:i] + [draw(st.sampled_from(_NOISE_TOKENS))] + toks[i:]
    return toks


class TestDrawn:
    @settings(deadline=None, max_examples=150)
    @given(st.data())
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_same_as_reference(self, theta, cap, data):
        algebras = data.draw(st.sampled_from(_algebra_lists(theta)))
        assert_same(data.draw(_texts(algebras)), algebras, theta, cap)


# -- fixed texts --------------------------------------------------------------

FIXED = [
    "U^2^2", "U^-0", "(U+V)^-1", "*U", "U V *", "e(t)e(t)", "U''", "1/2/3 U", "", "(x) U", "U ²",
    "U* V'^2 U^-2 V", "U^2* V^-1'", "2 U - 2 U", "U + V - U", "-U V + 1 - 1", "1/0 U", "U^",
    "U V^-", "e(t", "e(1/2 + t) U", "e(2*t)^-1 V", "(U V)^2*", "U (x) V", "U (x) V (x) U",
    "2 (x) U", "3", "0", "-e(-t)", "e", "e U", "U e", "U e(t)", "U ^ 2", "U *V", "U* *V",
    "(U", "U)", "U + ", "+ U", "U - - V", "U^9", "(U V)^3", "U^4 V",
]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("text", FIXED)
def test_fixed_texts(text, theta, cap):
    alg = FreeAlgebra(["U", "V"])
    assert_same(text, [alg], theta, cap)
    assert_same(text, [alg, FreeAlgebra(["U", "V"])], theta, cap)


@pytest.mark.parametrize("text", ["V U", "V* U^2", "U V", "U X V", "V U* + U", "X V", "V V' U (x) U"])
def test_a_name_both_algebras_have_is_read_from_the_first(text):
    algebras = _shared()
    assert_same(text, algebras)
    assert_same(text, algebras, cap=2)


def test_shared_name_after_a_run_of_the_second_algebra_is_refused():
    # U is the first algebra's, whichever algebra the run began in
    with pytest.raises(expr_ref.ParseError, match="^cannot combine terms over different algebras$"):
        parse("V U", _shared())


# -- sums in place -------------------------------------------------------------


def _count_adds(monkeypatch):
    calls = []
    add = Element.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(Element, "__add__", counted)
    return calls


def test_a_sum_adds_its_terms_in_place(monkeypatch):
    # a sum of n element terms makes no copy of the accumulated element; the
    # reference forms acc + term, n - 1 copies
    alg = FreeAlgebra(["U", "V"])
    words = [" ".join("UV"[(i >> b) & 1] for b in range(1 + i % 6)) for i in range(300)]
    text = words[0] + "".join(f" + {1 + i % 5} {w}" if i % 3 else f" - {w}"
                              for i, w in enumerate(words) if i)
    calls = _count_adds(monkeypatch)
    got = parse(text, alg)
    assert not calls
    want = expr_ref.parse(text, alg)
    assert len(calls) == len(words) - 1
    assert [(m, c.render()) for m, c in got.t.items()] == [(m, c.render()) for m, c in want.t.items()]


def test_a_scalar_term_takes_the_copying_sum(monkeypatch):
    alg = FreeAlgebra(["U", "V"])
    text = "U + 2 - V + e(t) + U V"
    calls = _count_adds(monkeypatch)
    got = parse(text, alg)
    assert len(calls) == 2  # the two scalar terms
    want = expr_ref.parse(text, alg)
    assert [(m, c.render()) for m, c in got.t.items()] == [(m, c.render()) for m, c in want.t.items()]


def test_each_parse_gives_its_own_element():
    alg = FreeAlgebra(["U", "V"])
    text = "U + V - 2 U V"
    a, b = parse(text, alg), parse(text, alg)
    assert a is not b and a.t is not b.t and a == b
    a.t.clear()
    assert b == expr_ref.parse(text, alg)
