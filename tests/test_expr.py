from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiso import catalog
from qiso.catalog import Scenario
from qiso.expr import ParseError, parse, parse_element, tokenize
from qiso.freealg import Element, FreeAlgebra, tensor
from qiso.presfile import load_data
from qiso.rewrite import RuleSet
from qiso.scalars import Scalar, ThetaLin


@pytest.fixture
def alg():
    return FreeAlgebra(["U", "V", "A1"])


class TestParse:
    def test_error_carries_its_token_position(self, alg):
        with pytest.raises(ParseError, match="expected INT") as exc:
            parse_element("U V^x", alg)
        assert exc.value.pos == 4  # U, V, ^ and x taken

    def test_generator(self, alg):
        assert (parse_element("U", alg) - alg.gen("U")).is_zero()

    def test_adjoint_suffix(self, alg):
        assert (parse_element("U*", alg) - alg.gen("U", star=True)).is_zero()
        assert (parse_element("U'", alg) - alg.gen("U", star=True)).is_zero()

    def test_product_and_sum(self, alg):
        U, V = alg.gen("U"), alg.gen("V")
        got = parse_element("U V - V U", alg)
        assert (got - (U * V - V * U)).is_zero()

    def test_rational_coefficients(self, alg):
        U = alg.gen("U")
        got = parse_element("1/2 U + 1/2 U", alg)
        assert (got - U).is_zero()

    def test_exponential_coefficient(self, alg):
        U = alg.gen("U")
        got = parse_element("e(-t) U", alg)
        want = U * Scalar.exponential(ThetaLin(0, -1))
        assert (got - want).is_zero()

    def test_exponential_specialized(self, alg):
        got = parse_element("e(t)", alg, theta=Fraction(1, 2))
        assert (got - Element.unit(alg) * Scalar.rational(-1)).is_zero()

    def test_parentheses(self, alg):
        U, V = alg.gen("U"), alg.gen("V")
        got = parse_element("U (U - V)", alg)
        assert (got - (U * U - U * V)).is_zero()

    def test_multicharacter_names(self, alg):
        assert (parse_element("A1*", alg) - alg.gen("A1", star=True)).is_zero()

    def test_unknown_generator(self, alg):
        with pytest.raises(ParseError):
            parse_element("W", alg)

    def test_unbalanced_parens(self, alg):
        with pytest.raises(ParseError):
            parse_element("(U", alg)

    def test_tensor_marker(self, alg):
        other = FreeAlgebra(["P"])
        from qiso.expr import parse

        got = parse("U (x) P", [alg, other])
        assert (got - tensor(alg.gen("U"), other.gen("P"))).is_zero()

    @pytest.mark.parametrize("text", ["P (x) U", "(U (x) P) (x) P"])
    def test_tensor_factor_out_of_its_algebra(self, alg, text):
        with pytest.raises(ParseError, match="algebra of its position"):
            parse_element(text, [alg, FreeAlgebra(["P"])])

    @pytest.mark.parametrize("text, message", [
        ("U ²", "unexpected character '²' at position 2"),
        ("U^٣", "unexpected character '٣' at position 2"),  # an Arabic-Indic 3
    ])
    def test_only_ascii_digits(self, alg, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_element(text, alg)


# -- render -> parse round trips, and generator runs against Element arithmetic

_FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_ROOTS = st.builds(lambda k, n: Fraction(k, n), st.integers(0, 11), st.integers(1, 12))


@st.composite
def _scalars(draw):
    """A sum of one to three terms q * e(r) * e(s*t), each factor optional."""
    out = Scalar.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = Scalar.rational(draw(_FRACS.filter(bool))) if draw(st.booleans()) else Scalar.one()
        if draw(st.booleans()):
            term = term * Scalar.root(draw(_ROOTS))
        if draw(st.booleans()):
            term = term * Scalar.phase(draw(_FRACS.filter(bool)))
        out = out + term
    return out


_ALGEBRAS = {
    "circle": load_data("circle.pres").algebra,  # U, and P selfadjoint
    "sphere": load_data("sphere.pres").algebra,  # Q11 .. Q33
    "torus": FreeAlgebra(["U", "V"]),
    "torus-b": load_data("torus_row1.pres").algebra,  # A1 .. D2
}


def _letters(alg):
    return sorted({alg.letter(n, star) for n in alg.names for star in (False, True)})


@st.composite
def _elements(draw, alg):
    words = st.lists(st.sampled_from(_letters(alg)), max_size=4).map(tuple)
    terms = draw(st.dictionaries(words, _scalars(), max_size=4))
    return Element(alg, terms)


class TestPowerCap:
    @pytest.mark.parametrize("text, degree", [
        ("U^9", 9), ("U^-9", 9), ("(U V)^5", 10), ("(U + V*)^-9", 9),
        ("U^100000", 100000), ("(U)^3000", 3000),
    ])
    def test_power_above_the_cap_is_refused(self, alg, text, degree):
        with pytest.raises(ParseError, match=f"^power of degree {degree} exceeds rewriting cap 8$"):
            parse_element(text, alg, cap=8)

    @pytest.mark.parametrize("text", ["U^8", "(U V)^4", "U^-8", "2^20 U", "(U - U)^100", "U^0"])
    def test_power_within_the_cap_parses(self, alg, text):
        assert parse_element(text, alg, cap=8) == parse_element(text, alg)

    def test_each_power_is_capped_not_the_run(self, alg):
        # a longer input is left to the rewriting system's own degree test
        assert parse_element("V U^8", alg, cap=8).deg() == 9

    def test_no_cap_by_default(self, alg):
        assert parse_element("U^20", alg).deg() == 20


class TestScalarPowerLimit:
    # the limit is Python's own: sys.get_int_max_str_digits(), 4300 by default
    @pytest.mark.parametrize("text, power", [
        ("3^3000000 U", 3000000), ("2^-20000", -20000), ("(2 + e(1/5))^30000", 30000),
        ("(1 + e(t))^100000 V", 100000), ("(e(t) - 1)^100000", 100000),
        ("(e(4*t) - 1)^100000", 100000),
    ])
    def test_unprintable_power_is_refused(self, alg, text, power):
        with pytest.raises(ParseError, match=rf"^scalar power \^{power} would print a number of more than \d+ digits$"):
            parse_element(text, alg)

    @pytest.mark.parametrize("text", [
        "3^100", "e(1/3)^1000000", "e(t)^1000", "(3/2)^-9000", "(2 + e(1/5))^300", "0^5", "7^0", "(e(t) - 1)^1",
    ])
    def test_printable_power_parses(self, alg, text):
        got = parse(text, alg)
        assert isinstance(got, Scalar)
        assert parse(got.render(), alg) == got


class TestScalarProductLimit:
    # the rule of the power limit, on each scalar product a parse forms
    @pytest.mark.parametrize("text", [
        "3^4000 3^4000 3^4000", "U 3^4000 3^4000 3^4000", "(3^4000 U) (3^4000 V) (3^4000 U)",
        "(2 + e(1/5))^6000 (2 + e(1/5))^6000", "3^4000 e(1/3) 3^4000 e(1/5) 3^4000 V",
        "(1/2)^4000 (1/2)^4000 (1/2)^4000 (1/2)^4000 (1/2)^4000",
        # an exponent of e(s*t) too large for a float: measured at t = 0
        f"e({10**400}*t) 3^4000 3^4000 3^4000",
    ])
    def test_unprintable_product_is_refused(self, alg, text):
        with pytest.raises(ParseError, match=r"^scalar product would print a number of more than \d+ digits$"):
            parse_element(text, alg)

    @pytest.mark.parametrize("text", [
        "3^4000 3^4000", "3^4000 (1/3)^4000 3^4000", "(2 + e(1/5))^3000 (2 + e(1/5))^3000",
        "3^4000 e(1/3) 3^4000", "-3^4000 * -1", "e(t)^5 3^4000 e(-t) 3^4000",
        f"e({10**400}*t)^2 3^4000", f"(e({10**400}*t) + 3^3000)^2",
    ])
    def test_printable_product_parses(self, alg, text):
        got = parse(text, alg)
        assert isinstance(got, Scalar)
        assert parse(got.render(), alg) == got


class TestScalarSumLimit:
    # the rule of the power limit, on each sum a parse forms; 9^4506 has
    # 4300 digits, and twelve of them 4302
    @pytest.mark.parametrize("text", [
        " + ".join(["9^4506"] * 12) + " + U", "9^4506 + 9^4506", "-9^4506 - 9^4506 + V",
        "9^4506 U + 9^4506 U", "V + 9^4506 e(1/3) U + 9^4506 e(1/3) U",
        # denominators 2^7200 and 3^4506 print, their product does not
        "(1/2)^7200 + e(t) + (1/3)^4506",
    ])
    def test_unprintable_sum_is_refused(self, alg, text):
        with pytest.raises(ParseError, match=r"^scalar sum would print a number of more than \d+ digits$"):
            parse_element(text, alg)

    @pytest.mark.parametrize("text", [
        "9^4506 + U", "9^4506 - 9^4506 + 9^4506", "9^4506 U + 9^4506 V", "9^4506 + 9^4506 e(t)",
        "9^4506 e(1/3) + 9^4506", "9^4506 - 1",
    ])
    def test_printable_sum_parses(self, alg, text):
        got = parse_element(text, alg)
        assert parse_element(got.render(), alg) == got


class TestRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(st.data())
    @pytest.mark.parametrize("name", sorted(_ALGEBRAS))
    def test_render_parses_back(self, name, data):
        alg = _ALGEBRAS[name]
        x = data.draw(_elements(alg))
        text = x.render()
        got = parse_element(text, alg)
        # the parse lists the terms as render prints them: longest word first
        order = sorted(x.t, key=lambda w: (len(w), w), reverse=True)
        assert list(got.t) == order, text
        assert all(got.t[w] == x.t[w] for w in order), text
        assert got.render() == text


_SEPARATORS = st.sampled_from([" ", " * "])


@st.composite
def _factor(draw, alg):
    """One factor of a product: its text, and its value built with Element
    (or Scalar) arithmetic."""
    kind = draw(st.sampled_from(["gen", "gen", "gen", "scalar", "paren"]))
    if kind == "gen":
        name = draw(st.sampled_from(alg.names))
        text, value = name, alg.gen(name)
    elif kind == "scalar":
        q = draw(_FRACS.filter(bool))
        text, value = draw(st.sampled_from([
            (str(abs(q)), Scalar.rational(abs(q))),
            (f"e({q})", Scalar.root(q)),
            (f"e({q}*t)", Scalar.phase(q)),
        ]))
    else:
        a, b = draw(st.lists(st.sampled_from(alg.names), min_size=2, max_size=2))
        q = draw(_FRACS.filter(bool))
        text = f"({a} - {abs(q)} {b}*)"
        value = alg.gen(a) - alg.gen(b).star() * Scalar.rational(abs(q))
    # adjoint marks and a power; a '*' after a number is a product
    marks = ["'"] if text[0].isdigit() else ["*", "'"]
    for mark in draw(st.lists(st.sampled_from(marks), max_size=2)):
        text, value = text + mark, _adjoint(value)
    # a sum to a power multiplies out: keep its powers small
    power = draw(st.none() | (st.integers(-1, 2) if kind == "paren" else st.integers(-2, 3)))
    if power is not None:
        text += f"^{power}"
        if power < 0 and isinstance(value, Element):  # a power of the adjoint
            value = value.star() ** -power
        else:
            value = value**power
        if draw(st.booleans()):
            text, value = text + "'", _adjoint(value)
    return text, value


def _adjoint(x):
    return x.conj() if isinstance(x, Scalar) else x.star()


class TestGeneratorRuns:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    @pytest.mark.parametrize("name", sorted(_ALGEBRAS))
    def test_products_match_element_arithmetic(self, name, data):
        alg = _ALGEBRAS[name]
        factors = data.draw(st.lists(_factor(alg), min_size=1, max_size=5))
        text = factors[0][0]
        want = factors[0][1]
        for f_text, f_value in factors[1:]:
            text += data.draw(_SEPARATORS) + f_text
            want = want * f_value
        if isinstance(want, Scalar):
            want = Element.unit(alg) * want
        got = parse_element(text, alg)
        assert list(got.t) == list(want.t), text
        assert all(got.t[w] == want.t[w] for w in want.t), text

    def test_runs_cross_algebras_only_when_they_are_one(self, alg):
        twin, other = FreeAlgebra(["U", "V", "A1"]), FreeAlgebra(["P"])
        got = parse_element("U^2 V'", [alg, twin])
        assert list(got.t) == [(0, 0, 3)]
        with pytest.raises(ParseError, match="^cannot combine terms over different algebras$"):
            parse_element("U P", [alg, other])
        with pytest.raises(ParseError, match="^unknown generator 'W'$"):
            parse_element("U V^2 W", alg)


# -- Scenario.parse: the algebra with every name first, then each in turn


def _parse_each_in_turn(sc, text):
    """The text over the first parse algebra that reads all of it; when none
    does, the error of the one that read furthest: every algebra tried in
    order, as ``Scenario.parse`` did before it tried one first."""
    toks = tokenize(text)
    nf_cap = None if sc.nf_rules is None else sc.nf_rules.cap
    errors = []
    for alg in sc.parse_algebras:
        try:
            return parse_element(toks, alg, sc.theta, nf_cap if alg is sc.nf_algebra else None)
        except ParseError as exc:
            errors.append(exc)
    raise max(errors, key=lambda exc: exc.pos)


def _overlapping():
    """Two parse algebras that both have x: a text over x alone is read
    over the first, unless it has a power above the cap of the first."""
    sc = Scenario("overlap")
    sc.parse_algebras = [FreeAlgebra(["x", "y"]), FreeAlgebra(["x", "z"])]
    sc.nf_algebra = sc.parse_algebras[0]
    sc.nf_rules = RuleSet(sc.nf_algebra, [], 8)
    return sc


_SCENARIOS = {
    **{(name, theta): (lambda name=name, theta=theta: catalog.build(name, theta))
       for name in catalog.BUILDERS for theta in (None, Fraction(1, 3))},
    ("overlap", None): _overlapping,
}
_BUILT = {}


def _scenario(key):
    if key not in _BUILT:
        _BUILT[key] = _SCENARIOS[key]()
    return _BUILT[key]


def _outcome(read, sc, text):
    try:
        got = read(text)
    except Exception as exc:  # compared by type, message and token position
        return type(exc), str(exc), getattr(exc, "pos", None)
    return [alg is got.ambient for alg in sc.parse_algebras], [(w, c.render()) for w, c in got.t.items()]


_SCALAR_ITEMS = ["2", "1/2", "0", "e(1/3)", "e(t)", "e(-2*t)", "t", "e", "(2 + e(1/5))"]
_ERROR_ITEMS = ["W", "foo", "^", ")", "(", "e(", "1/0", "(x)", "+ +", "²"]
_SUFFIXES = ["", "", "", "*", "'", "^2", "^-1", "^9", "^30"]


@st.composite
def _texts(draw, sc):
    """A text over one parse algebra's names, or over all of them, with
    scalars, names no algebra has, powers above the cap and syntax errors."""
    algebras = sc.parse_algebras
    names = sorted({n for alg in algebras for n in alg.names})
    if draw(st.booleans()):
        names = draw(st.sampled_from(algebras)).names
    items = st.one_of(
        st.tuples(st.sampled_from(names), st.sampled_from(_SUFFIXES)).map("".join),
        st.sampled_from(_SCALAR_ITEMS),
        st.sampled_from(_ERROR_ITEMS) if draw(st.booleans()) else st.sampled_from(names),
    )
    terms = draw(st.lists(st.lists(items, min_size=1, max_size=4).map(" ".join), min_size=1, max_size=3))
    return "".join(t + draw(st.sampled_from([" + ", " - "])) for t in terms[:-1]) + terms[-1]


class TestScenarioParse:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    @pytest.mark.parametrize("key", sorted(_SCENARIOS, key=str))
    def test_same_as_each_algebra_in_turn(self, key, data):
        sc = _scenario(key)
        text = data.draw(_texts(sc))
        assert _outcome(sc.parse, sc, text) == _outcome(lambda t: _parse_each_in_turn(sc, t), sc, text), text

    @pytest.mark.parametrize("text, first", [
        ("x", True), ("2 x^2 + e(1/3)", True), ("x y", True), ("x z", False), ("z x* - 1", False),
        ("x^9", False), ("x^8 + x^30", False),
    ])
    def test_names_both_algebras_have(self, text, first):
        sc = _overlapping()
        got = sc.parse(text)
        assert got.ambient is sc.parse_algebras[0 if first else 1]
        assert got == _parse_each_in_turn(sc, text)

    @pytest.mark.parametrize("text", ["x y z", "x z y^", "y + z", "x^-", "x^9 y", "x^9 + z^9 + W"])
    def test_error_of_the_algebra_read_furthest(self, text):
        sc = _overlapping()
        with pytest.raises(ParseError) as got:
            sc.parse(text)
        with pytest.raises(ParseError) as want:
            _parse_each_in_turn(sc, text)
        assert (str(got.value), got.value.pos) == (str(want.value), want.value.pos)
