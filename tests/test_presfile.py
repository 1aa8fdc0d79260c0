import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qiso.expr import ParseError
from qiso.freealg import Element
from qiso.presfile import load_data, loads
from qiso.scalars import Scalar, ThetaLin

SAMPLE = """
# a sample presentation
[generators]
U
P selfadjoint

[relations]
U U* - 1
U* U - 1
P P - P

[coproduct]
U : U (x) U P + U* (x) U (1 - P)
P : P (x) P + U (1 - P) U* (x) (1 - P)

[counit]
U : 1
P : 1
"""


class TestLoads:
    def test_generators(self):
        P = loads(SAMPLE, name="sample")
        assert P.algebra.names == ["U", "P"]
        assert "P" in P.algebra.selfadjoint
        assert "U" not in P.algebra.selfadjoint

    def test_relations_count(self):
        P = loads(SAMPLE)
        assert len(P.relations) == 3

    def test_coproduct_lives_in_tensor_square(self):
        P = loads(SAMPLE)
        dU = P.coproduct["U"]
        assert len(dU.ambient.factors) == 2
        assert not dU.is_zero()

    def test_counit_values(self):
        P = loads(SAMPLE)
        assert (P.counit["U"] - Scalar.one()).is_zero()

    def test_theta_specializes_coefficients(self):
        text = "[generators]\nU\n[relations]\ne(t) U - U\n"
        generic = loads(text)
        assert len(generic.relations) == 1
        half = loads(text, theta=Fraction(1, 2))
        # e(t) becomes -1, so the relation is -2U, still one relation
        (rel,) = half.relations
        U = half.algebra.gen("U")
        assert (rel - U * Scalar.rational(-2)).is_zero()

    def test_comments_and_blanks_ignored(self):
        text = "# c\n\n[generators]\nA\n# c2\n\n[relations]\nA A* - 1\n"
        P = loads(text)
        assert len(P.relations) == 1


class TestLoadData:
    @pytest.mark.parametrize(
        "resource, ngens, nrels",
        [
            ("circle.pres", 2, 3),
            ("circle_derived.pres", 2, 6),
            ("sphere.pres", 9, 33),
            ("torus_row1.pres", 8, 18),
            ("torus_row2.pres", 8, 18),
            ("torus_mixed.pres", 8, 16),
            ("torus_exchange.pres", 8, 4),
            ("torus_model.pres", 8, 51),
            ("double_torus.pres", 4, 18),
        ],
    )
    def test_bundled_presentations(self, resource, ngens, nrels):
        P = load_data(resource)
        assert len(P.algebra.names) == ngens
        assert len(P.relations) == nrels


class TestParseErrors:
    @pytest.mark.parametrize("value, message", [
        ("1A", "line 4: bad counit value '1A'"),
        ("11/0", "line 4: bad counit value '11/0'"),
    ])
    def test_bad_counit_names_its_line(self, value, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            loads(f"[generators]\nA\n[counit]\nA : {value}\n")

    @pytest.mark.parametrize("section, line", [
        ("coproduct", "A : A (x) A + A"),
        ("coproduct", "A : A - A (x) A"),
        ("coproduct", "A : (A (x) A) A"),
        ("coproduct", "A : (A (x) A) (x) A"),
        ("antipode", "A : A (x) A"),
        ("relations", "A (x) A"),
    ])
    def test_mixed_tensor_ranks_name_their_line(self, section, line):
        with pytest.raises(ParseError, match="^line 4: "):
            loads(f"[generators]\nA\n[{section}]\n{line}\n")

    def test_non_ascii_digit_names_its_line(self):
        with pytest.raises(ParseError, match="^line 4: unexpected character '²' at position 2$"):
            loads("[generators]\nA\n[relations]\nA ²\n")


_RESOURCES = sorted(f.name for f in resources.files("qiso.data").iterdir() if f.name.endswith(".pres"))
_SNIPPETS = [
    "[generators]", "[relations]", "[coproduct]", "[counit]", "[antipode]", "[other]",
    "\n[relations]\n", "\n[coproduct]\n", "\n[counit]\n", "\n[antipode]\n",
    "\n", " ", ":", "#", " (x) ", "+", "-", "*", "'", "^",
    "/", "(", ")", "e(", "t", "0", "1", "2", "1A", "11/0", "selfadjoint", "U", "P", "A1", "Q11",
]
_edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]),
              st.floats(0, 1), st.integers(1, 8), st.sampled_from(_SNIPPETS)),
    min_size=1, max_size=3)


def _apply(text, edits):
    for kind, where, length, snippet in edits:
        i = int(where * len(text))
        if kind == "insert":
            length = 0
        elif kind == "delete":
            snippet = ""
        text = text[:i] + snippet + text[i + length:]
    return text


class TestFuzzedInput:
    @settings(deadline=None, max_examples=1000, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.sampled_from(_RESOURCES), _edits)
    def test_only_parse_errors_escape(self, resource, edits):
        text = _apply(resources.files("qiso.data").joinpath(resource).read_text(encoding="utf-8"), edits)
        # a large power of a sum takes long to expand, and is not what is tested
        assume(all(int(k) <= 3 for k in re.findall(r"\^\s*-?\s*(\d+)", text)))
        try:
            loads(text)
        except ParseError:
            pass
