"""Loader for the plain-text presentation-file format.

A presentation file has '#' comments and bracketed sections:

    [generators]       one generator per line; append 'selfadjoint' to mark
    [relations]        one expression per line (elements that equal zero)
    [coproduct]        lines 'g : expression' over  algebra (x) algebra
    [counit]           lines 'g : rational'
    [antipode]         lines 'g : expression' over the algebra

Only [generators] is mandatory.  Expressions use the grammar of
:mod:`qiso.expr` (adjoints ``g*``/``g'``, powers ``g^-2``, phases ``e(t)``,
tensors ``a (x) b``).
"""

from __future__ import annotations

from fractions import Fraction

from .cqg import CQGPresentation
from .expr import ParseError, parse_element
from .freealg import FreeAlgebra
from .scalars import Scalar

_SECTIONS = ("generators", "relations", "coproduct", "counit", "antipode")


def _sections(text: str) -> dict:
    out: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ParseError(f"line {lineno}: unknown section [{current}]")
            out.setdefault(current, [])
            continue
        if current is None:
            raise ParseError(f"line {lineno}: content before any section header")
        out[current].append((lineno, line))
    if "generators" not in out:
        raise ParseError("missing [generators] section")
    return out


def _on_line(lineno: int, parse, *args):
    """``parse(*args)``, with the line number put in front of a ParseError."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def loads(text: str, theta: Fraction | None = None, name: str = "") -> CQGPresentation:
    secs = _sections(text)
    names, selfadjoint = [], set()
    for lineno, line in secs["generators"]:
        parts = line.split()
        if len(parts) not in (1, 2) or (len(parts) == 2 and parts[1] != "selfadjoint"):
            raise ParseError(f"line {lineno}: bad generator declaration {line!r}")
        names.append(parts[0])
        if len(parts) == 2:
            selfadjoint.add(parts[0])
    alg = FreeAlgebra(names, selfadjoint=selfadjoint)

    def keyed(section, parser):
        table = {}
        for lineno, line in secs.get(section, []):
            if ":" not in line:
                raise ParseError(f"line {lineno}: expected 'generator : expression'")
            key, rhs = (s.strip() for s in line.split(":", 1))
            if key not in alg.index:
                raise ParseError(f"line {lineno}: unknown generator {key!r}")
            table[key] = _on_line(lineno, parser, rhs)
        return table or None

    relations = [
        _on_line(lineno, parse_element, line, alg, theta)
        for lineno, line in secs.get("relations", [])
    ]
    coproduct = keyed("coproduct", lambda s: parse_element(s, [alg, alg], theta))
    antipode = keyed("antipode", lambda s: parse_element(s, alg, theta))

    def rational(s: str) -> Scalar:
        try:
            return Scalar.rational(Fraction(s))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad counit value {s!r}") from None

    counit = keyed("counit", rational)
    return CQGPresentation(
        algebra=alg,
        relations=relations,
        coproduct=coproduct,
        counit=counit,
        antipode=antipode,
        name=name,
    )


def load(path, theta: Fraction | None = None, name: str = "") -> CQGPresentation:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), theta=theta, name=name or str(path))


def load_data(resource: str, theta: Fraction | None = None) -> CQGPresentation:
    """Load one of the presentation files shipped with the package."""
    from importlib import resources

    text = resources.files("qiso.data").joinpath(resource).read_text(encoding="utf-8")
    return loads(text, theta=theta, name=resource)
