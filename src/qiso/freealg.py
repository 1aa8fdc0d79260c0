"""Free *-algebras, tensor products, and the generic element class.

An *ambient* is any object exposing the monomial interface used by
:class:`Element`:

- ``one_terms()``   -> dict  monomial -> Scalar   (the unit as an element)
- ``mul_mono(a,b)`` -> list of (Scalar, monomial) products of basis monomials
- ``block(a)``      -> hashable key; ``mul_mono(a, b)`` is empty whenever
  ``block(a) != block(b)``, so products may skip such pairs
- ``star_mono(a)``  -> (Scalar, monomial)         adjoint of a basis monomial
- ``deg(a)``        -> int                         total degree
- ``render_mono(a)``-> str
- ``same_structure(b)`` -> bool                 b, of the same type, is the same algebra

Elements of two ambients combine only when :func:`same_ambient` holds (the
same object, or the same type and structure); otherwise ``ValueError``.

An element's term dict never holds a zero coefficient: the constructor drops
zero terms and ``_add_term`` deletes a term that cancels.  ``Scalar.__eq__``
is exact, also between cyclotomic constants of different conductors.  So two
elements are equal exactly when their term dicts are, and ``==`` compares
the dicts without forming a difference.

Free algebras use words over generator letters (adjoints are letters in
their own right), tensor algebras use tuples of factor monomials.  The
graded block algebras in :mod:`qiso.graded` implement the same interface,
so elements, substitution and homomorphism checks work uniformly over
presentations and concrete models.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, join_signed

# letters are ints: 2*generator_index + (1 if adjoint else 0)


class FreeAlgebra:
    """Free *-algebra on named generators.

    ``selfadjoint`` generators satisfy g* = g at the level of words.
    """

    def __init__(self, names, selfadjoint=()):
        self.names = list(names)
        self.selfadjoint = set(selfadjoint)
        self.index = {n: i for i, n in enumerate(self.names)}
        self._letter_names = [n + st for n in self.names for st in ("", "*")]

    # -- monomial interface --------------------------------------------------
    def one_terms(self):
        return {(): Scalar.one()}

    def mul_mono(self, a, b):
        return [(Scalar.one(), a + b)]

    def block(self, w):
        return None

    def star_mono(self, w):
        out = []
        for let in reversed(w):
            gi, st = divmod(let, 2)
            if self.names[gi] in self.selfadjoint:
                out.append(2 * gi)
            else:
                out.append(2 * gi + (1 - st))
        return Scalar.one(), tuple(out)

    def deg(self, w):
        return len(w)

    def render_mono(self, w):
        if not w:
            return "1"
        return " ".join([self._letter_names[let] for let in w])

    # -- helpers ---------------------------------------------------------------
    def letter(self, name, star=False):
        gi = self.index[name]
        if name in self.selfadjoint:
            star = False
        return 2 * gi + (1 if star else 0)

    def gen(self, name, star=False) -> "Element":
        return Element(self, {(self.letter(name, star),): Scalar.one()})

    def order_key(self, w):
        """Graded-lexicographic term order key (bigger = later)."""
        return (len(w), w)

    def same_structure(self, other) -> bool:
        return self.names == other.names and self.selfadjoint == other.selfadjoint


class TensorAlgebra:
    """Tensor product of ambient algebras; monomials are factor tuples."""

    def __init__(self, factors):
        self.factors = list(factors)
        self._blocks = {}

    def one_terms(self):
        terms = {(): Scalar.one()}
        for f in self.factors:
            new = {}
            for m, c in terms.items():
                for fm, fc in f.one_terms().items():
                    new[m + (fm,)] = c * fc
            terms = new
        return terms

    def mul_mono(self, a, b):
        out = None  # the products of the factors so far
        for f, x, y in zip(self.factors, a, b):
            prods = f.mul_mono(x, y)
            if out is None:
                out = [(pc, (pm,)) for pc, pm in prods]
            else:
                out = [(c * pc, m + (pm,)) for c, m in out for pc, pm in prods]
        return [(Scalar.one(), ())] if out is None else out

    def block(self, a):
        """The tuple of the factors' keys, memoised per monomial."""
        key = self._blocks.get(a)
        if key is None:
            key = self._blocks[a] = tuple(f.block(x) for f, x in zip(self.factors, a))
        return key

    def star_mono(self, a):
        c = Scalar.one()
        mono = []
        for f, x in zip(self.factors, a):
            fc, fm = f.star_mono(x)
            c = c * fc
            mono.append(fm)
        return c, tuple(mono)

    def deg(self, a):
        return sum(f.deg(x) for f, x in zip(self.factors, a))

    def render_mono(self, a):
        return " (x) ".join(f.render_mono(x) for f, x in zip(self.factors, a))

    def same_structure(self, other) -> bool:
        return len(self.factors) == len(other.factors) and all(
            map(same_ambient, self.factors, other.factors)
        )


def _add_term(t: dict, m, c):
    """Add c to the coefficient of m in the term dict t: a term that cancels
    is deleted and a zero c adds nothing."""
    if m in t:
        r = t[m] + c
        if r.is_zero():
            del t[m]
        else:
            t[m] = r
    elif not c.is_zero():
        t[m] = c


def same_ambient(a, b) -> bool:
    """Whether a and b are one algebra: the same object, or structurally equal."""
    return a is b or (type(a) is type(b) and a.same_structure(b))


class Element:
    """A finite linear combination of ambient monomials with Scalar coefficients."""

    __slots__ = ("ambient", "t")

    def __init__(self, ambient, terms: dict | None = None):
        self.ambient = ambient
        self.t = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.t[m] = c

    @staticmethod
    def zero(ambient) -> "Element":
        return Element(ambient)

    @staticmethod
    def unit(ambient) -> "Element":
        return Element(ambient, ambient.one_terms())

    # -- arithmetic -------------------------------------------------------------
    def _add_term(self, m, c):
        _add_term(self.t, m, c)

    def __add__(self, other):
        other = self._coerce(other)
        out = Element(self.ambient, dict(self.t))
        for m, c in other.t.items():
            out._add_term(m, c)
        return out

    __radd__ = __add__

    def __neg__(self):
        return Element(self.ambient, {m: -c for m, c in self.t.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.coerce(other)
            return Element(self.ambient, {m: c * s for m, c in self.t.items()})
        other = self._coerce(other)
        out = Element(self.ambient)
        amb = self.ambient
        for m1, c1 in self.t.items():
            for m2, c2 in other.t.items():
                c = c1 * c2
                for pc, pm in amb.mul_mono(m1, m2):
                    out._add_term(pm, c * pc)
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        assert k >= 0
        out = Element.unit(self.ambient)
        for _ in range(k):
            out = out * self
        return out

    def star(self) -> "Element":
        out = Element(self.ambient)
        for m, c in self.t.items():
            sc, sm = self.ambient.star_mono(m)
            out._add_term(sm, c.conj() * sc)
        return out

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.ambient is not self.ambient and not same_ambient(self.ambient, other.ambient):
                raise ValueError("elements of different ambient algebras")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return Element.unit(self.ambient) * Scalar.coerce(other)
        raise TypeError(f"cannot combine Element with {other!r}")

    # -- queries ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.t

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar, Element)):
            return self.t == self._coerce(other).t
        return NotImplemented

    def __hash__(self):
        raise TypeError("Element is unhashable")

    def coeff(self, m) -> Scalar:
        return self.t.get(m, Scalar.zero())

    def deg(self) -> int:
        return max((self.ambient.deg(m) for m in self.t), default=0)

    def map_scalars(self, fn) -> "Element":
        return Element(self.ambient, {m: fn(c) for m, c in self.t.items()})

    def specialize(self, theta) -> "Element":
        return self.map_scalars(lambda c: c.specialize(theta))

    def render(self) -> str:
        if not self.t:
            return "0"
        monos = sorted(self.t, key=_render_key, reverse=True) if len(self.t) > 1 else self.t
        parts = []
        for m in monos:
            c = self.t[m]
            cs = c.render()
            ms = self.ambient.render_mono(m)
            compound = " + " in cs or " - " in cs
            if ms == "1":
                parts.append(cs if not compound else f"({cs})")
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append(f"-{ms}")
            elif compound:
                parts.append(f"({cs}) * {ms}")
            else:
                parts.append(f"{cs} * {ms}")
        return join_signed(parts)

    def __repr__(self):
        return f"Element({self.render()})"


def _render_key(m):
    def k(x):
        if isinstance(x, tuple):
            return (len(x), tuple(k(y) for y in x))
        return x

    return k(m)


# ---------------------------------------------------------------------------
# substitution and tensor assembly
# ---------------------------------------------------------------------------


def substitute(elem: Element, images: dict, target=None) -> Element:
    """Map an element of a free algebra through generator images.

    ``images`` maps generator names to elements of a common target ambient.
    Adjoint letters go to the adjoint of the image.
    """
    alg = elem.ambient
    assert isinstance(alg, FreeAlgebra)
    if target is None:
        target = next(iter(images.values())).ambient
    letter_img: dict[int, Element] = {}

    def img(let):
        if let not in letter_img:
            gi, st = divmod(let, 2)
            base = images[alg.names[gi]]
            letter_img[let] = base.star() if st else base
        return letter_img[let]

    out = Element.zero(target)
    for w, c in elem.t.items():
        acc = Element.unit(target) * c
        for let in w:
            acc = acc * img(let)
        out = out + acc
    return out


def substitute_factors(elem: Element, factor_images: list) -> Element:
    """Apply per-factor substitutions to an element of a tensor of free algebras.

    Each entry of ``factor_images`` is either a dict of generator images (the
    factor is mapped through :func:`substitute`) or ``None`` (the factor is
    kept as is).  The result lives in the flattened tensor product of the
    factor targets.
    """
    amb = elem.ambient
    assert isinstance(amb, TensorAlgebra)
    pieces_out = None
    for w, c in elem.t.items():
        factor_elems = []
        for f, images, fm in zip(amb.factors, factor_images, w):
            fe = Element(f, {fm: Scalar.one()})
            if images is not None:
                fe = substitute(fe, images)
            factor_elems.append(fe)
        term = tensor(*factor_elems) * c
        pieces_out = term if pieces_out is None else pieces_out + term
    if pieces_out is None:
        # the zero of the product of the factor targets
        return tensor(*(Element.zero(f if images is None else next(iter(images.values())).ambient)
                        for f, images in zip(amb.factors, factor_images)))
    return pieces_out


def tensor(*elems: Element) -> Element:
    """Tensor product of elements, flattening nested tensor factors."""
    factors = []
    for e in elems:
        if isinstance(e.ambient, TensorAlgebra):
            factors.extend(e.ambient.factors)
        else:
            factors.append(e.ambient)
    amb = TensorAlgebra(factors)
    terms = {(): Scalar.one()}
    for e in elems:
        new = {}
        nested = isinstance(e.ambient, TensorAlgebra)
        for m, c in terms.items():
            for em, ec in e.t.items():
                key = m + (em if nested else (em,))
                cc = c * ec
                if key in new:
                    cc = new[key] + cc
                new[key] = cc
        terms = new
    return Element(amb, terms)
