"""Degree-capped completion and normal forms in free *-algebras.

Relations are oriented into rewrite rules  lhs -> rhs  by the graded-
lexicographic term order of the algebra, then completed by resolving overlap
and inclusion ambiguities up to a degree cap.  Normal forms of words of
length <= cap are then canonical; ideal membership is decided by reduction to
zero and certified by an explicit combination

    p = sum_i  c_i * u_i * r_{k_i} * v_i

over the *input* relations, which is re-expanded and checked before a YES is
returned.  A nonzero normal form only ever yields UNDECIDED (the cap may be
too small), never a NO.

Completion pays only for the rules it keeps.  Each S-element carries a
function that builds its certificate; the element is first reduced without
tracking, and only one that survives reduction (most reduce to zero) is
reduced again with tracking and has its certificate built.  Rules are never
changed once made, so the deferred certificates equal eager ones.
``RuleSet.skipped`` counts the overlaps dropped at the cap; ``capped`` is
``skipped > 0``.

Rules are found by word lookup, not by scanning.  Each new lhs is the lead
of an element reduced by every earlier rule, so lhs words are unique.  A
reduction step probes the subwords at each lhs length; at the leftmost match
the earliest rule wins (an older lhs may contain a newer one).  The partners
of a new rule in an ambiguity are looked up in dicts from the proper
prefixes, suffixes and subwords of each lhs, and visited in rule order.
"""

from __future__ import annotations

import heapq

from .freealg import Element, FreeAlgebra, TensorAlgebra, same_ambient
from .scalars import Scalar

YES = "YES"
UNDECIDED = "UNDECIDED"


class DegreeOverflow(Exception):
    """An input exceeds the degree cap of the rewriting system."""


class NonUnitLeadCoefficient(Exception):
    """Completion produced a relation whose leading coefficient is not invertible."""


class UnitIdeal(ValueError):
    """The relations generate the unit ideal: completion reached a nonzero constant."""


class Rule:
    __slots__ = ("lhs", "rhs", "rep")

    def __init__(self, lhs, rhs: Element, rep):
        self.lhs = lhs  # word
        self.rhs = rhs  # Element with monomials < lhs
        self.rep = rep  # [(Scalar, u, rel_index, v)] with lhs - rhs = sum c*u*r*v


class RuleSet:
    """A completed, degree-capped rewriting system."""

    def __init__(self, algebra: FreeAlgebra, relations, cap: int):
        self.algebra = algebra
        self.relations = list(relations)
        self.cap = cap
        self.rules: list[Rule] = []
        self.skipped = 0  # overlap ambiguities dropped above the cap
        self._lhs: dict[tuple, int] = {}  # lhs word -> position in rules
        self._lens: list[int] = []  # sorted distinct lhs lengths
        # proper prefix / suffix / subword of some lhs -> positions of those rules
        self._prefixes: dict[tuple, list[int]] = {}
        self._suffixes: dict[tuple, list[int]] = {}
        self._subwords: dict[tuple, list[int]] = {}
        self._complete()

    @property
    def capped(self) -> bool:
        """Whether any ambiguity above the cap was skipped."""
        return self.skipped > 0

    # -- construction ---------------------------------------------------------
    def _add_rule(self, rule: Rule) -> int:
        j = len(self.rules)
        self.rules.append(rule)
        lhs, n = rule.lhs, len(rule.lhs)
        self._lhs[lhs] = j
        self._lens = sorted({*self._lens, n})
        for k in range(1, n):
            self._prefixes.setdefault(lhs[:k], []).append(j)
            self._suffixes.setdefault(lhs[n - k :], []).append(j)
        for sub in {lhs[i : i + k] for k in range(1, n) for i in range(n - k + 1)}:
            self._subwords.setdefault(sub, []).append(j)
        return j

    def _partners(self, j: int):
        """Positions of the rules that can form an ambiguity with rule j:
        those for (rule j, other) and those for (other, rule j).  No other
        lhs lies inside lhs(j), which every earlier rule has reduced."""
        lhs, n = self.rules[j].lhs, len(self.rules[j].lhs)
        first, second = {j}, set(self._subwords.get(lhs, ()))
        for k in range(1, n):
            # a proper suffix of lhs starts the other lhs, or a proper prefix ends it
            first.update(self._prefixes.get(lhs[n - k :], ()))
            second.update(self._suffixes.get(lhs[:k], ()))
        second.discard(j)
        return first, second

    def _complete(self):
        alg = self.algebra
        counter = 0
        queue: list = []

        def push(elem, build):
            nonlocal counter
            if elem.is_zero():
                return
            lead = max(elem.t, key=alg.order_key)
            heapq.heappush(queue, (alg.order_key(lead), counter, elem, build))
            counter += 1

        for i, r in enumerate(self.relations):
            if r.deg() > self.cap:
                raise DegreeOverflow(f"relation of degree {r.deg()} exceeds cap {self.cap}")
            push(r, lambda i=i: [(Scalar.one(), (), i, ())])

        while queue:
            _, _, elem, build = heapq.heappop(queue)
            # most S-elements reduce to zero: test that without a certificate
            if self._reduce(elem, None)[0].is_zero():
                continue
            # build() represents elem itself; _reduce appends entries for the
            # removed part, so the reduced element is that minus the delta
            elem, delta = self._reduce(elem, [])
            rep = build() + [(-s, u, k, v) for s, u, k, v in delta]
            lead = max(elem.t, key=alg.order_key)
            c = elem.t[lead]
            if not c.is_unit():
                raise NonUnitLeadCoefficient(
                    f"leading coefficient {c.render()} of {elem.render()} is not a unit"
                )
            if not lead:
                raise UnitIdeal(f"the relations generate the unit ideal: {elem.render()} = 0")
            ci = c.inv()
            rhs = -(elem - Element(alg, {lead: c})) * ci
            rule = Rule(lead, rhs, [(ci * s, u, k, v) for s, u, k, v in rep])
            # resolve ambiguities against every rule (itself included) that
            # shares an overlap or inclusion with it, in rule order
            first, second = self._partners(self._add_rule(rule))
            for p in sorted(first | second):
                other = self.rules[p]
                if p in first:
                    for elem2, build2 in self._ambiguities(rule, other):
                        push(elem2, build2)
                if p in second:
                    for elem2, build2 in self._ambiguities(other, rule):
                        push(elem2, build2)

    def _ambiguities(self, r1: Rule, r2: Rule):
        """S-elements from overlaps (suffix of r1.lhs = prefix of r2.lhs) and
        inclusions (r2.lhs inside r1.lhs), each with a zero-argument function
        that builds its certificate."""
        alg = self.algebra
        l1, l2 = r1.lhs, r2.lhs
        out = []

        def s_overlap(x, y):
            # word l1 + y == x + l2:  r1 gives rhs1.y, r2 gives x.rhs2
            d = _difference(alg, ((m + y, c) for m, c in r1.rhs.t.items()),
                            ((x + m, c) for m, c in r2.rhs.t.items()))
            return d, lambda: [(-s, u, k, v + y) for s, u, k, v in r1.rep] + [
                (s, x + u, k, v) for s, u, k, v in r2.rep
            ]

        def s_inclusion(x, y):
            # word l1 == x + l2 + y:  r1 gives rhs1, r2 gives x.rhs2.y
            d = _difference(alg, r1.rhs.t.items(), ((x + m + y, c) for m, c in r2.rhs.t.items()))
            return d, lambda: [(-s, u, k, v) for s, u, k, v in r1.rep] + [
                (s, x + u, k, v + y) for s, u, k, v in r2.rep
            ]

        # proper overlaps: l1 = x + o, l2 = o + y with 0 < len(o) < min lens
        for olen in range(1, min(len(l1), len(l2))):
            if l1[len(l1) - olen :] == l2[:olen]:
                x = l1[: len(l1) - olen]
                y = l2[olen:]
                if len(l1) + len(y) <= self.cap:
                    out.append(s_overlap(x, y))
                else:
                    self.skipped += 1
        # inclusions: l2 occurs inside l1 (lhs words are unique)
        if len(l2) < len(l1):
            for i in range(len(l1) - len(l2) + 1):
                if l1[i : i + len(l2)] == l2:
                    out.append(s_inclusion(l1[:i], l1[i + len(l2) :]))
        return out

    # -- reduction -----------------------------------------------------------
    def _find(self, w):
        """The leftmost match in w, and at it the earliest rule."""
        lhs, n = self._lhs, len(w)
        for i in range(n):
            best = None
            for L in self._lens:
                if i + L > n:
                    break
                p = lhs.get(w[i : i + L])
                if p is not None and (best is None or p < best):
                    best = p
            if best is not None:
                return i, self.rules[best]
        return None

    def _reduce(self, elem: Element, rep):
        """Fully reduce an element; extends rep so that
        original = reduced + sum(rep applied to relations)."""
        work = list(elem.t.items())
        done = Element.zero(self.algebra)
        rep = list(rep) if rep is not None else None
        while work:
            w, c = work.pop()
            hit = self._find(w)
            if hit is None:
                done._add_term(w, c)
                continue
            i, rule = hit
            u, v = w[:i], w[i + len(rule.lhs) :]
            if rep is not None:
                rep.extend((c * s, u + ru, k, rv + v) for s, ru, k, rv in rule.rep)
            work.extend((u + m + v, rc * c) for m, rc in rule.rhs.t.items())
        return done, rep

    # -- public API -------------------------------------------------------------
    def normal_form(self, elem: Element, with_cert=False):
        if elem.deg() > self.cap:
            raise DegreeOverflow(
                f"degree {elem.deg()} input exceeds rewriting cap {self.cap}"
            )
        nf, rep = self._reduce(elem, [] if with_cert else None)
        if with_cert:
            return nf, rep
        return nf


def _difference(alg, pos, neg) -> Element:
    """sum(pos) - sum(neg) over (word, nonzero Scalar) pairs with distinct
    words, with the terms and order that ``Element.__sub__`` gives."""
    out = Element(alg)
    out.t = dict(pos)
    for m, c in neg:
        out._add_term(m, -c)
    return out


class Membership:
    def __init__(self, status, certificate=None):
        self.status = status
        self.certificate = certificate  # [(Scalar, u, rel_idx, v)]

    def __repr__(self):
        return f"Membership({self.status})"


def ideal_member(p: Element, rules: RuleSet) -> Membership:
    """Two-sided ideal membership with verified certificates.

    ``rules`` is a completed system over ``p``'s algebra or a ``same_ambient``
    one.  Returns YES with a certificate expressing p as a combination of
    ``rules.relations`` (checked by re-expansion), or UNDECIDED if the normal
    form at the cap of ``rules`` is nonzero.
    """
    if not same_ambient(p.ambient, rules.algebra):
        raise ValueError("element and rewriting system live in different algebras")
    nf, cert = rules.normal_form(p, with_cert=True)
    if not nf.is_zero():
        return Membership(UNDECIDED)
    if not verify_certificate(p, rules.relations, cert):
        raise AssertionError("internal error: certificate failed re-expansion")
    return Membership(YES, cert)


def verify_certificate(p: Element, relations, cert) -> bool:
    """Re-expand sum c*u*r*v and compare with p (ValueError if a relation
    the certificate uses lives in another algebra than p)."""
    if not all(same_ambient(p.ambient, relations[k].ambient) for k in {e[2] for e in cert}):
        raise ValueError("certificate relation and element live in different algebras")
    acc = Element.zero(p.ambient)
    for c, u, k, v in cert:
        for m, rc in relations[k].t.items():
            acc._add_term(u + m + v, rc * c)
    return (acc - p).is_zero()


def render_certificate(relations, cert, alg) -> str:
    parts = []
    for c, u, k, v in cert:
        piece = f"r{k}"
        if u:
            piece = f"{alg.render_mono(u)} . {piece}"
        if v:
            piece = f"{piece} . {alg.render_mono(v)}"
        cs = c.render()
        parts.append(piece if cs == "1" else f"({cs}) {piece}")
    return " + ".join(parts) if parts else "0"


def reduce_tensor(elem: Element, rulesets) -> Element:
    """Reduce each tensor factor of an element by its own rewriting system.

    ``rulesets`` is one RuleSet (or None) per tensor factor.  This computes
    normal forms modulo the ideal generated by the per-factor relations.
    """
    amb = elem.ambient
    assert isinstance(amb, TensorAlgebra)
    out = Element.zero(amb)
    for mono, c in elem.t.items():
        pieces = [(c, ())]
        for f, rs, w in zip(amb.factors, rulesets, mono):
            if rs is None:
                pieces = [(pc, pm + (w,)) for pc, pm in pieces]
                continue
            nf = rs.normal_form(Element(f, {w: Scalar.one()}))
            pieces = [
                (pc * nc, pm + (nm,)) for pc, pm in pieces for nm, nc in nf.t.items()
            ]
        for pc, pm in pieces:
            out._add_term(pm, pc)
    return out
