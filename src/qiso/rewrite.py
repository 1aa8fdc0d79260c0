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
function that builds its certificate.  The element is reduced once, and its
reduction steps are kept; only an element that survives (most reduce to
zero) has its certificate built, from that function and those steps.  Rules
are never changed once made, so the deferred certificates equal eager ones.
A pair of monomial rules (both rhs zero) only gives zero and is never formed.
``RuleSet.skipped`` counts the overlaps dropped at the cap; ``capped`` is
``skipped > 0``.

Rules are found by word lookup, not by scanning.  Each new lhs is the lead
of an element reduced by every earlier rule, so lhs words are unique.  A
reduction step probes the subwords at each lhs length; at the leftmost match
the earliest rule wins (an older lhs may contain a newer one).  The
ambiguities of a new rule are read straight from dicts from the proper
prefixes, suffixes and subwords of each lhs, with the overlap length or
inclusion position, and resolved in rule order.
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

    def _resolve(self, j: int):
        """The ambiguities of rule j whose S-element can be nonzero, as sorted
        events (p, kind, k): kind 0 overlaps (rule j, rule p) and kind 1
        overlaps (rule p, rule j) in k letters, kind 2 includes lhs(j) in
        lhs(p) at position k.  No other lhs lies inside lhs(j), which every
        earlier rule has reduced.  Overlaps above the cap are only counted, and
        a pair of monomial rules (both rhs zero) only gives zero."""
        rules, cap = self.rules, self.cap
        lhs, mono = rules[j].lhs, not rules[j].rhs.t
        n = len(lhs)
        events = []
        for k in range(1, n):
            # a proper suffix of lhs(j) starts lhs(p), or a proper prefix ends it
            for kind, ps in ((0, self._prefixes.get(lhs[n - k :], ())),
                             (1, self._suffixes.get(lhs[:k], ()))):
                for p in ps:
                    if kind and p == j:
                        continue
                    if len(rules[p].lhs) > cap - n + k:
                        self.skipped += 1
                    elif not (mono and not rules[p].rhs.t):
                        events.append((p, kind, k))
        for p in self._subwords.get(lhs, ()):
            if not (mono and not rules[p].rhs.t):
                lp = rules[p].lhs
                events.extend((p, 2, i) for i in range(len(lp) - n + 1) if lp[i : i + n] == lhs)
        events.sort()
        return events

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
            # most S-elements reduce to zero; only a survivor gets a certificate
            elem, steps = self._reduce(elem)
            if elem.is_zero():
                continue
            lead = max(elem.t, key=alg.order_key)
            c = elem.t[lead]
            if not c.is_unit():
                raise NonUnitLeadCoefficient(
                    f"leading coefficient {c.render()} of {elem.render()} is not a unit"
                )
            if not lead:
                raise UnitIdeal(f"the relations generate the unit ideal: {elem.render()} = 0")
            ci = c.inv()
            rhs = Element(alg)
            rhs.t = {m: x * -ci for m, x in elem.t.items() if m != lead}
            # build() represents the popped element; the steps represent the
            # part reduction removed, so the survivor is their difference
            rep = build() + [(-s, u, k, v) for s, u, k, v in self._expand(steps)]
            rule = Rule(lead, rhs, [(ci * s, u, k, v) for s, u, k, v in rep])
            n = len(lead)
            for p, kind, k in self._resolve(self._add_rule(rule)):
                other = self.rules[p]
                lp = other.lhs
                if kind == 0:  # lead.y == x.lp
                    push(*self._s_element(rule, lp[k:], other, lead[: n - k], ()))
                elif kind == 1:  # lp.y == x.lead
                    push(*self._s_element(other, lead[k:], rule, lp[: len(lp) - k], ()))
                else:  # lp == x.lead.y
                    push(*self._s_element(other, (), rule, lp[:k], lp[k + n :]))

    def _s_element(self, r1: Rule, y1, r2: Rule, x2, y2):
        """The S-element of the word lhs1.y1 == x2.lhs2.y2, rhs1.y1 - x2.rhs2.y2,
        with a zero-argument function that builds its certificate."""
        d = _difference(self.algebra, ((m + y1, c) for m, c in r1.rhs.t.items()),
                        ((x2 + m + y2, c) for m, c in r2.rhs.t.items()))
        return d, lambda: [(-s, u, k, v + y1) for s, u, k, v in r1.rep] + [
            (s, x2 + u, k, v + y2) for s, u, k, v in r2.rep
        ]

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

    def _reduce(self, elem: Element):
        """Fully reduce an element, leftmost match first.  Returns the reduced
        element and the steps (c, u, rule, v), with
        original = reduced + sum(c * u.(lhs - rhs).v)."""
        work = list(elem.t.items())
        done = Element.zero(self.algebra)
        steps = []
        while work:
            w, c = work.pop()
            hit = self._find(w)
            if hit is None:
                done._add_term(w, c)
                continue
            i, rule = hit
            u, v = w[:i], w[i + len(rule.lhs) :]
            steps.append((c, u, rule, v))
            work.extend((u + m + v, rc * c) for m, rc in rule.rhs.t.items())
        return done, steps

    @staticmethod
    def _expand(steps):
        """The certificate of reduction steps, over the input relations."""
        return [
            (c * s, u + ru, k, rv + v) for c, u, rule, v in steps for s, ru, k, rv in rule.rep
        ]

    # -- public API -------------------------------------------------------------
    def normal_form(self, elem: Element, with_cert=False):
        if elem.deg() > self.cap:
            raise DegreeOverflow(
                f"degree {elem.deg()} input exceeds rewriting cap {self.cap}"
            )
        nf, steps = self._reduce(elem)
        if with_cert:
            return nf, self._expand(steps)
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
    the certificate uses lives in another algebra than p).

    Entries with one (u, k, v) are summed first, and only the nonzero sums
    are re-expanded: the same sum, with each distinct term expanded once."""
    if not all(same_ambient(p.ambient, relations[k].ambient) for k in {e[2] for e in cert}):
        raise ValueError("certificate relation and element live in different algebras")
    merged: dict = {}
    for c, u, k, v in cert:
        key = (u, k, v)
        merged[key] = merged[key] + c if key in merged else c
    acc = Element.zero(p.ambient)
    for (u, k, v), c in merged.items():
        if c.is_zero():
            continue
        for m, rc in relations[k].t.items():
            acc._add_term(u + m + v, rc * c)
    return acc == p


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
