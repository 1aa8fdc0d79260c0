"""Frozen reference copy of the eager-certificate completion (test-only).

``tests/test_rewrite_ref.py`` checks :class:`qiso.rewrite.RuleSet` against
this class.  Do not edit it to match the package: it is the fixed point the
deferred certificates, the indexed rule lookup and the ambiguities read from
the overlap index are checked against.

It freezes ``_complete`` and ``_ambiguities`` as ``RuleSet`` had them
before certificates were deferred: every popped S-element is reduced with
its certificate tracked, and every ordered pair of rules is scanned.  The one
addition is the ``skipped`` counter in place of the old ``capped = True``.
Reduction (``_add_rule``, ``_find``, ``_reduce`` and ``_mul_word``) is frozen
as the scan over per-letter buckets of rules, each step building its
replacement as intermediate ``Element``s, and ``normal_form`` as the call of
that ``_reduce`` with its certificate tracked or not.  Only the constructor
and ``capped`` are shared with the package.

It also freezes ``render_certificate`` as it was before it rendered each
distinct coefficient and word once: every entry renders its coefficient and
its words afresh (``tests/test_render_certificate_ref.py``).
"""

from __future__ import annotations

import heapq

from qiso.freealg import Element
from qiso.rewrite import DegreeOverflow, NonUnitLeadCoefficient, Rule, RuleSet
from qiso.scalars import Scalar


def _mul_word(elem: Element, u, v, alg) -> Element:
    if not u and not v:
        return elem
    return Element(alg, {u + m + v: c for m, c in elem.t.items()})


class RefRuleSet(RuleSet):
    def __init__(self, algebra, relations, cap: int):
        self._index: dict[int, list[Rule]] = {}
        super().__init__(algebra, relations, cap)

    def _add_rule(self, rule: Rule):
        self.rules.append(rule)
        self._index.setdefault(rule.lhs[0], []).append(rule)

    def _find(self, w):
        for i in range(len(w)):
            for rule in self._index.get(w[i], ()):
                L = len(rule.lhs)
                if w[i : i + L] == rule.lhs:
                    return i, rule
        return None

    def _reduce(self, elem: Element, rep):
        """Fully reduce an element; extends rep so that
        original = reduced + sum(rep applied to relations)."""
        alg = self.algebra
        work = list(elem.t.items())
        done = Element.zero(alg)
        rep = list(rep) if rep is not None else None
        while work:
            w, c = work.pop()
            hit = self._find(w)
            if hit is None:
                done._add_term(w, c)
                continue
            i, rule = hit
            u, v = w[:i], w[i + len(rule.lhs) :]
            repl = _mul_word(rule.rhs, u, v, alg) * c
            if rep is not None:
                rep.extend((c * s, u + ru, k, rv + v) for s, ru, k, rv in rule.rep)
            work.extend(repl.t.items())
        return done, rep

    def normal_form(self, elem: Element, with_cert=False):
        if elem.deg() > self.cap:
            raise DegreeOverflow(
                f"degree {elem.deg()} input exceeds rewriting cap {self.cap}"
            )
        nf, rep = self._reduce(elem, [] if with_cert else None)
        if with_cert:
            return nf, rep
        return nf

    def _complete(self):
        alg = self.algebra
        counter = 0
        queue: list = []

        def push(elem, rep):
            nonlocal counter
            if elem.is_zero():
                return
            lead = max(elem.t, key=alg.order_key)
            heapq.heappush(queue, (alg.order_key(lead), counter, elem, rep))
            counter += 1

        for i, r in enumerate(self.relations):
            if r.deg() > self.cap:
                raise DegreeOverflow(f"relation of degree {r.deg()} exceeds cap {self.cap}")
            push(r, [(Scalar.one(), (), i, ())])

        while queue:
            _, _, elem, rep = heapq.heappop(queue)
            # rep represents elem itself; _reduce appends entries representing
            # the removed part, so the reduced element is rep minus the delta
            elem, delta = self._reduce(elem, [])
            rep = rep + [(-s, u, k, v) for s, u, k, v in delta]
            if elem.is_zero():
                continue
            lead = max(elem.t, key=alg.order_key)
            c = elem.t[lead]
            if not c.is_unit():
                raise NonUnitLeadCoefficient(
                    f"leading coefficient {c.render()} of {elem.render()} is not a unit"
                )
            ci = c.inv()
            rhs = -(elem - Element(alg, {lead: c})) * ci
            rule = Rule(lead, rhs, [(ci * s, u, k, v) for s, u, k, v in rep])
            # resolve ambiguities against all rules (including itself)
            self._add_rule(rule)
            for other in self.rules:
                for elem2, rep2 in self._ambiguities(rule, other):
                    push(elem2, rep2)
                if other is not rule:
                    for elem2, rep2 in self._ambiguities(other, rule):
                        push(elem2, rep2)

    def _ambiguities(self, r1: Rule, r2: Rule):
        """S-elements from overlaps (suffix of r1.lhs = prefix of r2.lhs) and
        inclusions (r2.lhs inside r1.lhs)."""
        alg = self.algebra
        l1, l2 = r1.lhs, r2.lhs
        out = []

        def s_overlap(x, y):
            # word l1 + y == x + l2:  r1 gives rhs1.y, r2 gives x.rhs2
            d = _mul_word(r1.rhs, (), y, alg) - _mul_word(r2.rhs, x, (), alg)
            rep = [(-s, u, k, v + y) for s, u, k, v in r1.rep] + [
                (s, x + u, k, v) for s, u, k, v in r2.rep
            ]
            return d, rep

        def s_inclusion(x, y):
            # word l1 == x + l2 + y:  r1 gives rhs1, r2 gives x.rhs2.y
            d = r1.rhs - _mul_word(r2.rhs, x, y, alg)
            rep = [(-s, u, k, v) for s, u, k, v in r1.rep] + [
                (s, x + u, k, v + y) for s, u, k, v in r2.rep
            ]
            return d, rep

        # proper overlaps: l1 = x + o, l2 = o + y with 0 < len(o) < min lens
        for olen in range(1, min(len(l1), len(l2))):
            if l1[len(l1) - olen :] == l2[:olen]:
                x = l1[: len(l1) - olen]
                y = l2[olen:]
                if len(l1) + len(y) <= self.cap:
                    out.append(s_overlap(x, y))
                else:
                    self.skipped += 1
        # inclusions: l2 occurs inside l1 (or distinct rules with equal lhs)
        if len(l2) < len(l1):
            for i in range(len(l1) - len(l2) + 1):
                if l1[i : i + len(l2)] == l2:
                    out.append(s_inclusion(l1[:i], l1[i + len(l2) :]))
        elif l1 == l2 and r1 is not r2:
            out.append(s_inclusion((), ()))
        return out


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
