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

Completion does only the work its rules need.  An S-element is a plain term
dict (word -> nonzero Scalar), formed in place from each rule's negated rhs
kept at hand, and reduced once by the kernel ``normal_form`` uses too; most
reduce to zero.  A survivor becomes a rule that keeps what its certificate is built
from: the S-element's source, the reduction steps and the inverse lead
coefficient.  (A rule that is an input relation as it stands has its
one-term certificate (c^-1, r_i) at once.)  The certificate is built on
first request (``normal_form(..., with_cert=True)``, ``ideal_member`` or
``Rule.rep``), with the pending certificates it rests on, in rule order: a
rule's source and steps refer only to earlier rules, so no recursion is
needed.  Rules are never changed once made, so these certificates equal
eager ones.  No rule refers back to its RuleSet, so a discarded system is
freed by reference counting alone.  A pair of monomial rules (both rhs
zero) only gives zero and is never formed.  ``RuleSet.skipped`` counts the overlaps dropped at the cap;
``capped`` is ``skipped > 0``.

Rules are found by word lookup, not by scanning.  Each new lhs is the lead
of an element reduced by every earlier rule, so lhs words are unique.  A
reduction step probes the subwords at each lhs length; at the leftmost match
the earliest rule wins (an older lhs may contain a newer one).  A reduction
resumes its scan: after a rewrite at position i, the words it produces are
scanned from i - (longest lhs) + 1, since the prefix it kept held no match.
The ambiguities of a new rule are read straight from dicts from the proper
prefixes, suffixes and subwords of each lhs, with the overlap length or
inclusion position, and resolved in rule order.  The prefix and suffix dicts
keep their rules in buckets by lhs length, so the overlaps above the cap are
counted a bucket at a time.  Only completion reads these dicts, and a
completed system no longer holds them.
"""

from __future__ import annotations

import heapq

from .freealg import Element, FreeAlgebra, TensorAlgebra, _add_term, same_ambient
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
    """A rewrite rule lhs -> rhs with its certificate ``rep``, a list
    [(Scalar, u, rel_index, v)] with lhs - rhs = sum c*u*r*v over the input
    relations.  ``neg`` is -rhs as a term dict.

    A rule made by completion keeps what its certificate is built from (the
    S-element's source, the reduction steps and the inverse lead coefficient)
    and builds ``rep`` when it is first read, unless it is one term: an input
    relation that needed no reduction."""

    __slots__ = ("lhs", "rhs", "neg", "_rep", "_pending")

    def __init__(self, lhs, rhs: Element, rep, neg=None):
        self.lhs = lhs  # word
        self.rhs = rhs  # Element with monomials < lhs
        self.neg = {m: -c for m, c in rhs.t.items()} if neg is None else neg
        self._rep = rep
        self._pending = None  # (position, source, steps, ci) until rep is built

    @property
    def rep(self):
        if self._pending is not None:
            _certify(self)
        return self._rep


def _certify(rule: Rule):
    """Build the pending certificate of ``rule`` and of every pending rule it
    rests on.  A rule's source and steps refer only to earlier rules, so
    building them in rule order needs no recursion."""
    todo, stack = {}, [rule]
    while stack:
        r = stack.pop()
        if r._pending is not None and r._pending[0] not in todo:
            pos, src, steps, _ = r._pending
            todo[pos] = r
            if isinstance(src, tuple):
                stack += (src[0], src[2])
            stack.extend(step[2] for step in steps)
    for _, r in sorted(todo.items()):
        _, src, steps, ci = r._pending
        if isinstance(src, tuple):  # the S-element rhs1.y1 - x2.rhs2.y2
            r1, y1, r2, x2, y2 = src
            rep = [(-s, u, k, v + y1) for s, u, k, v in r1._rep] + [
                (s, x2 + u, k, v + y2) for s, u, k, v in r2._rep
            ]
        else:  # input relation number src
            rep = [(Scalar.one(), (), src, ())]
        # the steps represent the part reduction removed, so the survivor is
        # the source minus the steps
        rep += [(-s, u, k, v) for s, u, k, v in _expand(steps)]
        r._rep = [(ci * s, u, k, v) for s, u, k, v in rep]
        r._pending = None


def _expand(steps):
    """The certificate of reduction steps (c, u, rule, v), over the input relations."""
    return [(c * s, u + ru, k, rv + v) for c, u, rule, v in steps for s, ru, k, rv in rule.rep]


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
        # the ambiguity index, which only completion reads: proper prefix /
        # suffix of some lhs -> lhs length -> positions of those rules, and
        # proper subword of some lhs -> positions of those rules
        self._prefixes: dict[tuple, dict[int, list[int]]] = {}
        self._suffixes: dict[tuple, dict[int, list[int]]] = {}
        self._subwords: dict[tuple, list[int]] = {}
        self._complete()
        del self._prefixes, self._suffixes, self._subwords

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
            self._prefixes.setdefault(lhs[:k], {}).setdefault(n, []).append(j)
            self._suffixes.setdefault(lhs[n - k :], {}).setdefault(n, []).append(j)
        for sub in {lhs[i : i + k] for k in range(1, n) for i in range(n - k + 1)}:
            self._subwords.setdefault(sub, []).append(j)
        return j

    def _resolve(self, j: int):
        """The ambiguities of rule j whose S-element can be nonzero, as sorted
        events (p, kind, k): kind 0 overlaps (rule j, rule p) and kind 1
        overlaps (rule p, rule j) in k letters, kind 2 includes lhs(j) in
        lhs(p) at position k.  No other lhs lies inside lhs(j), which every
        earlier rule has reduced.  Overlaps above the cap are only counted, a
        bucket of one lhs length at a time, and a pair of monomial rules (both
        rhs zero) only gives zero."""
        rules, cap = self.rules, self.cap
        lhs, mono = rules[j].lhs, not rules[j].rhs.t
        n = len(lhs)
        events = []
        for k in range(1, n):
            # a proper suffix of lhs(j) starts lhs(p), or a proper prefix ends
            # it; the overlap word has length len(lhs(p)) + n - k
            for kind, by_len in ((0, self._prefixes.get(lhs[n - k :])),
                                 (1, self._suffixes.get(lhs[:k]))):
                if by_len is None:
                    continue
                for length, ps in by_len.items():
                    # the self-overlap of rule j (the last position) is kind 0
                    if kind and length == n and ps[-1] == j:
                        ps = ps[:-1]
                    if length > cap - n + k:
                        self.skipped += len(ps)
                        continue
                    for p in ps:
                        if not (mono and not rules[p].rhs.t):
                            events.append((p, kind, k))
        for p in self._subwords.get(lhs, ()):
            if not (mono and not rules[p].rhs.t):
                lp = rules[p].lhs
                events.extend((p, 2, i) for i in range(len(lp) - n + 1) if lp[i : i + n] == lhs)
        events.sort()
        return events

    def _complete(self):
        alg = self.algebra
        order_key = alg.order_key
        rules = self.rules
        # heap entries (len(lead), lead, counter, terms, src) sort as the
        # order key (len(lead), lead) and then the push count
        queue: list = []
        counter = 0

        for i, r in enumerate(self.relations):
            if r.deg() > self.cap:
                raise DegreeOverflow(f"relation of degree {r.deg()} exceeds cap {self.cap}")
            if r.t:
                lead = max(r.t, key=order_key)
                heapq.heappush(queue, (len(lead), lead, counter, r.t, i))
                counter += 1

        while queue:
            _, _, _, terms, src = heapq.heappop(queue)
            # most S-elements reduce to zero; only a survivor becomes a rule
            terms, steps = self._reduce(terms.items())
            if not terms:
                continue
            lead = max(terms, key=order_key)
            c = terms[lead]
            if not c.is_unit():
                raise NonUnitLeadCoefficient(
                    f"leading coefficient {c.render()} of {Element(alg, terms).render()} is not a unit"
                )
            if not lead:
                raise UnitIdeal(
                    f"the relations generate the unit ideal: {Element(alg, terms).render()} = 0"
                )
            ci = c.inv()
            nci = -ci
            rhs, neg = Element(alg), {}
            for m, x in terms.items():
                if m != lead:
                    rhs.t[m] = y = x * nci
                    neg[m] = -y
            rule = Rule(lead, rhs, None, neg)
            if steps or isinstance(src, tuple):
                rule._pending = (len(rules), src, steps, ci)
            else:  # an input relation as it stands: a one-term certificate
                rule._rep = [(ci, (), src, ())]
            n = len(lead)
            for p, kind, k in self._resolve(self._add_rule(rule)):
                other = rules[p]
                lp = other.lhs
                # the S-element rhs1.y1 - x2.rhs2.y2 of the word
                # lhs1.y1 == x2.lhs2.y2, in the terms and order that
                # ``Element.__sub__`` gives
                if kind == 0:  # lead.y == x.lp
                    r1, y1, r2, x2, y2 = rule, lp[k:], other, lead[: n - k], ()
                elif kind == 1:  # lp.y == x.lead
                    r1, y1, r2, x2, y2 = other, lead[k:], rule, lp[: len(lp) - k], ()
                else:  # lp == x.lead.y
                    r1, y1, r2, x2, y2 = other, (), rule, lp[:k], lp[k + n :]
                d = {m + y1: x for m, x in r1.rhs.t.items()} if y1 else dict(r1.rhs.t)
                for m, x in r2.neg.items():
                    _add_term(d, x2 + m + y2, x)
                if d:
                    top = max(d, key=order_key)
                    heapq.heappush(queue, (len(top), top, counter, d, (r1, y1, r2, x2, y2)))
                    counter += 1

    # -- reduction -----------------------------------------------------------
    def _reduce(self, terms):
        """Fully reduce (word, nonzero Scalar) terms, leftmost match first and
        at it the earliest rule.  Returns the reduced term dict and the steps
        (c, u, rule, v), with original = reduced + sum(c * u.(lhs - rhs).v).
        A product of nonzero scalars is nonzero, so no new term is zero.

        A word's scan resumes where a match can first start.  After a rewrite
        at position i, no match of the terms it produces starts left of
        i - (longest lhs) + 1: such a match would lie inside the prefix the
        rewrite kept, left of the leftmost match."""
        lhs_at, lens, rules = self._lhs, self._lens, self.rules
        back = lens[-1] - 1 if lens else 0
        done: dict = {}
        steps = []
        # (word, coefficient, first position a match can start), last in
        # first out
        work = [(w, c, 0) for w, c in terms]
        while work:
            w, c, i = work.pop()
            n = len(w)
            best = None
            while i < n:
                for L in lens:
                    if i + L > n:
                        break
                    p = lhs_at.get(w[i : i + L])
                    if p is not None and (best is None or p < best):
                        best = p
                if best is not None:
                    break
                i += 1
            if best is None:
                _add_term(done, w, c)
                continue
            rule = rules[best]
            u, v = w[:i], w[i + len(rule.lhs) :]
            steps.append((c, u, rule, v))
            start = i - back if i > back else 0
            work.extend([(u + m + v, rc * c, start) for m, rc in rule.rhs.t.items()])
        return done, steps

    # -- public API -------------------------------------------------------------
    def normal_form(self, elem: Element, with_cert=False):
        deg = max(map(len, elem.t), default=0)
        if deg > self.cap:
            raise DegreeOverflow(f"degree {deg} input exceeds rewriting cap {self.cap}")
        terms, steps = self._reduce(elem.t.items())
        nf = Element(self.algebra)
        nf.t = terms
        if with_cert:
            return nf, _expand(steps)
        return nf


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
